"""Sudoku grids of order q^2 and their subspace/flag structure on F^4.

A location in a grid is a 4-tuple (x1, x2, x3, x4) of field indices: (x1, x2)
is the base-q row number and (x3, x4) the base-q column number, so x1 picks
the large row (row of subsquares) and x3 the large column.  Symbols are plain
integers 0..q^2-1; symbol s has radix digit s // q and units digit s % q.

A grid is linear when every symbol's location set is a coset of one
2-dimensional subspace, and a flag adds a 3-dimensional space whose cosets
carry the radix digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .gf import Field
from .linalg import Subspace, coset_index_map, det, nullspace, rank, subspace_from


class DimensionError(ValueError):
    """A subspace has the wrong dimension for the requested operation."""


class DimensionMismatch(ValueError):
    """Grids or arrays with incompatible shapes were combined."""


class NotSudokuFlag(ValueError):
    """The flag's 2-dimensional space does not generate a sudoku solution."""


class InvalidFlagData(ValueError):
    """A flag datum violates b != 0, beta != 0, or det != 0."""


@dataclass(frozen=True)
class Grid:
    """q^2 x q^2 grid of integer symbols, rows top to bottom."""

    q: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def side(self) -> int:
        return self.q * self.q


@dataclass(frozen=True)
class Flag:
    """Nested pair of subspaces: dim-2 symbol space inside dim-3 radix space.

    Symbols of the generated grid live on cosets of ``symbol_space`` and radix
    digits on cosets of ``radix_space``.  ``subspace_gamma(symbol_space)``
    recovers the matrix datum of a flag built from one.
    """

    symbol_space: Subspace
    radix_space: Subspace

    def __post_init__(self):
        if self.symbol_space.dim != 2 or self.radix_space.dim != 3:
            raise DimensionError("flag needs a dim-2 space inside a dim-3 space")
        if rank(self.field, self.radix_space.basis + self.symbol_space.basis) != 3:
            raise DimensionError("symbol space is not contained in radix space")

    @property
    def field(self) -> Field:
        return self.symbol_space.field


def flag_from_vectors(field: Field, v1, v2, v3) -> Flag:
    """Flag with symbol space <v1, v2> and radix space <v1, v2, v3>."""
    return Flag(subspace_from(field, [v1, v2]), subspace_from(field, [v1, v2, v3]))


def datum_violation(field: Field, a: int, b: int, c: int, d: int, beta: int) -> str | None:
    """Why matrix (a b; c d) with beta is not a flag datum, or None.

    A datum needs b != 0, beta != 0 and ad - bc != 0; the first violated rule
    is named.
    """
    if b == 0:
        return "upper-right entry b of the matrix datum is zero"
    if beta == 0:
        return "beta is zero"
    if field.sub(field.mul(a, d), field.mul(b, c)) == 0:
        return "matrix datum is singular"
    return None


@dataclass(frozen=True)
class FlagData:
    """Validated datum (2x2 matrix entries a,b,c,d plus beta) of a flag."""

    field: Field
    a: int
    b: int
    c: int
    d: int
    beta: int

    def __post_init__(self):
        f = self.field
        for x in (self.a, self.b, self.c, self.d, self.beta):
            if not 0 <= x < f.q:
                raise InvalidFlagData(f"entry {x} outside field of order {f.q}")
        why = datum_violation(f, self.a, self.b, self.c, self.d, self.beta)
        if why is not None:
            raise InvalidFlagData(why)

    @property
    def gamma(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def flag(self) -> Flag:
        """Canonical flag: columns (1,0,a,c), (0,1,b,d), (0,1,0,beta)."""
        return flag_from_vectors(
            self.field, (1, 0, self.a, self.c), (0, 1, self.b, self.d), (0, 1, 0, self.beta)
        )


def subspace_gamma(sub: Subspace):
    """2x2 matrix datum of a subspace spanned by (1,0,a,c), (0,1,b,d), if any."""
    if sub.dim != 2:
        return None
    r1, r2 = sub.basis
    if r1[:2] != (1, 0) or r2[:2] != (0, 1):
        return None
    return ((r1[2], r2[2]), (r1[3], r2[3]))


def is_sudoku_subspace(g: Subspace) -> bool:
    """Whether the dim-2 subspace meets rows, columns and subsquares once each.

    Locations sharing a column differ in span(e1, e2), a row in span(e3, e4)
    and a subsquare in span(e2, e4).  With (a, b) a basis of G's
    annihilators, u*e_i + v*e_j lies in G when a and b both vanish on it, and
    that 2x2 system has a solution other than 0 exactly when its determinant,
    the minor of (a, b) on coordinates i and j, is 0.
    """
    if g.dim != 2:
        raise DimensionError(f"expected a 2-dimensional subspace, got dim {g.dim}")
    field = g.field
    a, b = nullspace(field, g.basis, 4)
    return all(det(field, ((a[i], a[j]), (b[i], b[j]))) for i, j in ((0, 1), (2, 3), (1, 3)))


def generate(flag: Flag) -> Grid:
    """Grid of the flag's linear sudoku solution under canonical labeling.

    Radix-space cosets numbered by their minimal points get radix digits
    0..q-1; within each, its q symbol-space cosets numbered the same way get
    units digits 0..q-1.  In closed form the symbol at x is q*phi(x) + psi(x):
    phi is the radix space's annihilator, 1 at its last nonzero coordinate j,
    and psi the symbol space's annihilator with psi_j = 0, 1 at its own last
    nonzero coordinate.  Each coset's minimal point is supported on those two
    coordinates, so the cosets first appear in the order of phi and, inside a
    radix coset, of psi (the proof is in ``linalg.coset_index_map``).
    """
    if not is_sudoku_subspace(flag.symbol_space):
        raise NotSudokuFlag("symbol space does not generate a sudoku solution")
    q = flag.field.q
    # The packed location ((x1*q + x2)*q + x3)*q + x4 is row*q^2 + column.
    symbol_at = coset_index_map(flag.radix_space, flag.symbol_space)
    side = q * q
    return Grid(q, tuple(tuple(symbol_at[r : r + side]) for r in range(0, side * side, side)))


# -- exactly-once scanning ------------------------------------------------------


def first_repeat(keys) -> tuple[int, int] | None:
    """Positions (first, second) of the earliest key seen twice, or None.

    Earliest by second occurrence: [1, 2, 2, 1] gives (1, 2).  ``keys`` is a
    sequence of hashables; the all-distinct case is decided by one set build.
    """
    if len(set(keys)) == len(keys):
        return None
    seen: dict = {}
    for m, key in enumerate(keys):
        first = seen.setdefault(key, m)
        if first != m:
            return first, m


def are_orthogonal(a: Grid, b: Grid) -> bool:
    """Superimposed ordered symbol pairs are all distinct."""
    if a.q != b.q:
        raise DimensionMismatch(f"grid shapes differ: q={a.q} vs q={b.q}")
    cells = chain.from_iterable
    return first_repeat(list(zip(cells(a.rows), cells(b.rows)))) is None
