"""Sudoku grids of order q^2 and their subspace/flag structure on F^4.

A location in a grid is a 4-tuple (x1, x2, x3, x4) of field indices: (x1, x2)
is the base-q row number and (x3, x4) the base-q column number, so x1 picks
the large row (row of subsquares) and x3 the large column.  A grid is held as
its symbols' two base-q digits, a radix and a units table of one byte per
location; no table of symbols s = q*radix + units is kept, and ``files``
forms them a row at a time as it prints the grid.

A grid is linear when every symbol's location set is a coset of one
2-dimensional subspace, and a flag adds a 3-dimensional space whose cosets
carry the radix digits.  A flag is held as the two linear functionals whose
values are those digits.
"""

from __future__ import annotations

from collections import namedtuple

from .gf import Field
from .linalg import Subspace, functional_values, subspace_from


class DimensionMismatch(ValueError):
    """Grids or arrays with incompatible shapes were combined."""


class InvalidFlagData(ValueError):
    """A flag datum violates b != 0, beta != 0, or det != 0."""


class Grid(namedtuple("Grid", "q radix units")):
    """q^2 x q^2 grid as its symbols' radix and units digits, one byte per cell.

    Cell (r, c) sits at the packed location r*q^2 + c of both tables, which
    are the rows this grid contributes to an assembled array.  These two
    tables are the whole grid.  A table that is not bytes of q^4 cells is
    refused; the digits themselves are not checked.
    """

    __slots__ = ()

    def __new__(cls, q: int, radix: bytes, units: bytes):
        for name, table in (("radix", radix), ("units", units)):
            if not isinstance(table, bytes) or len(table) != q**4:
                raise DimensionMismatch(f"{name} table must be bytes of q^4 = {q**4} cells")
        return super().__new__(cls, q, radix, units)

    @classmethod
    def _make(cls, iterable):  # so _replace checks too
        return cls(*iterable)


class Flag(namedtuple("Flag", "field phi psi")):
    """Flag G < V (dim-2 symbol space in dim-3 radix space) as two functionals.

    ``phi`` spans V's annihilators and is 1 at its last nonzero coordinate j;
    ``psi`` vanishes on G and at e_j, and is 1 at its own last nonzero
    coordinate k, so k != j.  The pair is unique to the flag.  The grid symbol
    at x is q*phi(x) + psi(x), which is the canonical coset label: the radix
    digit numbers the cosets of V by their minimal points, and the units digit
    numbers the cosets of G inside each radix coset the same way.  The point
    m = d*e_k + (c - phi_k*d)*e_j has (phi, psi) = (c, d) and is the minimum
    of that symbol coset: any other point of it first differs from m at a
    coordinate i that is neither j nor k (agreeing with m before i, the
    functional whose last nonzero coordinate is i fixes the i-th coordinate),
    so there m_i = 0 is the smaller.  Inside the radix coset phi = c these
    minima first differ at coordinate k, where they read d, so the units
    digit is psi; the radix cosets' minima c*e_j are ordered by c, so the
    radix digit is phi.  This holds for k > j and for k < j alike.
    """

    __slots__ = ()


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


class FlagData(namedtuple("FlagData", "field a b c d beta")):
    """Validated datum (2x2 matrix entries a,b,c,d plus beta) of a flag."""

    __slots__ = ()

    def __new__(cls, field: Field, a: int, b: int, c: int, d: int, beta: int):
        for x in (a, b, c, d, beta):
            if not 0 <= x < field.q:
                raise InvalidFlagData(f"entry {x} outside field of order {field.q}")
        why = datum_violation(field, a, b, c, d, beta)
        if why is not None:
            raise InvalidFlagData(why)
        return super().__new__(cls, field, a, b, c, d, beta)

    @classmethod
    def _make(cls, iterable):  # so _replace checks too
        return cls(*iterable)

    @property
    def gamma(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def spaces(self) -> tuple[Subspace, Subspace]:
        """(symbol space, radix space): the spans of (1,0,a,c), (0,1,b,d) and
        of those two with (0,1,0,beta)."""
        f = self.field
        v1, v2, v3 = (1, 0, self.a, self.c), (0, 1, self.b, self.d), (0, 1, 0, self.beta)
        return subspace_from(f, [v1, v2]), subspace_from(f, [v1, v2, v3])

    def flag(self) -> Flag:
        """The flag of ``spaces()``, in closed form.

        With k = (beta - d)/b, phi = (-c - a*k, -beta, k, 1) vanishes on
        (1,0,a,c), (0,1,b,d) and (0,1,0,beta), as b*k + d = beta; and
        psi = (-a, -b, 1, 0) vanishes on the first two.  phi_4 = 1, so j = 4;
        psi_4 = 0 and psi_3 = 1, so this is the normalized pair of ``Flag``.

        Every such grid is a sudoku solution.  Locations sharing a column
        differ in span(e1, e2), a row in span(e3, e4) and a subsquare in
        span(e2, e4).  Since phi and psi span G's annihilators, u*e_i + v*e_j
        lies in G when both vanish on it, which has a solution other than 0
        exactly when their minor on coordinates i and j is 0.  Those three
        minors are bc - ad, -1 and b, which the datum rule makes nonzero.
        """
        f = self.field
        a, b, c, d, beta = self.a, self.b, self.c, self.d, self.beta
        k = f.mul(f.sub(beta, d), f.inv(b))
        phi = (f.neg(f.add(c, f.mul(a, k))), f.neg(beta), k, 1)
        return Flag(f, phi, (f.neg(a), f.neg(b), 1, 0))


def subspace_gamma(sub: Subspace):
    """2x2 matrix datum of a subspace spanned by (1,0,a,c), (0,1,b,d), if any."""
    if sub.dim != 2:
        return None
    r1, r2 = sub.basis
    if r1[:2] != (1, 0) or r2[:2] != (0, 1):
        return None
    return ((r1[2], r2[2]), (r1[3], r2[3]))


def coset_index_map(flag: Flag) -> tuple[bytes, bytes]:
    """The value tables of phi and psi: each point's radix and units digit.

    Both are in packed order, and the packed location
    ((x1*q + x2)*q + x3)*q + x4 is the grid cell row*q^2 + column.
    """
    return functional_values(flag.field, flag.phi), functional_values(flag.field, flag.psi)


def generate(flag: Flag) -> Grid:
    """Grid of the flag's linear sudoku solution under canonical labeling.

    Radix-space cosets numbered by their minimal points get radix digits
    0..q-1; within each, its q symbol-space cosets numbered the same way get
    units digits 0..q-1 (see ``Flag``).
    """
    return Grid(flag.field.q, *coset_index_map(flag))


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
    return first_repeat(list(zip(a.radix, a.units, b.radix, b.units))) is None
