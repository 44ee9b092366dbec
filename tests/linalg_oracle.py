"""Reference element-level subspace operations, and general flags.

``sudoku_ooa.linalg`` works with a subspace only through its basis and its
annihilators: intersections are common zero sets and coset labels are
functional values.  This module keeps the element-level reading, independent
of that: vector sums and scalings, every element of a span, sums of
subspaces, membership by reduction, and the packed index of a vector.

``sudoku_ooa`` builds a flag only from a datum, in closed form.  Here a flag
is built from any pair of spaces G < V, by solving for its normalized
annihilators with ``nullspace``, and ``is_sudoku_subspace`` tests any
2-dimensional G.
"""

from __future__ import annotations

from sudoku_ooa.gf import Field
from sudoku_ooa.linalg import Subspace, Vec4, _pivot, det, nullspace, rank, subspace_from
from sudoku_ooa.sudoku import Flag


def vec_add(field: Field, u, v) -> Vec4:
    add = field.add
    return (add(u[0], v[0]), add(u[1], v[1]), add(u[2], v[2]), add(u[3], v[3]))


def vec_scale(field: Field, c: int, v) -> Vec4:
    mul = field.mul
    return (mul(c, v[0]), mul(c, v[1]), mul(c, v[2]), mul(c, v[3]))


def span_elements(sub: Subspace) -> list[Vec4]:
    """All q**dim vectors of the subspace."""
    field = sub.field
    vecs: list[Vec4] = [(0, 0, 0, 0)]
    for b in sub.basis:
        scaled = [vec_scale(field, c, b) for c in range(field.q)]
        vecs = [vec_add(field, v, s) for v in vecs for s in scaled]
    return vecs


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return subspace_from(a.field, a.basis + b.basis)


def contains(sub: Subspace, v) -> bool:
    """Whether v reduces to zero against the subspace's RREF basis."""
    minus, mul = sub.field.sub, sub.field.mul
    w = list(v)
    for b in sub.basis:
        f = w[_pivot(b)]
        if f:
            w = [minus(x, mul(f, y)) for x, y in zip(w, b)]
    return not any(w)


def pack(q: int, v) -> int:
    """Packed index ((x1*q + x2)*q + x3)*q + x4 of a vector."""
    return ((v[0] * q + v[1]) * q + v[2]) * q + v[3]


class DimensionError(ValueError):
    """A subspace has the wrong dimension for the requested operation."""


def flag_from_spaces(symbol_space: Subspace, radix_space: Subspace) -> Flag:
    """The flag G < V as ``Flag``'s normalized pair, solved by ``nullspace``.

    phi spans V's annihilators; ``nullspace`` makes each basis vector 1 at its
    last nonzero coordinate j.  psi spans the annihilators of G + <e_j>, which
    has dimension 3 as phi(e_j) = 1, and is normalized the same way.
    """
    if symbol_space.dim != 2 or radix_space.dim != 3:
        raise DimensionError("flag needs a dim-2 space inside a dim-3 space")
    field = symbol_space.field
    if rank(field, radix_space.basis + symbol_space.basis) != 3:
        raise DimensionError("symbol space is not contained in radix space")
    (phi,) = nullspace(field, radix_space.basis, 4)
    j = max(i for i, c in enumerate(phi) if c)
    e_j = tuple(int(i == j) for i in range(4))
    (psi,) = nullspace(field, symbol_space.basis + (e_j,), 4)
    return Flag(field, phi, psi)


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
