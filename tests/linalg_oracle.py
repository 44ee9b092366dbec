"""Reference element-level subspace operations.

``sudoku_ooa.linalg`` works with a subspace only through its basis and its
annihilators: intersections are common zero sets and coset labels are
functional values.  This module keeps the element-level reading, independent
of that: vector sums and scalings, every element of a span, sums of
subspaces, membership by reduction, and the packed index of a vector.
"""

from __future__ import annotations

from sudoku_ooa.gf import Field
from sudoku_ooa.linalg import Subspace, Vec4, _pivot, subspace_from


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
