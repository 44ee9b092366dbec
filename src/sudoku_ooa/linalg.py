"""Vectors, small matrices, and subspaces of F^4 over a finite field.

Vectors are 4-tuples of canonical field indices and matrices are nested
lists/tuples of them.  Subspaces carry a reduced-row-echelon basis, so two
subspaces are equal exactly when their Subspace values are equal.  Beyond
their bases, subspaces are handled only through their annihilators (the
nullspace functionals): no subspace is enumerated element by element.
"""

from __future__ import annotations

from collections import namedtuple

from .gf import Field

Vec4 = tuple[int, int, int, int]


class SizeUnsupported(ValueError):
    """Determinants are implemented for 2x2 and 3x3 matrices only."""


def mat_sub(field: Field, a, b):
    """Entrywise difference of two equal-shaped matrices."""
    return tuple(
        tuple(field.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def det(field: Field, m) -> int:
    """Determinant of a square 2x2 or 3x3 matrix, by cofactor expansion."""
    n = len(m)
    if any(len(row) != n for row in m) or n not in (2, 3):
        raise SizeUnsupported("determinant supports square matrices of size 2 or 3")
    mul, sub = field.mul, field.sub
    if n == 2:
        return sub(mul(m[0][0], m[1][1]), mul(m[0][1], m[1][0]))
    c0 = sub(mul(m[1][1], m[2][2]), mul(m[1][2], m[2][1]))
    c1 = sub(mul(m[1][0], m[2][2]), mul(m[1][2], m[2][0]))
    c2 = sub(mul(m[1][0], m[2][1]), mul(m[1][1], m[2][0]))
    return sub(field.add(mul(m[0][0], c0), mul(m[0][2], c2)), mul(m[0][1], c1))


def _pivot(row) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    return -1


def rref(field: Field, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon basis of the span of the given row vectors."""
    sub, mul, inv = field.sub, field.mul, field.inv
    basis: list[list[int]] = []
    for vec in rows:
        v = list(vec)
        for b in basis:
            f = v[_pivot(b)]
            if f:
                v = [sub(x, mul(f, y)) for x, y in zip(v, b)]
        piv = _pivot(v)
        if piv < 0:
            continue
        c = inv(v[piv])
        v = [mul(c, x) for x in v]
        for b in basis:
            f = b[piv]
            if f:
                b[:] = [sub(x, mul(f, y)) for x, y in zip(b, v)]
        basis.append(v)
    basis.sort(key=_pivot)
    return tuple(tuple(b) for b in basis)


def rank(field: Field, rows) -> int:
    return len(rref(field, rows))


def nullspace(field: Field, rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right nullspace of the matrix with the given rows.

    Each basis vector is 1 at its free coordinate, which is its last nonzero
    one: a reduced row is zero left of its pivot, so only pivot coordinates
    left of the free one can be nonzero.
    """
    reduced = rref(field, rows)
    pivots = [_pivot(r) for r in reduced]
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, piv in zip(reduced, pivots):
            v[piv] = field.neg(row[free])
        out.append(tuple(v))
    return out


class Subspace(namedtuple("Subspace", "field basis")):
    """Subspace of F^4 in canonical (RREF) basis form: a field and a tuple of Vec4."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.basis)


def subspace_from(field: Field, vectors) -> Subspace:
    return Subspace(field, rref(field, vectors))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection: the common zero set of both subspaces' annihilators."""
    field = a.field
    if field != b.field:
        raise ValueError("subspaces lie over different fields")
    annihilators = nullspace(field, a.basis, 4) + nullspace(field, b.basis, 4)
    return subspace_from(field, nullspace(field, annihilators, 4))


def trivial_intersection(a: Subspace, b: Subspace) -> bool:
    if a.field != b.field:
        raise ValueError("subspaces lie over different fields")
    return rank(a.field, a.basis + b.basis) == a.dim + b.dim


def functional_values(field: Field, phi) -> bytes:
    """Value table of phi(x) = sum(phi_i * x_i): one byte per point x of F^4,
    in packed order."""
    q = field.q
    add, mul = field.add, field.mul
    values = bytes(1)
    for c in phi:
        # Appending coordinate x_i: each partial value v becomes the q values
        # v + c*x_i, so the table stays in packed (lexicographic) order.
        extend = [bytes(add(v, mul(c, x)) for x in range(q)) for v in range(q)]
        values = b"".join(map(extend.__getitem__, values))
    return values
