"""Subspace machinery over F^4."""

from __future__ import annotations

import itertools
import random

import pytest

from linalg_oracle import (
    contains,
    flag_from_spaces,
    pack,
    span_elements,
    subspace_sum,
    vec_add,
)
from sudoku_ooa import (
    SizeUnsupported,
    det,
    intersect,
    make_field,
    subspace_from,
    trivial_intersection,
)
from sudoku_ooa.linalg import rank
from sudoku_ooa.sudoku import coset_index_map


def test_det_examples():
    f3 = make_field(3)
    assert det(f3, [[1, 1], [0, 1]]) == 1
    assert det(f3, [[1, 0], [0, 1]]) == 1
    f2 = make_field(2)
    assert det(f2, [[1, 1, 1], [1, 0, 1], [0, 1, 1]]) == 1


def test_det_size_unsupported():
    f = make_field(3)
    with pytest.raises(SizeUnsupported):
        det(f, [[1]])
    with pytest.raises(SizeUnsupported):
        det(f, [[1, 0, 0, 0]] * 4)


def test_subspace_from_examples():
    f = make_field(3)
    assert subspace_from(f, []).dim == 0
    assert subspace_from(f, [(1, 0, 0, 2), (0, 2, 1, 2)]).dim == 2
    # The third vector is dependent: 2*(1,0,1,0) + (0,1,1,2) = (2,1,0,2) mod 3.
    dep = subspace_from(f, [(1, 0, 1, 0), (0, 1, 1, 2), (2, 1, 0, 2)])
    assert dep.dim == 2
    assert dep == subspace_from(f, [(1, 0, 1, 0), (0, 1, 1, 2)])


def test_canonical_basis_is_congruence():
    f = make_field(3)
    rng = random.Random(7)
    for _ in range(40):
        vecs = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(3)]
        a = subspace_from(f, vecs)
        # Span-equal generating set: shuffled sums and scalings.
        mixed = [
            vec_add(f, vecs[0], vecs[1]),
            vecs[2],
            vec_add(f, vecs[1], vec_add(f, vecs[2], vecs[2])),
            vecs[1],
        ]
        rng.shuffle(mixed)
        assert subspace_from(f, mixed) == a


def test_intersect_row_and_column_spaces():
    f = make_field(3)
    v_r = subspace_from(f, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    v_c = subspace_from(f, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    got = intersect(v_r, v_c)
    assert got.basis == ((0, 1, 0, 0), (0, 0, 0, 1))


def test_intersect_idempotent():
    f = make_field(2)
    a = subspace_from(f, [(1, 0, 1, 1), (0, 1, 1, 0)])
    assert intersect(a, a) == a


def test_trivial_intersection_examples():
    f = make_field(3)
    a = subspace_from(f, [(1, 0, 0, 2), (0, 2, 1, 2)])
    assert not trivial_intersection(a, a)
    left = subspace_from(f, [(1, 0, 0, 0), (0, 1, 0, 0)])
    right = subspace_from(f, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert trivial_intersection(left, right)
    rows = subspace_from(f, [(0, 1, 0, 0), (0, 0, 0, 1)])
    assert trivial_intersection(a, rows)
    # Rank-4 confirmation of the last case.
    assert rank(f, a.basis + rows.basis) == 4


def test_intersect_rejects_field_mismatch():
    a = subspace_from(make_field(2), [(1, 0, 0, 0)])
    b = subspace_from(make_field(3), [(1, 0, 0, 0)])
    with pytest.raises(ValueError, match="different fields"):
        intersect(a, b)
    with pytest.raises(ValueError, match="different fields"):
        trivial_intersection(a, b)


def _random_spaces(f, rng):
    """Spaces <v1, v2> < <v1, v2, v3> from random vectors; sudoku or not."""
    while True:
        v1, v2, v3 = vecs = [tuple(rng.randrange(f.q) for _ in range(4)) for _ in range(3)]
        if rank(f, vecs) == 3:
            return subspace_from(f, [v1, v2]), subspace_from(f, vecs)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_cosets_partition(q):
    # On any flag G < V: each symbol is one coset of G, each radix digit one
    # coset of V, and the cosets first appear in canonical order: radix
    # digits by their first points, units digits likewise inside each.
    f = make_field(q)
    rng = random.Random(q)
    points = list(itertools.product(range(q), repeat=4))  # packed order
    for _ in range(6):
        symbol_space, radix_space = _random_spaces(f, rng)
        radix, units = coset_index_map(flag_from_spaces(symbol_space, radix_space))
        symbols = [q * r + u for r, u in zip(radix, units)]
        assert sorted(set(symbols)) == list(range(q * q))
        first = [symbols.index(sym) for sym in range(q * q)]
        sym_members = span_elements(symbol_space)
        radix_members = span_elements(radix_space)
        covered = set()
        for sym, m in enumerate(first):
            coset = [vec_add(f, points[m], w) for w in sym_members]
            assert all(symbols[pack(q, v)] == sym for v in coset)
            covered.update(coset)
        assert len(covered) == q**4
        for digit in range(q):
            units_first = first[q * digit : q * digit + q]
            assert units_first == sorted(units_first)
            coset = [vec_add(f, points[units_first[0]], w) for w in radix_members]
            assert all(symbols[pack(q, v)] // q == digit for v in coset)
        assert first[::q] == sorted(first[::q])


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_dimension_formula(q):
    f = make_field(q)
    rng = random.Random(11 * q)
    for _ in range(60):
        a = subspace_from(
            f, [tuple(rng.randrange(q) for _ in range(4)) for _ in range(rng.randrange(5))]
        )
        b = subspace_from(
            f, [tuple(rng.randrange(q) for _ in range(4)) for _ in range(rng.randrange(5))]
        )
        meet = intersect(a, b)
        join = subspace_sum(a, b)
        assert meet.dim + join.dim == a.dim + b.dim
        assert trivial_intersection(a, b) == (meet.dim == 0)
        for v in span_elements(meet):
            assert contains(a, v) and contains(b, v)
