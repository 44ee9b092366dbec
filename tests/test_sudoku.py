"""Grid generation from flags, and the grid oracle's predicates."""

from __future__ import annotations

import itertools
import random

import pytest

import fixtures as fx
from grid_oracle import (
    composite,
    is_latin,
    is_sudoku,
    large_cols_orthogonal,
    large_rows_orthogonal,
    radix,
    subsquares_latin,
    symbol_rows,
)
from linalg_oracle import (
    DimensionError,
    contains,
    flag_from_spaces,
    is_sudoku_subspace,
    span_elements,
    vec_add,
)
from sudoku_ooa import (
    DimensionMismatch,
    FlagData,
    Grid,
    InvalidFlagData,
    are_orthogonal,
    det,
    generate,
    intersect,
    make_field,
    subspace_from,
    subspace_gamma,
)


def axis_spaces(field):
    return (
        subspace_from(field, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        subspace_from(field, [(0, 0, 1, 0), (0, 0, 0, 1)]),
        subspace_from(field, [(0, 1, 0, 0), (0, 0, 0, 1)]),
    )


def set_trivial(a, b):
    """Intersection triviality by raw element-set comparison."""
    return set(span_elements(a)) & set(span_elements(b)) == {(0, 0, 0, 0)}


def test_is_sudoku_subspace_examples():
    f3 = make_field(3)
    good = subspace_from(f3, fx.LINEAR9_GENERATORS)
    assert is_sudoku_subspace(good)
    bad = subspace_from(f3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert not is_sudoku_subspace(bad)
    f2 = make_field(2)
    g = subspace_from(f2, [(1, 0, 1, 1), (0, 1, 0, 1)])
    expected = all(set_trivial(g, w) for w in axis_spaces(f2))
    assert is_sudoku_subspace(g) == expected


def two_dim_subspaces(f):
    """Every 2-dimensional subspace of F^4, by brute enumeration."""
    vecs = [v for v in itertools.product(range(f.q), repeat=4) if any(v)]
    seen = {}
    for v1, v2 in itertools.combinations(vecs, 2):
        g = subspace_from(f, [v1, v2])
        if g.dim == 2:
            seen[g.basis] = g
    return list(seen.values())


def test_is_sudoku_subspace_matches_set_oracle():
    for q in (2, 3):
        f = make_field(q)
        subspaces = two_dim_subspaces(f)
        assert len(subspaces) == (q**4 - 1) * (q**4 - q) // ((q**2 - 1) * (q**2 - q))
        for g in subspaces:
            expected = all(set_trivial(g, w) for w in axis_spaces(f))
            assert is_sudoku_subspace(g) == expected


def test_is_sudoku_subspace_dimension_error():
    f = make_field(3)
    with pytest.raises(DimensionError):
        is_sudoku_subspace(subspace_from(f, [(1, 0, 0, 0)]))


def test_flag_from_data_builds_expected_spaces():
    f = make_field(3)
    assert FlagData(f, 1, 1, 0, 1, 2).spaces() == (
        subspace_from(f, [(1, 0, 1, 0), (0, 1, 1, 1)]),
        subspace_from(f, [(1, 0, 1, 0), (0, 1, 1, 1), (0, 1, 0, 2)]),
    )
    assert FlagData(f, 2, 1, 0, 2, 1).spaces() == (
        subspace_from(f, [(1, 0, 2, 0), (0, 1, 1, 2)]),
        subspace_from(f, [(1, 0, 2, 0), (0, 1, 1, 2), (0, 1, 0, 1)]),
    )


def minors(flag):
    """The 2x2 minors of (phi, psi) on coordinates (1,2), (3,4) and (2,4)."""
    phi, psi = flag.phi, flag.psi
    return tuple(
        det(flag.field, ((phi[i], phi[j]), (psi[i], psi[j])))
        for i, j in ((0, 1), (2, 3), (1, 3))
    )


def check_closed_form(datum):
    # The closed form is the pair nullspace solves for, and its minors are
    # the ones the docstring of FlagData.flag() derives.
    f, a, b, c, d = datum.field, datum.a, datum.b, datum.c, datum.d
    flag = datum.flag()
    assert flag == flag_from_spaces(*datum.spaces())
    assert minors(flag) == (f.sub(f.mul(b, c), f.mul(a, d)), f.neg(1), b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_flag_closed_form_matches_nullspace_on_every_datum(q):
    f = make_field(q)
    checked = 0
    for entries in itertools.product(range(q), repeat=5):
        try:
            datum = FlagData(f, *entries)
        except InvalidFlagData:
            continue
        check_closed_form(datum)
        checked += 1
    # b and beta nonzero, and (a, c, d) off the q^2 singular choices.
    assert checked == (q - 1) ** 2 * (q**3 - q**2)


@pytest.mark.parametrize("q", [9, 11, 13, 16, 17, 25, 27, 256])
def test_flag_closed_form_matches_nullspace_on_random_data(q):
    f = make_field(q)
    rng = random.Random(q * 29)
    for _ in range(50):
        check_closed_form(fx.random_flag_data(f, rng))


def test_flag_from_data_rejects_each_violation_distinctly():
    f = make_field(3)
    with pytest.raises(InvalidFlagData, match="b of the matrix datum is zero"):
        FlagData(f, 1, 0, 0, 1, 1)
    with pytest.raises(InvalidFlagData, match="beta is zero"):
        FlagData(f, 1, 1, 0, 1, 0)
    with pytest.raises(InvalidFlagData, match="singular"):
        FlagData(f, 1, 1, 1, 1, 1)


def test_subspace_gamma_roundtrip():
    f = make_field(5)
    symbol_space, _ = FlagData(f, 2, 3, 1, 3, 2).spaces()
    assert subspace_gamma(symbol_space) == ((2, 3), (1, 3))
    assert subspace_gamma(subspace_from(f, [(0, 0, 1, 0), (0, 0, 0, 1)])) is None


def test_generate_flag_demo_radix_and_bijection():
    f = make_field(3)
    vecs = fx.FLAG_DEMO_VECTORS
    flag = flag_from_spaces(subspace_from(f, vecs[:2]), subspace_from(f, vecs))
    got = generate(flag)
    assert radix(got) == fx.FLAG_DEMO_RADIX
    mapping = fx.symbol_bijection(got, fx.FLAG_DEMO_GRID)
    assert mapping is not None
    assert fx.preserves_radix_classes(mapping, 3)


def test_generate_is_sudoku():
    f = make_field(2)
    flag = FlagData(f, 1, 1, 0, 1, 1).flag()
    got = generate(flag)
    assert len(symbol_rows(got)) == 4 and all(len(row) == 4 for row in symbol_rows(got))
    assert is_sudoku(got)
    assert subsquares_latin(radix(got))


def test_radix_examples():
    assert radix(fx.RADIX_DEMO_M) == fx.RADIX_DEMO_R
    zeros = fx.grid(2, [[0] * 4] * 4)
    assert radix(zeros) == zeros
    m1_radix = radix(fx.PAIR3_M1)
    assert symbol_rows(m1_radix)[0] == (0, 1, 2, 2, 0, 1, 1, 2, 0)


def test_composite_examples():
    assert composite(fx.COMPOSITE_R1, fx.COMPOSITE_R2) == fx.COMPOSITE_N12
    r = fx.COMPOSITE_R1
    diag = composite(r, r)
    assert all(x in (0, 3) for row in symbol_rows(diag) for x in row)
    n = composite(radix(fx.PAIR3_M1), radix(fx.PAIR3_M2))
    assert is_sudoku(n)


def test_composite_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        composite(fx.COMPOSITE_R1, fx.FLAG_DEMO_RADIX)


@pytest.mark.parametrize(
    "radix,units",
    [
        (bytes(16), bytes(15)),  # a short units table
        (bytes(17), bytes(16)),  # a long radix table
        (bytes(16), bytearray(16)),
        (list(bytes(16)), bytes(16)),
        (bytes(16), tuple(bytes(16))),
    ],
    ids=["short", "long", "bytearray", "list", "tuple"],
)
def test_grid_refuses_a_table_that_is_not_q4_bytes(radix, units):
    with pytest.raises(DimensionMismatch, match="q\\^4 = 16 cells"):
        Grid(2, radix, units)
    assert symbol_rows(Grid(2, bytes(16), bytes(16))) == ((0,) * 4,) * 4


def test_predicate_examples():
    assert are_orthogonal(fx.ORTHO4_A, fx.ORTHO4_B)
    assert not are_orthogonal(fx.ORTHO4_A, fx.ORTHO4_A)
    m1, m2 = fx.PAIR3_M1, fx.PAIR3_M2
    assert is_sudoku(m1) and is_sudoku(m2)
    assert are_orthogonal(m1, m2)
    assert subsquares_latin(radix(m1)) and subsquares_latin(radix(m2))
    assert large_rows_orthogonal(radix(m1), m2)
    assert large_cols_orthogonal(radix(m1), m2)
    assert large_rows_orthogonal(radix(m2), m1)
    assert large_cols_orthogonal(radix(m2), m1)


def test_latin_vs_sudoku():
    latin_not_sudoku = fx.grid(2, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    assert is_latin(latin_not_sudoku)
    assert not is_sudoku(latin_not_sudoku)
    assert not is_latin(fx.RADIX_DEMO_R)


def test_relabeling_invariance():
    rng = random.Random(5)
    for _ in range(10):
        perm = list(range(9))
        rng.shuffle(perm)
        mapping = dict(enumerate(perm))
        a = fx.relabel(fx.PAIR3_M1, mapping)
        assert is_latin(a) == is_latin(fx.PAIR3_M1)
        assert is_sudoku(a) == is_sudoku(fx.PAIR3_M1)
        assert are_orthogonal(a, fx.PAIR3_M2) == are_orthogonal(fx.PAIR3_M1, fx.PAIR3_M2)
    # A grid that is not sudoku stays not sudoku under relabeling.
    broken_rows = [list(r) for r in symbol_rows(fx.PAIR3_M1)]
    broken_rows[0][0], broken_rows[0][1] = broken_rows[0][1], broken_rows[0][0]
    broken = fx.grid(3, broken_rows)
    assert not is_sudoku(broken)
    perm = list(range(9))
    rng.shuffle(perm)
    assert not is_sudoku(fx.relabel(broken, dict(enumerate(perm))))


def test_composite_symbol_classes_are_intersection_cosets():
    # When the composite of two orthogonal flag solutions is a sudoku
    # solution, each of its symbol classes is a coset of the radix-space
    # intersection.
    f = make_field(3)
    z1 = FlagData(f, 2, 1, 0, 2, 1)
    z2 = FlagData(f, 1, 1, 0, 1, 2)
    m1, m2 = generate(z1.flag()), generate(z2.flag())
    n = composite(radix(m1), radix(m2))
    assert is_sudoku(n)
    meet = intersect(z1.spaces()[1], z2.spaces()[1])
    members = set(span_elements(meet))
    locations: dict[int, list[tuple[int, ...]]] = {}
    for x1 in range(3):
        for x2 in range(3):
            for x3 in range(3):
                for x4 in range(3):
                    sym = symbol_rows(n)[3 * x1 + x2][3 * x3 + x4]
                    locations.setdefault(sym, []).append((x1, x2, x3, x4))
    for sym, locs in locations.items():
        base = locs[0]
        diffs = {
            tuple(f.sub(a, b) for a, b in zip(loc, base)) for loc in locs
        }
        assert diffs == members


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_generate_postconditions_random_flags(q):
    # Symbol classes are cosets of the symbol space and radix classes cosets
    # of the radix space, under the canonical labeling.
    f = make_field(q)
    rng = random.Random(q * 19)
    for _ in range(5):
        datum = fx.random_flag_data(f, rng)
        got = generate(datum.flag())
        assert is_sudoku(got)
        symbol_space, radix_space = datum.spaces()
        sym_members = set(span_elements(symbol_space))
        radix_members = set(span_elements(radix_space))
        by_symbol: dict[int, list] = {}
        for x1 in range(q):
            for x2 in range(q):
                for x3 in range(q):
                    for x4 in range(q):
                        sym = symbol_rows(got)[q * x1 + x2][q * x3 + x4]
                        by_symbol.setdefault(sym, []).append((x1, x2, x3, x4))
        for sym, locs in by_symbol.items():
            base = locs[0]
            diffs = {tuple(f.sub(a, b) for a, b in zip(loc, base)) for loc in locs}
            assert diffs == sym_members
        for digit in range(q):
            locs = [
                loc for sym, ls in by_symbol.items() if sym // q == digit for loc in ls
            ]
            base = locs[0]
            diffs = {tuple(f.sub(a, b) for a, b in zip(loc, base)) for loc in locs}
            assert diffs == radix_members


def exhaustive_flags(q):
    """Every flag as its spaces (g, V), g a sudoku subspace, by brute enumeration."""
    f = make_field(q)
    vecs = [v for v in itertools.product(range(q), repeat=4) if any(v)]
    for g in two_dim_subspaces(f):
        if not is_sudoku_subspace(g):
            continue
        seen_v = {}
        for v3 in vecs:
            if contains(g, v3):
                continue
            vspace = subspace_from(f, list(g.basis) + [v3])
            seen_v[vspace.basis] = vspace
        for vspace in seen_v.values():
            yield g, vspace


@pytest.mark.parametrize("q", [2, 3])
def test_flag_form_characterization_exhaustive(q):
    # Flags passing the latin-radix-subsquares test are exactly those of the
    # canonical datum family, and every canonical datum passes.
    f = make_field(q)
    canonical = set()
    for a, b, c, d, beta in itertools.product(range(q), repeat=5):
        try:
            datum = FlagData(f, a, b, c, d, beta)
        except InvalidFlagData:
            continue
        canonical.add(datum.spaces())
        got = generate(datum.flag())
        assert is_sudoku(got)
        assert subsquares_latin(radix(got))
    checked = 0
    for spaces in exhaustive_flags(q):
        holds = subsquares_latin(radix(generate(flag_from_spaces(*spaces))))
        assert holds == (spaces in canonical)
        checked += 1
    assert checked > len(canonical) / 2  # the enumeration covered real ground


def brute_force_labeling(symbol_space, radix_space):
    """``generate``'s labeling read off the cosets' elements.

    Radix digits number the radix-space cosets by their minimal points; within
    a radix coset, units digits number its symbol-space cosets the same way.
    """
    f = symbol_space.field
    q = f.q
    points = list(itertools.product(range(q), repeat=4))  # minimal first
    radix_members = span_elements(radix_space)
    sym_members = span_elements(symbol_space)
    radix_at: dict = {}
    radix_count = 0
    for p in points:
        if p not in radix_at:
            radix_at.update((vec_add(f, p, w), radix_count) for w in radix_members)
            radix_count += 1
    symbol_at: dict = {}
    units_used = [0] * q
    for p in points:
        if p not in symbol_at:
            digit = radix_at[p]
            symbol = q * digit + units_used[digit]
            units_used[digit] += 1
            symbol_at.update((vec_add(f, p, w), symbol) for w in sym_members)
    side = q * q
    return tuple(
        tuple(symbol_at[(r // q, r % q, c // q, c % q)] for c in range(side))
        for r in range(side)
    )


@pytest.mark.parametrize("q", [2, 3])
def test_generate_matches_brute_force_labeling_on_every_flag(q):
    flags = list(exhaustive_flags(q))
    assert flags
    for spaces in flags:
        assert symbol_rows(generate(flag_from_spaces(*spaces))) == brute_force_labeling(*spaces)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 17])
def test_generate_matches_brute_force_labeling_random_flags(q):
    # q = 16 is characteristic 2; q = 17 the first order whose symbols pass 255.
    f = make_field(q)
    rng = random.Random(q * 23)
    for _ in range(3 if q < 16 else 1):
        datum = fx.random_flag_data(f, rng)
        assert symbol_rows(generate(datum.flag())) == brute_force_labeling(*datum.spaces())
