"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
criterion lines as they print).
"""

from __future__ import annotations

import functools
import itertools
import random
import time

import pytest

from composite_oracle import HypothesisViolated, gamma_composite
import fixtures as fx
import grid_oracle
from sudoku_ooa import (
    BandedArray,
    FlagData,
    InvalidFlagData,
    NotMutuallyOrthogonal,
    SOutOfRange,
    assemble,
    big_family,
    check_algebraic,
    check_combinatorial,
    construct_family,
    det,
    duplicate_finder,
    generate,
    intersect,
    make_field,
    max_guaranteed_s,
    select_S,
    subspace_gamma,
    substrong_family,
    top_justified_sets,
    verify,
)
from sudoku_ooa.families import SUBSTRONG_ALPHA
from sudoku_ooa.linalg import mat_sub
from sudoku_ooa.strong import large_col_matrix, large_row_matrix

SWEEP_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return wrapper

    return deco


@criterion(1, "construction sweep")
def test_criterion_1_construction_sweep():
    t0 = time.perf_counter()
    cases = 0
    for q in SWEEP_ORDERS:
        for s in range(3, max_guaranteed_s(q) + 1):
            fam = construct_family(q, s)
            grids = [generate(d.flag()) for d in fam.data]
            arr = assemble(grids)
            assert arr.rows and len(arr.rows) == 2 * s
            result = verify(arr, "ooa")
            assert result.ok, f"q={q} s={s}: {result.witness_text()}"
            cases += 1
    elapsed = time.perf_counter() - t0
    assert cases == 18
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"


@criterion(2, "known array fixtures")
def test_criterion_2_fixture_arrays():
    ooa = BandedArray(2, 3, tuple(tuple(r) for r in fx.OOA_4_3_2_2))
    assert verify(ooa, "ooa").ok

    sa = BandedArray(2, 4, tuple(tuple(r) for r in fx.SA42_ARRAY))
    assert verify(sa, "sa").ok
    result = verify(sa, "ooa")
    assert not result.ok
    # The witness lies inside the four-top-rows set.
    four_top = frozenset({(1, 1), (2, 1), (3, 1), (4, 1)})
    assert result.row_set == four_top
    hit = duplicate_finder(sa)(four_top)
    assert hit == (result.duplicate, result.first_column, result.second_column)
    cols = [
        tuple(sa.row(b, d)[m] for b, d in sorted(four_top))
        for m in (result.first_column, result.second_column)
    ]
    assert cols[0] == cols[1] == result.duplicate


@criterion(3, "strongly orthogonal pair over GF(3)")
def test_criterion_3_pair3_reproduction():
    f = make_field(3)
    fam = construct_family(3, 4)
    assert [(d.gamma, d.beta) for d in fam.data] == list(fx.PAIR3_DATA)
    grids = [generate(d.flag()) for d in fam.data]
    references = (fx.PAIR3_M1, fx.PAIR3_M2)
    relabeled = []
    for got, ref in zip(grids, references):
        mapping = fx.symbol_bijection(got, ref)
        assert mapping is not None, "no per-location symbol bijection"
        assert fx.preserves_radix_classes(mapping, 3)
        relabeled.append(fx.relabel(got, mapping))
    assert tuple(relabeled) == references
    arr = assemble(relabeled)
    prefix = [list(row[:18]) for row in arr.rows]
    assert prefix == fx.PAIR3_PREFIX


def _statuses(report):
    return [(e.label, e.indices, e.status) for e in report.entries]


def _triangle_case(data):
    """Agreement of the three oracles, and the grid oracle, on one family.

    The algebraic checker, the combinatorial checker and the exhaustive
    array check form the triangle; the grid-level reference oracle, which
    reads each condition off radix and composite grids, is the fourth vertex
    and keeps the combinatorial checker independent of ``verify``'s scanner.
    Returns ("compared", passed) when the checkers ran, or ("rejected",
    False) when the family is not mutually orthogonal, in which case every
    checker must raise and the array must fail.
    """
    grids = [generate(d.flag()) for d in data]
    array = assemble(grids)
    array_ok = verify(array, "ooa").ok
    try:
        alg = check_algebraic(data)
    except NotMutuallyOrthogonal:
        with pytest.raises(NotMutuallyOrthogonal):
            check_combinatorial(array)
        with pytest.raises(NotMutuallyOrthogonal):
            grid_oracle.condition_report(grids)
        assert not array_ok
        return "rejected", False
    comb = check_combinatorial(array)
    assert _statuses(alg) == _statuses(comb), "checker disagreement"
    assert _statuses(grid_oracle.condition_report(grids)) == _statuses(comb), (
        "grid oracle disagreement"
    )
    assert alg.passed == array_ok
    return "compared", alg.passed


@criterion(4, "oracle triangle")
def test_criterion_4_oracle_triangle():
    for q in SWEEP_ORDERS:
        for s in range(3, max_guaranteed_s(q) + 1):
            fam = construct_family(q, s)
            outcome, passed = _triangle_case(list(fam.data))
            assert outcome == "compared" and passed
    for q in (3, 4, 5, 7, 8, 9):
        f = make_field(q)
        rng = random.Random(4242 * q)
        compared = 0
        verdicts = set()
        for size in itertools.cycle((1, 2, 2, 3, 3, 4)):
            data = [fx.random_flag_data(f, rng) for _ in range(size)]
            outcome, passed = _triangle_case(data)
            if outcome == "compared":
                compared += 1
                verdicts.add(passed)
            if compared >= 50:
                break
        assert verdicts == {True, False}  # the sample exercised both outcomes


@criterion(5, "closed-form composite matrix")
def test_criterion_5_gamma_closed_form():
    for q in (3, 5, 7):
        f = make_field(q)
        rng = random.Random(5150 + q)
        compared = 0
        while compared < 100:
            d1 = fx.random_flag_data(f, rng)
            d2 = fx.random_flag_data(f, rng)
            try:
                closed = gamma_composite(d1, d2)
            except HypothesisViolated:
                denom = f.sub(
                    f.mul(d1.b, f.sub(d2.d, d2.beta)), f.mul(d2.b, f.sub(d1.d, d1.beta))
                )
                assert d1.beta == d2.beta or denom == 0
                continue
            meet = intersect(d1.spaces()[1], d2.spaces()[1])
            assert subspace_gamma(meet) == closed
            compared += 1

    for q in (7, 8, 9):
        f = make_field(q)
        members = select_S(q)
        fam = big_family(q, members)
        by_value = {d.beta: d for d in fam.data}
        for i, j in itertools.combinations(members, 2):
            gm = gamma_composite(by_value[i], by_value[j])
            assert det(f, gm) == f.mul(i, j)
            one_ij = f.add(1, f.mul(i, j))
            for k in members:
                if k in (i, j):
                    continue
                diff = mat_sub(f, gm, by_value[k].gamma)
                num = f.mul(f.mul(f.add(i, j), f.sub(k, i)), f.sub(j, k))
                assert det(f, diff) == f.mul(num, f.inv(f.mul(k, one_ij)))
            for k, l in itertools.combinations(members, 2):
                if {k, l} & {i, j}:
                    continue
                gm2 = gamma_composite(by_value[k], by_value[l])
                num = f.mul(
                    f.mul(f.sub(i, k), f.sub(j, k)), f.mul(f.sub(i, l), f.sub(j, l))
                )
                den = f.mul(one_ij, f.add(1, f.mul(k, l)))
                assert det(f, mat_sub(f, gm, gm2)) == f.mul(num, f.inv(den))


@criterion(6, "substrong family of size q-1")
def test_criterion_6_substrong_maximality():
    for q in (3, 4, 5, 7, 8, 9):
        fam = substrong_family(q)
        assert len(fam.data) == q - 1
        report = check_algebraic(fam.data)
        for entry in report.entries:
            if entry.label in ("i", "ii.a", "ii.b", "ii.c"):
                assert entry.status == "PASS", (q, entry)
        f = fam.data[0].field
        alpha = SUBSTRONG_ALPHA
        inv_alpha = f.inv(alpha)
        for di, dj in itertools.permutations(fam.data, 2):
            i, j = di.beta, dj.beta
            assert det(f, large_row_matrix(di, dj)) == f.mul(alpha, f.sub(i, j))
            assert det(f, large_col_matrix(di, dj)) == f.mul(
                inv_alpha, f.sub(f.inv(i), f.inv(j))
            )


@criterion(7, "size bound at q=2")
def test_criterion_7_q2_negative():
    t0 = time.perf_counter()
    with pytest.raises(SOutOfRange):
        construct_family(2, 4)
    f = make_field(2)
    all_data = []
    for a, b, c, d, beta in itertools.product(range(2), repeat=5):
        try:
            all_data.append(FlagData(f, a, b, c, d, beta))
        except InvalidFlagData:
            continue
    assert len(all_data) == 4
    for d1, d2 in itertools.combinations(all_data, 2):
        try:
            report = check_algebraic([d1, d2])
        except NotMutuallyOrthogonal:
            continue
        assert not report.passed, (d1, d2)
    assert time.perf_counter() - t0 < 1.0


@criterion(8, "top-justified combinatorics")
def test_criterion_8_row_set_combinatorics():
    def oracle_count(s):
        all_rows = [(band, depth) for band in range(1, s + 1) for depth in (1, 2)]
        count = 0
        for combo in itertools.combinations(all_rows, 4):
            chosen = set(combo)
            if all((b, 1) in chosen for b, d in chosen if d == 2):
                count += 1
        return count

    assert len(top_justified_sets(3)) == 6 == oracle_count(3)
    assert len(top_justified_sets(4)) == 19 == oracle_count(4)
    from sudoku_ooa import classify

    valid = {
        "sudoku-TJ", "1a", "1b", "2a", "2b", "2c", "2d", "2e", "3a", "3b", "3c", "4a",
    }
    for s in range(2, 9):
        sets = top_justified_sets(s)
        assert len(sets) == oracle_count(s)
        for rowset in sets:
            assert classify(rowset) in valid
    # s = 18 is q = 32's max_s, where a 3^s enumeration of depth vectors stalls.
    assert len(top_justified_sets(18)) == oracle_count(18)
