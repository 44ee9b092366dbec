"""Condition checkers and the closed-form composite datum."""

from __future__ import annotations

import ast
import itertools
import random
import re
from pathlib import Path

import pytest

from composite_oracle import HypothesisViolated, gamma_composite
import fixtures as fx
import sudoku_ooa
from sudoku_ooa import (
    BandedArray,
    FlagData,
    NotMutuallyOrthogonal,
    array_from_text,
    array_to_text,
    assemble,
    check_algebraic,
    check_combinatorial,
    classify,
    condition_index_tuples,
    construct_family,
    det,
    generate,
    intersect,
    make_field,
    subspace_gamma,
    substrong_family,
    top_justified_sets,
)
from sudoku_ooa.families import SUBSTRONG_ALPHA
from sudoku_ooa.strong import CONDITION_LABELS, ROW_SETS


def statuses(report) -> dict:
    """Status by (label, indices), as the report lists them."""
    return {(e.label, e.indices): e.status for e in report.entries}


def pair3_data():
    f = make_field(3)
    return [FlagData(f, 2, 1, 0, 2, 1), FlagData(f, 1, 1, 0, 1, 2)]


def _imports_strong(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.rpartition(".")[2] == "strong":
                return True
            if module in ("", "sudoku_ooa") and any(a.name == "strong" for a in node.names):
                return True
        if isinstance(node, ast.Import) and any(a.name == "sudoku_ooa.strong" for a in node.names):
            return True
    return False


def test_only_cli_and_init_import_strong():
    # The checkers are a leaf: the flag datum and its rule live in sudoku.
    package = Path(sudoku_ooa.__file__).parent
    importers = {
        path.stem
        for path in package.glob("*.py")
        if _imports_strong(ast.parse(path.read_text(), str(path)))
    }
    assert importers == {"cli", "__init__"}


def test_gamma_composite_example_gf5():
    f = make_field(5)
    d1 = FlagData(f, 1, 1, 0, 1, 1)  # member 1 of the s-family over S
    d2 = FlagData(f, 2, 1, 0, 3, 2)
    gm = gamma_composite(d1, d2)
    assert gm == ((2, 4), (0, 1))
    assert det(f, gm) == f.mul(1, 2)


def test_gamma_composite_constant_for_substrong_family():
    for q in (3, 5):
        fam = substrong_family(q)
        f = fam.data[0].field
        alpha = SUBSTRONG_ALPHA
        one_minus = f.sub(1, alpha)
        expected = (
            (0, f.inv(one_minus)),
            (f.mul(f.inv(alpha), one_minus), 0),
        )
        for d1, d2 in itertools.combinations(fam.data, 2):
            assert gamma_composite(d1, d2) == expected


def test_gamma_composite_hypothesis_violations():
    f = make_field(5)
    d1 = FlagData(f, 1, 1, 0, 1, 1)
    with pytest.raises(HypothesisViolated, match="beta"):
        gamma_composite(d1, FlagData(f, 2, 1, 0, 3, 1))
    # b_i(d_j-beta_j) = b_j(d_i-beta_i): take d = beta on both sides.
    with pytest.raises(HypothesisViolated, match="zero"):
        gamma_composite(FlagData(f, 1, 1, 0, 2, 2), FlagData(f, 1, 1, 0, 3, 3))


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_gamma_composite_matches_intersection(q):
    f = make_field(q)
    rng = random.Random(q * 101)
    done = 0
    while done < 100:
        d1 = fx.random_flag_data(f, rng)
        d2 = fx.random_flag_data(f, rng)
        try:
            closed = gamma_composite(d1, d2)
        except HypothesisViolated:
            continue
        meet = intersect(d1.spaces()[1], d2.spaces()[1])
        assert meet.dim == 2
        assert subspace_gamma(meet) == closed
        done += 1


def test_check_algebraic_pair3_all_pass():
    report = check_algebraic(pair3_data())
    assert report.passed
    assert statuses(report)[("ii.a", (1, 2))] == "PASS"
    assert statuses(report)[("iii.a", ())] == "N/A"
    assert statuses(report)[("iv", ())] == "N/A"


def test_pair3_intersection_datum():
    d1, d2 = pair3_data()
    meet = intersect(d1.spaces()[1], d2.spaces()[1])
    assert meet.dim == 2
    assert subspace_gamma(meet) == ((0, 2), (1, 0))
    assert gamma_composite(d1, d2) == ((0, 2), (1, 0))


def test_check_algebraic_big_family_gf7():
    f = make_field(7)
    data = [FlagData(f, i, 1, 0, f.inv(i), i) for i in (1, 3, 5)]
    report = check_algebraic(data)
    assert report.passed
    # det(composite(i,j) - member k) follows the (i+j)(k-i)(j-k)/(k(1+ij)) form.
    by_value = {1: data[0], 3: data[1], 5: data[2]}
    for i, j in itertools.combinations((1, 3, 5), 2):
        gm = gamma_composite(by_value[i], by_value[j])
        for k in (1, 3, 5):
            if k in (i, j):
                continue
            diff = tuple(
                tuple(f.sub(x, y) for x, y in zip(ra, rb))
                for ra, rb in zip(gm, by_value[k].gamma)
            )
            num = f.mul(f.mul(f.add(i, j), f.sub(k, i)), f.sub(j, k))
            den = f.mul(k, f.add(1, f.mul(i, j)))
            assert det(f, diff) == f.mul(num, f.inv(den))


def test_check_algebraic_single_datum():
    f = make_field(4)
    report = check_algebraic([FlagData(f, 1, 1, 0, 1, 1)])
    assert report.passed
    assert statuses(report)[("i", (1,))] == "PASS"
    for label in ("ii.a", "ii.b", "ii.c", "iii.a", "iii.b", "iii.c", "iv"):
        assert statuses(report)[(label, ())] == "N/A"


def test_check_algebraic_not_mutually_orthogonal():
    f = make_field(3)
    d = FlagData(f, 1, 1, 0, 1, 1)
    with pytest.raises(NotMutuallyOrthogonal, match="1 and 2"):
        check_algebraic([d, FlagData(f, 1, 1, 0, 1, 2)])


def test_check_combinatorial_pair3():
    grids = [generate(d.flag()) for d in pair3_data()]
    report = check_combinatorial(assemble(grids))
    assert report.passed


def test_check_combinatorial_sa42_pair_fails_condition_i():
    report = check_combinatorial(assemble([fx.SA42_M1, fx.SA42_M2]))
    assert not report.passed
    assert statuses(report)[("i", (1,))] == "FAIL"
    assert statuses(report)[("i", (2,))] == "FAIL"
    # Failing entries carry a locating witness.
    for entry in report.entries:
        if entry.status == "FAIL":
            assert entry.witness
    pair_fails = [
        e for e in report.entries
        if e.status == "FAIL" and e.label in ("ii.a", "ii.b", "ii.c")
    ]
    if pair_fails:
        assert any("cell" in e.witness or "subsquare" in e.witness for e in pair_fails)


def test_check_combinatorial_single_gf2():
    f = make_field(2)
    grid = generate(FlagData(f, 1, 1, 0, 1, 1).flag())
    report = check_combinatorial(assemble([grid]))
    assert report.passed


def test_check_combinatorial_rejects_non_sudoku():
    rows = [list(r) for r in fx.PAIR3_M1.rows]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    with pytest.raises(NotMutuallyOrthogonal, match="not a sudoku solution"):
        check_combinatorial(assemble([fx.grid(3, rows)]))


def test_check_combinatorial_rejects_non_orthogonal_pair():
    with pytest.raises(NotMutuallyOrthogonal, match="1 and 2"):
        check_combinatorial(assemble([fx.PAIR3_M1, fx.PAIR3_M1]))


@pytest.mark.parametrize("bad", [-1, 9, 81])
def test_check_combinatorial_refuses_symbol_outside_alphabet(bad):
    rows = [list(r) for r in fx.PAIR3_M1.rows]
    rows[4][7] = bad
    with pytest.raises(ValueError):
        check_combinatorial(assemble([fx.grid(3, rows), fx.PAIR3_M2]))


_WITNESS = re.compile(
    r"rows ((?:\(\d+,\d\),?){4}) repeat tuple (\d{4}) at cells"
    r" \((\d+), (\d+)\) and \((\d+), (\d+)\)"
)


def test_combinatorial_witness_names_a_repeat_of_the_condition_row_sets():
    grids = [fx.SA42_M1, fx.SA42_M2]
    array = assemble(grids)
    fails = [e for e in check_combinatorial(array).entries if e.status == "FAIL"]
    assert {e.label for e in fails} >= {"i"}
    for e in fails:
        match = _WITNESS.fullmatch(e.witness)
        assert match, e.witness
        labels = [tuple(map(int, lab.split(","))) for lab in re.findall(r"\((\d+,\d)\)", match[1])]
        assert set(labels) in ROW_SETS[e.label](*e.indices)
        r1, c1, r2, c2 = map(int, match.groups()[2:])
        assert (r1, c1) < (r2, c2)
        for r, c in ((r1, c1), (r2, c2)):
            column = r * array.q**2 + c
            assert "".join(str(array.row(b, d)[column]) for b, d in labels) == match[2]


# The paper's form (ooa.classify) of each set a ROW_SETS entry lists, in order.
ROW_SET_FORMS = {
    "sudoku": ("sudoku-TJ",) * 3,
    "orth": ("sudoku-TJ",),
    "i": ("1b", "1a"),
    "ii.a": ("2b", "2c", "2a"),
    "ii.b": ("2e",),
    "ii.c": ("2d",),
    "iii.a": ("3a",),
    "iii.b": ("3b",),
    "iii.c": ("3c",),
    "iv": ("4a",),
}


@pytest.mark.parametrize("s", range(3, 17))  # s = 15 is max_s at q = 27
def test_row_sets_are_the_top_justified_sets_of_the_array(s):
    # Strong orthogonality <=> OOA: the conditions' row sets, preconditions
    # included, are every top-justified set except the four location rows.
    # check_combinatorial looks each of them up in the scan of those sets.
    n = s - 2
    index_tuples = {
        "sudoku": [(t,) for t in range(1, n + 1)],
        "orth": list(itertools.combinations(range(1, n + 1), 2)),
    }
    index_tuples.update((label, condition_index_tuples(label, n)) for label in CONDITION_LABELS)
    assert set(index_tuples) == set(ROW_SETS) == set(ROW_SET_FORMS)
    union = set()
    for label, tuples in index_tuples.items():
        for idx in tuples:
            sets = [frozenset(rs) for rs in ROW_SETS[label](*idx)]
            assert tuple(classify(rs) for rs in sets) == ROW_SET_FORMS[label], (label, idx)
            union.update(sets)
    locations = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
    assert union == set(top_justified_sets(s)) - {locations}


def test_checkers_refuse_a_family_without_members():
    with pytest.raises(ValueError, match="at least one member"):
        check_algebraic([])
    locations_only = BandedArray(3, 2, assemble([fx.PAIR3_M1]).rows[:4])
    with pytest.raises(ValueError, match="at least one member"):
        check_combinatorial(locations_only)


@pytest.mark.parametrize("grids", [[fx.SA42_M1, fx.SA42_M2], [fx.PAIR3_M1, fx.PAIR3_M2]])
def test_check_combinatorial_reads_an_array_back_from_text(grids):
    # The checker reads only the array, so a written and re-read copy of it
    # gives the same report, witnesses included.
    array = assemble(grids)
    read_back = array_from_text(array_to_text(array))
    assert check_combinatorial(read_back) == check_combinatorial(array)


def test_check_combinatorial_rejects_shape_mismatch():
    from sudoku_ooa import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        check_combinatorial(assemble([fx.PAIR3_M1, fx.SA42_M1]))


def agreement_case(field, data):
    """Both checkers agree verdict-for-verdict on one family."""
    alg = check_algebraic(data)
    comb = check_combinatorial(assemble([generate(d.flag()) for d in data]))
    assert [(e.label, e.indices, e.status) for e in alg.entries] == [
        (e.label, e.indices, e.status) for e in comb.entries
    ]
    return alg, comb


@pytest.mark.parametrize("q", [3, 4, 5])
def test_checker_agreement_random_families(q):
    f = make_field(q)
    rng = random.Random(977 * q)
    found = 0
    for size in itertools.cycle((1, 2, 3, 4)):
        data = fx.random_orthogonal_family(f, size, rng, tries=60)
        if data is None:
            continue
        agreement_case(f, data)
        found += 1
        if found >= 12:
            break


def test_checker_agreement_without_composite_datum():
    # Members 1 and 2 share (d-beta)/b, so their composite space has no
    # matrix datum; conditions iii.c and iv must still agree through the
    # intersection fallback.
    f = make_field(3)
    data = [
        FlagData(f, 0, 1, 1, 1, 1),
        FlagData(f, 1, 1, 0, 2, 2),
        FlagData(f, 0, 2, 2, 1, 1),
        FlagData(f, 1, 2, 1, 0, 1),
    ]
    with pytest.raises(HypothesisViolated):
        gamma_composite(data[0], data[1])
    meet = intersect(data[0].spaces()[1], data[1].spaces()[1])
    assert meet.dim == 2
    assert subspace_gamma(meet) is None
    for size in (3, 4):
        alg, comb = agreement_case(f, data[:size])
        assert statuses(alg)[("ii.a", (1, 2))] == "FAIL"
        assert not alg.passed


def test_labeling_invariance_of_combinatorial_checker():
    rng = random.Random(31)
    grids = [generate(d.flag()) for d in pair3_data()]
    base = check_combinatorial(assemble(grids))
    for _ in range(5):
        relabeled = [
            fx.relabel(g, fx.random_radix_preserving_bijection(3, rng)) for g in grids
        ]
        report = check_combinatorial(assemble(relabeled))
        assert [(e.label, e.indices, e.status) for e in report.entries] == [
            (e.label, e.indices, e.status) for e in base.entries
        ]
    # Also on a family that fails a condition.
    fail_base = check_combinatorial(assemble([fx.SA42_M1, fx.SA42_M2]))
    for _ in range(5):
        relabeled = [
            fx.relabel(g, fx.random_radix_preserving_bijection(2, rng))
            for g in (fx.SA42_M1, fx.SA42_M2)
        ]
        report = check_combinatorial(assemble(relabeled))
        assert [(e.label, e.indices, e.status) for e in report.entries] == [
            (e.label, e.indices, e.status) for e in fail_base.entries
        ]


def test_condition_index_tuples_counts():
    assert condition_index_tuples("i", 3) == [(1,), (2,), (3,)]
    assert condition_index_tuples("ii.a", 3) == [(1, 2), (1, 3), (2, 3)]
    assert len(condition_index_tuples("ii.b", 3)) == 6
    assert condition_index_tuples("iii.c", 3) == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    assert condition_index_tuples("iv", 4) == [(1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3)]


# The smallest s at which each condition applies; below it the label is N/A.
ACTIVATION = {"i": 3, "ii.a": 4, "ii.b": 4, "ii.c": 4, "iii.a": 5, "iii.b": 5, "iii.c": 5, "iv": 6}


@pytest.mark.parametrize(
    "level,q,s",
    [("algebraic", 11, s) for s in range(3, 8)] + [("combinatorial", 8, s) for s in range(3, 7)],
)
def test_report_skeleton_follows_activation_table(level, q, s):
    data = construct_family(q, s).data
    if level == "algebraic":
        report = check_algebraic(data)
    else:
        report = check_combinatorial(assemble([generate(d.flag()) for d in data]))
    expected = []
    for label, first_s in ACTIVATION.items():
        if s < first_s:
            expected.append((label, (), True))
        else:
            expected.extend((label, idx, False) for idx in condition_index_tuples(label, s - 2))
    got = [(e.label, e.indices, e.status == "N/A") for e in report.entries if e.label != "orth"]
    assert got == expected


def test_report_serialization_format():
    report = check_algebraic(pair3_data())
    lines = report.to_text().splitlines()
    assert lines[0] == "orth 1,2 PASS"
    assert "i 1 PASS" in lines
    assert "iii.a - N/A" in lines
    for line in lines:
        label, indices, status = line.split()[:3]
        assert status in ("PASS", "FAIL", "N/A")
