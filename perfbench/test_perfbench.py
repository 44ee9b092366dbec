"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from inputs import (  # noqa: E402
    corrupt,
    corruptions,
    predict_fail_line,
    random_family,
    top_justified_order,
)
from sudoku_ooa import BandedArray, assemble, are_orthogonal, construct_family  # noqa: E402
from sudoku_ooa import generate, top_justified_sets, verify  # noqa: E402
from tracing import Span, layer_totals, self_times  # noqa: E402


@pytest.mark.parametrize("s", [3, 4, 5, 8])
def test_scan_order_matches_program(s):
    assert top_justified_order(s) == [tuple(sorted(rs)) for rs in top_justified_sets(s)]


@pytest.mark.parametrize("q,s", [(5, 4), (7, 5)])
def test_fail_line_prediction_matches_verify(q, s):
    fam = construct_family(q, s)
    array = assemble([generate(d.flag()) for d in fam.data])
    rows = array.rows
    rng = random.Random(q)
    cases = corruptions(rng, q, s, rows) + corruptions(rng, q, s, rows)
    assert sorted({band for band, _, _ in cases}) == list(range(3, s + 1))
    for band, column, digit in cases:
        bad = BandedArray(q, s, corrupt(rows, band, column, digit))
        result = verify(bad, "ooa")
        assert f"FAIL {result.witness_text()}" == predict_fail_line(rows, s, band, column, digit)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a", 3.0, 6.0, 0, 0),  # overlaps its sibling: counted once
        Span(3, "leaf", 2.0, 3.0, 1, 0),
        Span(4, "leaf", 8.0, 12.0, 0, 0),  # clipped to its parent's end
        Span(5, "root", 20.0, 21.0, None, 1),
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0, 5: 1.0}
    totals = layer_totals(spans)
    assert totals["root"] == (2, 11.0, 4.0)
    assert totals["a"] == (2, 6.0, 5.0)
    assert totals["leaf"] == (2, 5.0, 5.0)


@pytest.mark.parametrize("q,size", [(7, 3), (8, 4)])
def test_random_families_are_mutually_orthogonal(q, size):
    families = [random_family(random.Random(seed), q, size) for seed in (1, 2)]
    assert families[0] != families[1]
    for fam in families:
        assert len(fam) == size
        grids = [generate(d.flag()) for d in fam]
        assert all(are_orthogonal(a, b) for a, b in combinations(grids, 2))
