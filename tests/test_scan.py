"""The exactly-once scanners against a plain dict-based reference scan.

The reference is the straightforward loop: walk the cells of a block in
order, remember where each key was first seen, and stop at the first key
seen twice.  Witnesses must agree string for string on seeded single-cell
corruptions, so the order of the scan is pinned as well as the verdict.
The subjects are the packed row-set scanner of ``sudoku_ooa.ooa`` and the
pair scanner of the grid oracle (``grid_oracle``).
"""

from __future__ import annotations

import random

import pytest

import fixtures as fx
from grid_oracle import (
    composite,
    large_cols_orthogonal,
    large_rows_orthogonal,
    radix,
    repeated_pair,
    symbol_rows,
)
from sudoku_ooa import (
    BandedArray,
    Grid,
    VerifyResult,
    are_orthogonal,
    assemble,
    construct_family,
    duplicate_finder,
    generate,
    top_justified_sets,
    verify,
)
from sudoku_ooa.ooa import _slot
from sudoku_ooa.sudoku import first_repeat

ORDERS = (3, 4, 5)


# -- reference scanner ---------------------------------------------------------


def ref_scan(cells, key):
    """(key, first cell, second cell) of the first key met twice, or None."""
    seen = {}
    for cell in cells:
        k = key(cell)
        if k in seen:
            return k, seen[k], cell
        seen[k] = cell
    return None


def ref_duplicate(array, rowset):
    rows = [array.row(b, d) for b, d in sorted(rowset)]
    return ref_scan(range(array.q**4), lambda m: tuple(r[m] for r in rows))


def ref_pair_witness(a, b, block):
    q, side = a.q, a.q * a.q
    if block == "grid":
        blocks = [[(r, c) for r in range(side) for c in range(side)]]
    elif block == "row":
        blocks = [[(r, c) for r in range(q * k, q * k + q) for c in range(side)] for k in range(q)]
    else:
        blocks = [[(r, c) for c in range(q * k, q * k + q) for r in range(side)] for k in range(q)]
    rows_a, rows_b = symbol_rows(a), symbol_rows(b)
    for k, cells in enumerate(blocks):
        hit = ref_scan(cells, lambda rc: (rows_a[rc[0]][rc[1]], rows_b[rc[0]][rc[1]]))
        if hit is not None:
            where = "" if block == "grid" else f"large {block} {k}: "
            return f"{where}pair {hit[0]} at cells {hit[1]} and {hit[2]}"
    return None


# -- inputs ----------------------------------------------------------------------


def family_grids(q):
    """Two mutually orthogonal sudoku grids of order q^2."""
    if q == 3:  # construct_family stops at s = 3, one grid, for q = 3
        return [fx.PAIR3_M1, fx.PAIR3_M2]
    return [generate(d.flag()) for d in construct_family(q, 4).data]


def location_array(q):
    """The two location bands alone: s = 2, one row set, and column m's key is m."""
    rows = tuple(tuple(m // q**e % q for m in range(q**4)) for e in (3, 2, 1, 0))
    return BandedArray(q, 2, rows)


def corrupt_cell(grid: Grid, rng: random.Random) -> Grid:
    rows = [list(row) for row in symbol_rows(grid)]
    side = grid.q * grid.q
    r, c = rng.randrange(side), rng.randrange(side)
    rows[r][c] = rng.choice([x for x in range(side) if x != rows[r][c]])
    return fx.grid(grid.q, rows)


def corrupt_array(array: BandedArray, rng: random.Random) -> BandedArray:
    rows = [list(row) for row in array.rows]
    r, m = rng.randrange(len(rows)), rng.randrange(array.q**4)
    rows[r][m] = rng.choice([x for x in range(array.q) if x != rows[r][m]])
    return BandedArray(array.q, array.s, tuple(tuple(row) for row in rows))


# -- tests -----------------------------------------------------------------------


def test_first_repeat_edge_cases():
    assert first_repeat([]) is None
    assert first_repeat([7]) is None
    assert first_repeat([1, 2, 3]) is None
    assert first_repeat([1, 2, 2, 1]) == (1, 2)
    assert first_repeat([5, 5]) == (0, 1)
    assert first_repeat([(0, 1), (1, 0), (0, 1)]) == (0, 2)


@pytest.mark.parametrize("q", ORDERS)
def test_pair_witnesses_match_reference(q):
    rng = random.Random(100 + q)
    g1, g2 = family_grids(q)
    pool = [g1, g2, radix(g1), radix(g2), composite(radix(g1), radix(g2))]
    witnesses = 0
    for _ in range(12):
        a, b = rng.sample(pool, 2)
        which = rng.randrange(3)  # corrupt a, b, or neither
        if which == 0:
            a = corrupt_cell(a, rng)
        elif which == 1:
            b = corrupt_cell(b, rng)
        for block, predicate in (
            ("grid", are_orthogonal),
            ("row", large_rows_orthogonal),
            ("column", large_cols_orthogonal),
        ):
            want = ref_pair_witness(a, b, block)
            assert repeated_pair(a, b, block) == want
            assert predicate(a, b) is (want is None)
            witnesses += want is not None
    assert witnesses >= 12


@pytest.mark.parametrize("q", ORDERS)
def test_row_set_witnesses_match_reference(q):
    rng = random.Random(200 + q)
    array = assemble(family_grids(q))
    for _ in range(4):
        broken = corrupt_array(array, rng)
        first_fail = None
        first_duplicate = duplicate_finder(broken)
        for rowset in top_justified_sets(broken.s):
            want = ref_duplicate(broken, rowset)
            assert first_duplicate(rowset) == want
            if want is not None and first_fail is None:
                first_fail = VerifyResult(False, rowset, *want)
        assert first_fail is not None
        assert verify(broken, "ooa").witness_text() == first_fail.witness_text()


# q = 4 and 16 have the largest 1- and 2-byte keys (255 and 65535); q = 5 and
# 17 are the first orders whose keys need 2 and 4 bytes.
@pytest.mark.parametrize("q,width", [(2, 1), (4, 1), (5, 2), (16, 2), (17, 4)])
def test_packed_scan_at_slot_width_boundaries(q, width):
    assert _slot(q)[1] == width
    rng = random.Random(300 + q)
    array = location_array(q)
    (rowset,) = top_justified_sets(2)
    assert duplicate_finder(array)(rowset) is None
    assert verify(array, "ooa") == VerifyResult(True)
    for _ in range(3):
        broken = corrupt_array(array, rng)
        want = ref_duplicate(broken, rowset)
        assert want is not None
        assert duplicate_finder(broken)(rowset) == want
        assert verify(broken, "ooa") == VerifyResult(False, rowset, *want)
