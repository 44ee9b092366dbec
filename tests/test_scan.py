"""The exactly-once scanners against a plain dict-based reference scan.

The reference is the straightforward loop: walk the cells of a block in
order, remember where each key was first seen, and stop at the first key
seen twice.  Witnesses must agree string for string on seeded single-cell
corruptions, so the order of the scan is pinned as well as the verdict.
The subjects are the row-set scanner of ``sudoku_ooa.ooa`` and the pair
scanner of the grid oracle (``grid_oracle``).

The row-set scanner first tries a byte-table certificate (q^2 <= 256) and
hands every set it does not certify to the packed-key scan.  Both paths are
checked against the reference on every top-justified set: the certificate
must never pass a set that the reference fails, on paper arrays, on seeded
one-cell corruptions in every row, on copies whose columns are rotated by
one, on random arrays and on a 3-label set.  With the packed-key scan made
to raise, the paper's families must still verify and pass the
combinatorial check, so the certificate cannot quietly stop applying.
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
    check_combinatorial,
    construct_family,
    duplicate_finder,
    generate,
    ooa,
    row_indices,
    top_justified_sets,
    verify,
)
from sudoku_ooa.families import max_guaranteed_s
from sudoku_ooa.ooa import _certifier
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
    """The first repeat of a set of (band, depth) labels, over its rows in label order."""
    rows = [array.rows[2 * (b - 1) + d - 1] for b, d in sorted(rowset)]
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


def corrupt_array(array: BandedArray, rng: random.Random, r=None) -> BandedArray:
    """A copy with one cell of row r (a random row if None) changed."""
    rows = [list(row) for row in array.rows]
    r = rng.randrange(len(rows)) if r is None else r
    m = rng.randrange(array.q**4)
    rows[r][m] = rng.choice([x for x in range(array.q) if x != rows[r][m]])
    return BandedArray(array.q, array.s, tuple(tuple(row) for row in rows))


def paper_array(q, s=None):
    """The array of the paper's family at s (max_s if None)."""
    family = construct_family(q, s or max_guaranteed_s(q))
    return assemble(generate(d.flag()) for d in family.data)


def rotated(array: BandedArray) -> BandedArray:
    """A copy whose column m is the array's column m + 1 (mod q^4)."""
    return array._replace(rows=tuple(row[1:] + row[:1] for row in array.rows))


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
            assert first_duplicate(row_indices(rowset)) == want
            if want is not None and first_fail is None:
                first_fail = VerifyResult(False, rowset, *want)
        assert first_fail is not None
        assert verify(broken, "ooa").witness_text() == first_fail.witness_text()


# Keys take 2-byte slots where the certificate runs (q^2 <= 256) and 4-byte
# slots past it.  q = 16 has the largest 2-byte key, 65535; q = 17 is the
# first order without the certificate.
@pytest.mark.parametrize("q,width", [(2, 2), (4, 2), (5, 2), (16, 2), (17, 4)])
def test_packed_scan_at_slot_width_boundaries(monkeypatch, q, width):
    built, keyed, widths = [], [], []

    def viewed(data):  # the packed keys' bytes, q^4 slots
        widths.append(len(data) // q**4)
        return memoryview(data)

    monkeypatch.setattr(ooa, "_certifier", lambda arr: built.append(arr) or _certifier(arr))
    monkeypatch.setattr(ooa, "first_repeat", lambda keys: keyed.append(keys) or first_repeat(keys))
    monkeypatch.setattr(ooa, "memoryview", viewed, raising=False)
    rng = random.Random(300 + q)
    array = location_array(q)
    (rowset,) = top_justified_sets(2)
    rows = row_indices(rowset)
    assert duplicate_finder(array)(rows) is None
    assert verify(array, "ooa") == VerifyResult(True)
    assert len(built) == (2 if width == 2 else 0)  # the finder's and verify's
    for _ in range(3):
        broken = corrupt_array(array, rng)
        want = ref_duplicate(broken, rowset)
        assert want is not None
        keyed.clear()
        assert duplicate_finder(broken)(rows) == want
        # Column m's key is its 4-tuple in base q: no slot carried.
        (keys,) = keyed
        columns = zip(*(broken.rows[r] for r in rows))
        assert keys == [((a * q + b) * q + c) * q + d for a, b, c, d in columns]
        assert verify(broken, "ooa") == VerifyResult(False, rowset, *want)
    assert widths and set(widths) == {width}


def certificate_cases(q, s):
    """(name, array) of the paper array at s, a one-cell corruption of each
    of its rows, its column-rotated copy and a random array."""
    rng = random.Random(400 + q)
    array = paper_array(q, s)
    yield "paper", array
    for r in range(2 * s):
        yield f"row {r} corrupted", corrupt_array(array, rng, r)
    yield "rotated", rotated(array)
    rows = tuple(bytes(rng.randrange(q) for _ in range(q**4)) for _ in range(2 * s))
    yield "random", BandedArray(q, s, rows)


# q = 16 is the largest order the certificate takes, q = 17 the first it
# leaves to the packed-key scan; there the reference walks up to 83,521
# columns a set, so those arrays have s = 3.
@pytest.mark.parametrize("q", [2, 3, 4, 5, 16, 17])
def test_certificate_against_reference(monkeypatch, q):
    s = min(4 if q < 16 else 3, max_guaranteed_s(q))
    sets = top_justified_sets(s)
    three = frozenset(sorted(sets[-1])[1:])  # 3 labels
    if q > 16:
        monkeypatch.setattr(ooa, "_certifier", None)  # never called
    certified_sets = {}
    for name, array in certificate_cases(q, s):
        first_duplicate = duplicate_finder(array)
        certified = _certifier(array) if q <= 16 else lambda rows: False
        for rowset in [*sets, three]:
            want = ref_duplicate(array, rowset)
            rows = row_indices(rowset)
            assert first_duplicate(rows) == want, (name, sorted(rowset))
            if certified(rows):
                assert want is None, (name, sorted(rowset))
                certified_sets[name] = certified_sets.get(name, 0) + 1
        assert ref_duplicate(array, three) is not None
    if q <= 16:
        # Every set of a paper array is certified, the 3-label set never is,
        # and each corruption fails the sets that hold its row.
        assert certified_sets["paper"] == len(sets)
        for r in range(2 * s):
            assert certified_sets.get(f"row {r} corrupted", 0) < len(sets)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_paper_families_pass_without_the_packed_scan(monkeypatch, q):
    # One process, so that no worker runs the real scan.
    monkeypatch.setattr(ooa, "_cpus", lambda: 1)
    array = paper_array(q)
    rotated_array = rotated(array)
    assert verify(rotated_array, "ooa") == VerifyResult(True)  # through the packed scan

    def packed_scan(keys):
        raise AssertionError("a set of a paper array reached the packed-key scan")

    monkeypatch.setattr(ooa, "first_repeat", packed_scan)
    for mode in ("ooa", "sa"):
        assert verify(array, mode) == VerifyResult(True)
    report = check_combinatorial(array)
    assert {entry.status for entry in report.entries} <= {"PASS", "N/A"}
    with pytest.raises(AssertionError, match="packed-key scan"):
        verify(rotated_array, "ooa")
