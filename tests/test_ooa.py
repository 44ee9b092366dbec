"""Array assembly, row-set combinatorics, and exhaustive verification."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

import fixtures as fx
from grid_oracle import symbol_rows
from sudoku_ooa import (
    ArrayTooLarge,
    BandedArray,
    DimensionMismatch,
    Grid,
    GridCountZero,
    MalformedArray,
    NotTopJustified,
    assemble,
    classify,
    construct_family,
    duplicate_finder,
    generate,
    make_field,
    max_guaranteed_s,
    top_justified_sets,
    verify,
)
from sudoku_ooa.ooa import MAX_ENTRIES, MAX_SETS, check_size
from sudoku_ooa.sudoku import FlagData


# Row shapes a caller may pass.  "mix" is bytes rows with one tuple among
# them, as a copy with one row edited is.
ROW_SHAPES = {
    "tuple": lambda rows: tuple(map(tuple, rows)),
    "list": lambda rows: [list(r) for r in rows],
    "bytes": lambda rows: tuple(map(bytes, rows)),
    "mix": lambda rows: (bytes(rows[0]), tuple(rows[1]), *map(bytes, rows[2:])),
}


def assert_byte_rows(arr):
    assert type(arr.rows) is tuple
    assert all(type(row) is bytes for row in arr.rows)


def banded(q, rows, shape="tuple"):
    arr = BandedArray(q, len(rows) // 2, ROW_SHAPES[shape](rows))
    assert_byte_rows(arr)
    return arr


def test_assemble_matches_known_array():
    arr = assemble([fx.SA42_M1, fx.SA42_M2])
    assert_byte_rows(arr)
    assert arr.q == 2 and arr.s == 4
    assert [list(r) for r in arr.rows] == fx.SA42_ARRAY
    # Column for location (0,0,1,1) carries the two symbols in base 2.
    col = tuple(row[3] for row in arr.rows)
    assert col == (0, 0, 1, 1, 1, 0, 1, 1)


def test_assemble_single_grid_shape():
    f = make_field(2)
    grid = generate(FlagData(f, 1, 1, 0, 1, 1).flag())
    arr = assemble([grid])
    assert arr.s == 3
    assert len(arr.rows) == 6
    assert all(len(r) == 16 for r in arr.rows)


@pytest.mark.parametrize("q", [16, 17])
def test_assemble_digits_match_arithmetic(q):
    # q = 16 is the largest order whose symbols fit in a byte; at q = 17
    # every grid holds symbols above 255.
    grid = generate(FlagData(make_field(q), 1, 1, 0, 1, 1).flag())
    cells = [sym for row in symbol_rows(grid) for sym in row]
    locations = [bytes(m // q**e % q for m in range(q**4)) for e in (3, 2, 1, 0)]
    digits = [bytes(sym // q for sym in cells), bytes(sym % q for sym in cells)]
    assert assemble(iter([grid])).rows == tuple(locations + digits)


def test_assemble_errors():
    with pytest.raises(GridCountZero):
        assemble([])
    with pytest.raises(GridCountZero):
        assemble(iter([]))
    with pytest.raises(DimensionMismatch):
        assemble([fx.SA42_M1, fx.PAIR3_M1])
    with pytest.raises(DimensionMismatch):
        assemble(iter([fx.SA42_M1, fx.PAIR3_M1]))


def test_assemble_reads_its_grids_one_at_a_time():
    # While the next grid is made, only the one read last may still be held,
    # so `construct` never keeps every grid beside the array.  A grid is a
    # tuple, which takes no weak reference, so a subclass counts its frees.
    made, freed = [], []

    class CountedGrid(Grid):
        __slots__ = ()

        def __del__(self):
            freed.append(self.q)

    def grids():
        for _ in range(4):
            assert len(freed) >= len(made) - 1
            grid = CountedGrid(3, fx.PAIR3_M1.radix, fx.PAIR3_M1.units)
            made.append(grid.q)
            yield grid
            del grid

    assert assemble(grids()) == assemble([fx.PAIR3_M1] * 4)


def test_assemble_at_q27_holds_little_beyond_the_array():
    # A grid is its two digit tables, and assemble takes them as the array's
    # rows: beyond the array, the peak holds one grid's tables in the making.
    q = 27
    data = construct_family(q, max_guaranteed_s(q)).data
    tracemalloc.start()
    try:
        array = assemble(generate(d.flag()) for d in data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert array.s == 15
    assert peak <= sum(map(len, array.rows)) + 4 * q**4
    grid = generate(data[0].flag())
    assert type(grid.radix) is bytes and type(grid.units) is bytes
    assert len(grid.radix) == len(grid.units) == q**4


@pytest.mark.parametrize("q", [3, 7])
def test_assemble_refuses_symbols_outside_the_grid_alphabet(q):
    # A cell's symbol is outside 0..q^2-1 when one of its digits is outside
    # 0..q-1.  A digit is a byte, so that is q..255, and BandedArray refuses
    # it in whichever of the four digit rows it sits: rows 4 and 5 are the
    # first grid's radix and units rows, rows 6 and 7 the second's.
    grid = fx.PAIR3_M1 if q == 3 else generate(FlagData(make_field(7), 1, 1, 0, 1, 1).flag())
    cell = 1 * q * q + 2  # row 1, column 2
    for digit in (q, 255):
        for depth, which in enumerate(("radix", "units")):
            table = bytearray(getattr(grid, which))
            table[cell] = digit
            bad = grid._replace(**{which: bytes(table)})
            for grids, row in (([bad, grid], 4 + depth), ([grid, bad], 6 + depth)):
                expected = rf"^row {row}: entry outside 0\.\.{q - 1}$"
                with pytest.raises(MalformedArray, match=expected):
                    assemble(iter(grids))
    # A table one cell short never reaches assemble: the grid refuses it.
    with pytest.raises(DimensionMismatch, match=rf"units table must be bytes of q\^4 = {q**4}"):
        grid._replace(units=grid.units[:-1])


def test_top_justified_counts():
    assert len(top_justified_sets(2)) == 1
    assert len(top_justified_sets(3)) == 6
    assert len(top_justified_sets(4)) == 19


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
def test_top_justified_against_subset_oracle(s):
    # Independent oracle: filter all 4-row subsets by the closure property.
    all_rows = [(band, depth) for band in range(1, s + 1) for depth in (1, 2)]
    expected = set()
    for combo in itertools.combinations(all_rows, 4):
        chosen = set(combo)
        if all((b, 1) in chosen for b, d in chosen if d == 2):
            expected.add(frozenset(chosen))
    got = top_justified_sets(s)
    assert len(got) == len(set(got))
    assert set(got) == expected


def depth_vector_order(s):
    """The sets in order of their band depth vectors in {0,1,2}^s with sum 4,
    by maximum depth and then lexicographically: the order the verifier has
    always scanned in, and so the order its first failing set is named in."""
    vectors = [d for d in itertools.product((0, 1, 2), repeat=s) if sum(d) == 4]
    vectors.sort(key=lambda depths: (max(depths), depths))
    return [
        frozenset((band, depth) for band, d in enumerate(depths, 1) for depth in range(1, d + 1))
        for depths in vectors
    ]


@pytest.mark.parametrize("s", range(2, 11))
def test_top_justified_order_matches_depth_vector_enumeration(s):
    assert top_justified_sets(s) == depth_vector_order(s)


def test_classify_examples():
    assert classify(frozenset({(1, 1), (2, 1), (3, 1), (4, 1)})) == "2a"
    assert classify(frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})) == "sudoku-TJ"
    assert classify(frozenset({(1, 1), (3, 1), (3, 2), (4, 1)})) == "2e"
    assert classify(frozenset({(1, 1), (2, 1), (2, 2), (3, 1)})) == "1a"
    assert classify(frozenset({(3, 1), (4, 1), (5, 1), (6, 1)})) == "4a"
    assert classify(frozenset({(3, 1), (4, 1), (5, 1), (5, 2)})) == "3c"


def test_classify_rejects_non_top_justified():
    with pytest.raises(NotTopJustified):
        classify(frozenset({(1, 2), (2, 1), (3, 1), (4, 1)}))
    with pytest.raises(NotTopJustified):
        classify(frozenset({(1, 1), (2, 1), (3, 1)}))


@pytest.mark.parametrize("s", range(2, 9))
def test_classify_total_and_single_valued(s):
    labels = {
        "sudoku-TJ", "1a", "1b", "2a", "2b", "2c", "2d", "2e",
        "3a", "3b", "3c", "4a",
    }
    for rowset in top_justified_sets(s):
        assert classify(rowset) in labels


def test_verify_known_ooa():
    arr = banded(2, fx.OOA_4_3_2_2)
    assert verify(arr, "ooa").ok
    assert verify(arr, "sa").ok


def test_verify_sa42_array():
    arr = banded(2, fx.SA42_ARRAY)
    assert verify(arr, "sa").ok
    result = verify(arr, "ooa")
    assert not result.ok
    # Shallowest-first enumeration reports the four-top-rows set, whose
    # first duplicated tuple sits in the leftmost two columns.
    assert result.row_set == frozenset({(1, 1), (2, 1), (3, 1), (4, 1)})
    assert result.duplicate == (0, 0, 0, 0)
    assert (result.first_column, result.second_column) == (0, 1)
    # A deeper set fails too.
    deeper = frozenset({(1, 1), (3, 1), (4, 1), (4, 2)})
    assert duplicate_finder(arr)(deeper) == ((0, 1, 1, 0), 2, 4)
    # Every row shape gives the same array and the same verdicts.
    for shape in ROW_SHAPES:
        same = banded(2, fx.SA42_ARRAY, shape)
        assert same == arr
        assert verify(same, "ooa") == result
        assert verify(same, "sa").ok


def test_verify_assembled_pair3():
    arr = assemble([fx.PAIR3_M1, fx.PAIR3_M2])
    assert verify(arr, "ooa").ok
    assert [list(row[:18]) for row in arr.rows] == fx.PAIR3_PREFIX


def test_verify_ooa_implies_sa():
    for rows in (fx.OOA_4_3_2_2, fx.SA42_ARRAY):
        arr = banded(2, rows)
        if verify(arr, "ooa").ok:
            assert verify(arr, "sa").ok


@pytest.mark.parametrize("q", [2, 3])
def test_sa_equivalence_with_orthogonal_sudoku_grids(q):
    # Assembled arrays pass the sa check exactly when the grids are pairwise
    # orthogonal sudoku solutions; corrupting a grid breaks it.
    from grid_oracle import is_sudoku
    from sudoku_ooa import are_orthogonal, construct_family

    fam = construct_family(q, 3 if q == 2 else 4)
    grids = [generate(d.flag()) for d in fam.data]
    assert all(is_sudoku(g) for g in grids)
    assert all(
        are_orthogonal(a, b) for a, b in itertools.combinations(grids, 2)
    )
    assert verify(assemble(grids), "sa").ok
    # Swap two cells of the first grid: no longer a sudoku solution.
    rows = [list(r) for r in symbol_rows(grids[0])]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    broken = fx.grid(q, rows)
    assert not is_sudoku(broken)
    assert not verify(assemble([broken] + grids[1:]), "sa").ok
    # A latin-but-wrong-subsquares grid also fails through the sa tier alone.
    if q == 2:
        latin_not_sudoku = fx.grid(
            2, [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        )
        assert not verify(assemble([latin_not_sudoku]), "sa").ok


def test_verify_rejects_unknown_mode():
    arr = banded(2, fx.OOA_4_3_2_2)
    with pytest.raises(ValueError, match="unknown mode"):
        verify(arr, "strict")


def test_verify_witness_text():
    arr = banded(2, fx.SA42_ARRAY)
    result = verify(arr, "ooa")
    text = result.witness_text()
    assert "columns 0 and 1" in text
    assert "0000" in text
    assert "(1,1),(2,1),(3,1),(4,1)" in text


def test_banded_array_validation():
    with pytest.raises(MalformedArray, match=r"^expected 6 rows, got 5$"):
        BandedArray(2, 3, tuple(tuple([0] * 16) for _ in range(5)))
    with pytest.raises(MalformedArray, match=r"^row 0: expected 16 columns, got 15$"):
        BandedArray(2, 3, tuple(tuple([0] * 15) for _ in range(6)))
    # An entry bytes() refuses (negative, 256 and above) gets the same message
    # as one in q..255, whatever the row type.
    for shape in (bytes, bytearray, tuple, list):
        for bad in (2, 255, -1, 256, 1000):
            if shape in (bytes, bytearray) and not 0 <= bad <= 255:
                continue  # not a possible entry of these types
            rows = [[0] * 16 for _ in range(6)]
            rows[2][5] = bad
            with pytest.raises(MalformedArray, match=r"^row 2: entry outside 0\.\.1$"):
                BandedArray(2, 3, tuple(shape(r) for r in rows))


def test_size_budget_admits_every_guaranteed_order_up_to_27():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        check_size(q, max_guaranteed_s(q))
    assert 2 * 15 * 27**4 <= MAX_ENTRIES < 2 * 16 * 29**4
    for q, s in ((29, 16), (32, 9), (2, MAX_ENTRIES + 1), (MAX_ENTRIES + 1, 3)):
        with pytest.raises(ArrayTooLarge):
            check_size(q, s)


def test_row_set_budget_admits_s_up_to_34():
    # The entry budget alone admits s = 128 at q = 16 and s = 524,288 at
    # q = 2; the row-set budget stops both at 34, with every guaranteed s
    # and s = q + 1 at q = 23 inside it.
    assert MAX_SETS == 2**16
    assert len(top_justified_sets(34)) == 64889 <= MAX_SETS < len(top_justified_sets(35)) == 72590
    check_size(23, 24)
    for q in (2, 16):
        check_size(q, 34)
        # s = 128 is the largest s the entry budget admits at q = 16: about 5 GB of sets.
        for s, sets in ((35, 72590), (128, 11700256)):
            message = f"^s={s} gives {sets} top-justified row sets; a scan is limited to 65536$"
            with pytest.raises(ArrayTooLarge, match=message):
                check_size(q, s)
    # An s past the entry budget is refused by it, before any set is counted.
    with pytest.raises(ArrayTooLarge, match="entries$"):
        check_size(2, 2 * MAX_ENTRIES)
