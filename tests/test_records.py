"""The program's value types: frozen named tuples, three of them checked.

Each record is a ``collections.namedtuple`` subclass with no instance
attributes beyond its fields, so it is immutable and hashable, and, being a
tuple, it iterates over its fields and equals a plain tuple of them.  Grid,
FlagData and BandedArray check their fields when they are made, and
``_make``, so also ``_replace``, goes through the same check.
"""

from __future__ import annotations

import pytest

import fixtures as fx
from grid_oracle import symbol_rows
from sudoku_ooa import (
    BandedArray,
    ConditionReport,
    ConditionResult,
    DimensionMismatch,
    FamilySpec,
    Flag,
    FlagData,
    Grid,
    InvalidFlagData,
    MalformedArray,
    Subspace,
    VerifyResult,
    make_field,
)

F3 = make_field(3)
DATUM = FlagData(F3, 2, 1, 0, 2, 1)
OTHER_DATUM = FlagData(F3, 1, 1, 0, 1, 2)
ROWS = tuple(bytes(row) for row in fx.OOA_4_3_2_2)
RESULT = ConditionResult("ii.b", (1, 2), "FAIL", "large-row matrix is singular")
ROWSET = frozenset({(1, 1), (1, 2), (2, 1), (3, 1)})

# Type: (field names, defaults, the fields of one record, those of another).
RECORDS = {
    BandedArray: (("q", "s", "rows"), {}, (2, 3, ROWS), (2, 3, ROWS[::-1])),
    VerifyResult: (
        ("ok", "row_set", "duplicate", "first_column", "second_column"),
        {"row_set": None, "duplicate": None, "first_column": None, "second_column": None},
        (False, ROWSET, (0, 1, 0, 1), 3, 7),
        (True, None, None, None, None),
    ),
    Grid: (
        ("q", "radix", "units"), {}, tuple(fx.PAIR3_M1), tuple(fx.PAIR3_M2)
    ),
    Flag: (("field", "phi", "psi"), {}, tuple(DATUM.flag()), tuple(OTHER_DATUM.flag())),
    FlagData: (("field", "a", "b", "c", "d", "beta"), {}, tuple(DATUM), tuple(OTHER_DATUM)),
    Subspace: (("field", "basis"), {}, tuple(DATUM.spaces()[0]), tuple(DATUM.spaces()[1])),
    ConditionResult: (
        ("label", "indices", "status", "witness"),
        {"witness": None},
        tuple(RESULT),
        ("orth", (1, 2), "PASS", None),
    ),
    ConditionReport: (("entries",), {}, ((RESULT,),), ((),)),
    FamilySpec: (("method", "data"), {}, ("big", (DATUM,)), ("substrong", (DATUM,))),
}
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_is_made_by_position_and_by_keyword(cls):
    fields, defaults, values, _ = RECORDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(*values)
    assert cls(**dict(zip(fields, values))) == record
    assert [getattr(record, name) for name in fields] == list(values)
    # Only the fields without a default are needed.
    required = fields[: len(fields) - len(defaults)]
    bare = cls(**{name: getattr(record, name) for name in required})
    assert [getattr(bare, name) for name in fields[len(required) :]] == list(defaults.values())
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_equality_and_hash_are_its_fields(cls):
    _, _, values, other = RECORDS[cls]
    record, same, different = cls(*values), cls(*values), cls(*other)
    assert record == same and hash(record) == hash(same)
    assert record != different
    assert {record: "found"}[same] == "found"
    # The one semantic change from frozen dataclasses: a record is a tuple.
    assert record == tuple(values) and tuple(record) == tuple(values)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_record_refuses_assignment(cls):
    fields, _, values, other = RECORDS[cls]
    record = cls(*values)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], other[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)


def test_grid_oracle_caches_equal_grids_once():
    # symbol_rows memoizes on the grid, which works through its hash.
    rebuilt = Grid(3, bytes(fx.PAIR3_M1.radix), bytes(fx.PAIR3_M1.units))
    assert symbol_rows(rebuilt) is symbol_rows(fx.PAIR3_M1)


def test_replace_checks_a_grid_again():
    grid = fx.PAIR3_M1
    with pytest.raises(DimensionMismatch, match=r"^units table must be bytes of q\^4 = 81 cells$"):
        grid._replace(units=grid.units[:-1])
    with pytest.raises(DimensionMismatch, match=r"^radix table must be bytes"):
        grid._replace(radix=list(grid.radix))
    with pytest.raises(DimensionMismatch, match=r"^radix table must be bytes of q\^4 = 16 cells$"):
        grid._replace(q=2)
    with pytest.raises(DimensionMismatch):
        Grid._make([3, grid.radix, b""])
    assert grid._replace(units=grid.radix) == Grid(3, grid.radix, grid.radix)


def test_replace_checks_a_flag_datum_again():
    with pytest.raises(InvalidFlagData, match="^upper-right entry b of the matrix datum is zero$"):
        DATUM._replace(b=0)
    with pytest.raises(InvalidFlagData, match="^entry 3 outside field of order 3$"):
        DATUM._replace(beta=3)
    with pytest.raises(InvalidFlagData, match="^matrix datum is singular$"):
        DATUM._replace(a=0, d=0)
    with pytest.raises(InvalidFlagData):
        FlagData._make([F3, 0, 0, 0, 0, 0])
    assert DATUM._replace(beta=2) == FlagData(F3, 2, 1, 0, 2, 2)


def test_replace_checks_a_banded_array_again():
    array = BandedArray(2, 3, fx.OOA_4_3_2_2)
    assert all(type(row) is bytes for row in array.rows)
    with pytest.raises(MalformedArray, match="^expected 6 rows, got 5$"):
        array._replace(rows=array.rows[:-1])
    with pytest.raises(MalformedArray, match=r"^row 0: entry outside 0\.\.1$"):
        array._replace(rows=(b"\2" * 16, *array.rows[1:]))
    with pytest.raises(MalformedArray, match="^need q >= 2 and s >= 2, got q=2, s=1$"):
        array._replace(s=1)
    with pytest.raises(MalformedArray):
        BandedArray._make([2, 3, array.rows[:2]])
    # Rows given as lists come back as bytes, as they do from the constructor.
    rebuilt = array._replace(rows=[list(row) for row in array.rows])
    assert rebuilt == array and all(type(row) is bytes for row in rebuilt.rows)
