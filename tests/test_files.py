"""Text formats round-trip and reject malformed input with line numbers.

No command reads grids, so grid text is read back through the reference
reader ``row_oracle.grid_from_text``, which shares the header and line rules
of ``sudoku_ooa.files``.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

import fixtures as fx
import row_oracle
from row_oracle import grid_from_text
from sudoku_ooa import (
    BandedArray,
    FlagData,
    Grid,
    ParseError,
    array_from_text,
    array_to_text,
    assemble,
    construct_family,
    files,
    flags_from_text,
    flags_to_text,
    generate,
    grid_to_text,
    make_field,
)


def test_grid_roundtrip():
    text = grid_to_text(fx.PAIR3_M1)
    assert text.splitlines()[0] == "sudoku q=3"
    assert grid_from_text(text) == fx.PAIR3_M1


def test_grid_text_prints_symbols_outside_the_alphabet_as_str():
    # A Grid does not check its digits; a cell with one at q or above is
    # printed as str(q*radix + units), never as another symbol's name.
    radix, units = bytearray(fx.SA42_M1.radix), bytearray(fx.SA42_M1.units)
    radix[4:8], units[4:8] = [2, 0, 255, 1], [0, 7, 255, 1]
    line = grid_to_text(Grid(2, bytes(radix), bytes(units))).splitlines()[2]
    assert line.split() == ["4", "7", "765", "3"]


def test_grid_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        grid_from_text("")
    with pytest.raises(ParseError, match="header"):
        grid_from_text("latin q=3\n")
    with pytest.raises(ParseError, match="line 3"):
        grid_from_text("sudoku q=2\n0 1 2 3\n0 1 2\n2 3 0 1\n1 0 3 2\n")
    with pytest.raises(ParseError, match=r"^line 5: entry 9 outside 0\.\.3$"):
        grid_from_text("sudoku q=2\n0 1 2 3\n2 3 0 1\n1 0 3 2\n3 2 1 9\n")
    with pytest.raises(ParseError, match="expected 4 grid lines"):
        grid_from_text("sudoku q=2\n0 1 2 3\n2 3 0 1\n")


def test_flags_roundtrip():
    f = make_field(7)
    data = [FlagData(f, 1, 1, 0, 1, 1), FlagData(f, 3, 1, 0, 5, 3)]
    text = flags_to_text(data)
    assert text.splitlines()[0] == "flags q=7 count=2"
    assert flags_from_text(text) == data


def test_flags_parse_validates_data():
    with pytest.raises(ParseError, match="line 2: upper-right entry b"):
        flags_from_text("flags q=3 count=1\n1 0 0 1 1\n")
    with pytest.raises(ParseError, match="line 2"):
        flags_from_text("flags q=3 count=1\n1 1 0\n")
    with pytest.raises(ParseError, match="missing header"):
        flags_from_text("flags q=3\n1 1 0 1 1\n")


def test_flags_parse_errors_carry_datum_line():
    with pytest.raises(ParseError, match="line 3: entry 5 outside field of order 3"):
        flags_from_text("flags q=3 count=2\n2 1 0 2 1\n1 5 0 1 2\n")
    with pytest.raises(ParseError, match="line 4: beta is zero"):
        flags_from_text("flags q=3 count=3\n2 1 0 2 1\n\n1 1 0 1 0\n1 1 0 1 2\n")
    with pytest.raises(ParseError, match="line 2: matrix datum is singular"):
        flags_from_text("flags q=3 count=1\n1 1 1 1 1\n")
    with pytest.raises(ParseError, match="line 1: 6 is not a prime power"):
        flags_from_text("flags q=6 count=1\n1 1 0 1 1\n")
    # int() alone reads '1_0' as 10, '١' (Arabic-Indic one) as 1 and '+1' as 1.
    with pytest.raises(ParseError, match=r"^line 2: non-integer entry in '1_0 1 0 ١ \+1'$"):
        flags_from_text("flags q=11 count=1\n1_0 1 0 ١ +1\n")


@pytest.mark.parametrize(
    "parse,header,field",
    [
        (flags_from_text, "flags q=3 count=0", "count"),
        (flags_from_text, "flags q=3 count=-1", "count"),
        (array_from_text, "ooa t=4 s=-1 l=2 v=3", "s"),
        (array_from_text, "ooa t=4 s=1 l=2 v=3", "s"),
        (array_from_text, "ooa t=4 s=3 l=2 v=-3", "v"),
        (grid_from_text, "sudoku q=1", "q"),
    ],
)
def test_header_rejects_out_of_range_values(parse, header, field):
    with pytest.raises(ParseError, match=f"line 1: header field {field} must be at least"):
        parse(header + "\n0 1\n")


def test_huge_headers_are_refused_at_line_1():
    # The derived count 2*s*v^4 of this would have more digits than
    # int-to-str conversion allows, so it must not reach a message.
    huge = "1" + "0" * 1100
    with pytest.raises(ParseError, match=r"^line 1: a 2s x q\^4 array is limited to"):
        array_from_text(f"ooa t=4 s=3 l=2 v={huge}\n" + "0\n" * 6)


def test_flags_to_text_needs_data():
    with pytest.raises(ValueError, match="at least one flag datum"):
        flags_to_text([])


def test_array_roundtrip():
    arr = assemble([fx.PAIR3_M1, fx.PAIR3_M2])
    text = array_to_text(arr)
    assert text.splitlines()[0] == "ooa t=4 s=4 l=2 v=3"
    parsed = array_from_text(text)
    assert parsed == arr
    assert type(parsed.rows) is tuple
    assert all(type(row) is bytes for row in parsed.rows)


def test_array_parse_errors():
    arr = BandedArray(2, 3, tuple(tuple(r) for r in fx.OOA_4_3_2_2))
    text = array_to_text(arr)
    truncated = "\n".join(text.splitlines()[:4]) + "\n"
    with pytest.raises(ParseError, match="expected 6 array lines"):
        array_from_text(truncated)
    with pytest.raises(ParseError, match="t=4"):
        array_from_text(text.replace("t=4", "t=3"))
    lines = text.splitlines()
    lines[3] = lines[3].replace("1", "7", 1)
    with pytest.raises(ParseError, match=r"^line 4: entry 7 outside 0\.\.1$"):
        array_from_text("\n".join(lines) + "\n")
    lines[3] = lines[3].replace("7", "256", 1)  # beyond a byte as well
    with pytest.raises(ParseError, match=r"^line 4: entry 256 outside 0\.\.1$"):
        array_from_text("\n".join(lines) + "\n")
    lines[3] = lines[3].replace("256", "-1", 1)
    with pytest.raises(ParseError, match=r"^line 4: entry -1 outside 0\.\.1$"):
        array_from_text("\n".join(lines) + "\n")
    lines[3] = lines[3].replace("-1", "\uff10", 1)  # fullwidth zero
    with pytest.raises(ParseError, match=r"^line 4: non-integer entry in "):
        array_from_text("\n".join(lines) + "\n")


class _CountingText(str):
    """A text that counts the calls of its splitlines."""

    calls = 0

    def splitlines(self, *args, **kwargs):
        self.calls += 1
        return super().splitlines(*args, **kwargs)


@pytest.mark.parametrize(
    "parse,text",
    [
        (array_from_text, array_to_text(assemble([fx.PAIR3_M1, fx.PAIR3_M2]))),
        (flags_from_text, "flags q=3 count=2\n2 1 0 2 1\n1 1 0 1 2\n"),
    ],
    ids=["array", "flags"],
)
def test_parsers_split_the_text_once(parse, text):
    text = _CountingText(text)
    parse(text)
    assert text.calls == 1


def _traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _family_array(q, s):
    return assemble(generate(d.flag()) for d in construct_family(q, s).data)


def test_array_to_text_holds_its_text_once():
    # The row lines and the joined text are alive together; a second full
    # copy of the text (as "\n".join(lines) + "\n" makes) would take the peak
    # to 3x.  q = 13 has two-digit cells.
    for q in (9, 13):
        text, peak = _traced_peak(array_to_text, _family_array(q, 6))
        assert peak < 2.5 * len(text)


@pytest.mark.parametrize("q", [9, 13])
def test_array_from_text_holds_its_text_once(q):
    # The text's lines, the rows and one line's decoding work are alive
    # together; a second copy of the lines would take the peak past 2x.
    text = array_to_text(_family_array(q, 6))
    array, peak = _traced_peak(array_from_text, text)
    assert array.q == q
    assert peak < 2.5 * len(text)


def test_array_round_trip_with_tens_digits_above_1(monkeypatch):
    # At q = 23 entries 20-22 have tens digit 2.  Each canonical line is read
    # by the row decoder alone, and a line with other spellings by the full
    # reader, with the same values as the reference reader.
    q = 23
    rng = random.Random(23)
    array = BandedArray(q, 2, tuple(bytes(rng.choices(range(q), k=q**4)) for _ in range(4)))
    assert max(array.rows[0]) == 22
    text = array_to_text(array)
    assert text == "".join(
        ["ooa t=4 s=2 l=2 v=23\n", *(" ".join(map(str, row)) + "\n" for row in array.rows)]
    )
    assert row_oracle.array_from_text(text) == array
    full_reader = files._int_row
    calls = []
    monkeypatch.setattr(files, "_int_row", lambda *a: calls.append(a[1]) or full_reader(*a))
    assert array_from_text(text) == array
    assert calls == []
    lines = text.splitlines()
    lines[3] = " ".join("0" + x for x in lines[3].split())  # 020, 07
    respelled = "\n".join(lines) + "\n"
    assert array_from_text(respelled) == array == row_oracle.array_from_text(respelled)
    assert calls == [4]


def test_grid_to_text_holds_no_symbol_table():
    # The lines, the joined text and the name table, about 2.2x the text; a
    # table of the q^4 symbols as ints, kept on the grid or built for the
    # whole grid, takes the peak near 10x at q = 27.
    grid = generate(construct_family(27, 3).data[0].flag())
    text, peak = _traced_peak(grid_to_text, grid)
    assert text.startswith("sudoku q=27\n") and len(text.splitlines()) == 1 + 27**2
    assert peak <= 3 * len(text)
