"""Reference readers for the array and grid formats.

``sudoku_ooa.files`` decodes an array line a whole row at a time, keeps the
row only if printing it gives back the line, and hands every other line to
its full reader.  This module keeps the full reading alone, independent of
the decoder:
each line is checked for decimal integers, split, converted by ``int``,
counted and range-checked, with the messages the parsers raise.  Headers and
line selection are shared with ``files``.

The program writes grids (``construct --emit grids``, ``gen-sudoku``) but no
command reads them, so ``grid_from_text`` here is the only grid reader: tests
read grid output back through it.
"""

from __future__ import annotations

from fixtures import grid
from sudoku_ooa import BandedArray, Grid
from sudoku_ooa.files import ParseError, _body_lines, _header_fields, _quote
from sudoku_ooa.gf import MAX_ORDER
from sudoku_ooa.ooa import ArrayTooLarge, check_size

_NUMERALS = str.maketrans("", "", "-0123456789")


def int_row(line: str, lineno: int, expected: int, bound: int) -> tuple[int, ...]:
    """The line's integers: exactly ``expected`` of them, each in 0..bound-1."""
    if line.translate(_NUMERALS).strip():
        raise ParseError(lineno, f"non-integer entry in {_quote(line)}")
    row = tuple(map(int, line.split()))
    if len(row) != expected:
        raise ParseError(lineno, f"expected {expected} entries, got {len(row)}")
    if min(row) < 0 or max(row) >= bound:
        bad = next(x for x in row if not 0 <= x < bound)
        raise ParseError(lineno, f"entry {bad} outside 0..{bound - 1}")
    return row


def grid_from_text(text: str) -> Grid:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty file")
    q = _header_fields(lines[0], "sudoku", ("q",), {"q": 2})["q"]
    if q > MAX_ORDER:
        raise ParseError(1, f"field order must be at most {MAX_ORDER}, got {q}")
    side = q * q
    body = _body_lines(lines, side, "grid")
    return grid(q, [int_row(ln, lineno, side, side) for lineno, ln in body])


def array_from_text(text: str) -> BandedArray:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty file")
    header = _header_fields(lines[0], "ooa", ("t", "s", "l", "v"), {"s": 2, "v": 2})
    if header["t"] != 4 or header["l"] != 2:
        raise ParseError(1, f"only t=4, l=2 arrays are supported, got {_quote(lines[0])}")
    s, q = header["s"], header["v"]
    try:
        check_size(q, s)
    except ArrayTooLarge as exc:
        raise ParseError(1, str(exc)) from None
    body = _body_lines(lines, 2 * s, "array")
    return BandedArray(q, s, tuple(bytes(int_row(ln, lineno, q**4, q)) for lineno, ln in body))
