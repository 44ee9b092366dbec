"""Plain-text file formats for grids, flag data, and banded arrays.

All numbers are decimal canonical field indices.  Every format starts with a
single header line naming the kind and its parameters.  Flags and arrays are
written and read; grids are only written.  This module owns the text: it
decodes a file's bytes, splits the text into lines once, and numbers the
lines for every parse error.  An array row is printed, and a line printed
that way is read, by a few whole-row byte-table and integer operations; any
other array line goes to the full reader, ``_int_row``.
"""

from __future__ import annotations

import sys

from .gf import NotPrimePower, _decimal, _quote, make_field
from .ooa import ArrayTooLarge, BandedArray, check_size
from .sudoku import FlagData, Grid, InvalidFlagData

ARRAY_HEADER = "ooa t=4 s={s} l=2 v={q}"


class ParseError(ValueError):
    """A text artifact failed to parse; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Deletes every character a decimal integer may hold: ASCII digits and '-'.
_NUMERALS = str.maketrans("", "", "-0123456789")


def parse_ints(text: str) -> tuple[int, ...]:
    """The whitespace-separated integers, each an optional '-' and ASCII digits.

    Raises ValueError otherwise.  The whole text is checked in one pass, since
    int() alone would also take '+', '_' and non-ASCII digits.
    """
    if text.translate(_NUMERALS).strip():
        raise ValueError(f"not decimal integers: {_quote(text)}")
    return tuple(map(int, text.split()))


def parse_int(text: str) -> int:
    """The text's one integer, as ``parse_ints`` reads it, or ValueError."""
    (value,) = parse_ints(text)
    return value


def _header_fields(
    line: str, kind: str, expected_keys: tuple[str, ...], minimum: dict[str, int]
) -> dict[str, int]:
    parts = line.split()
    if not parts or parts[0] != kind:
        raise ParseError(1, f"expected a '{kind}' header, got {_quote(line)}")
    out = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if key not in expected_keys or not value:
            raise ParseError(1, f"unexpected header field {_quote(part)}")
        if key in out:
            raise ParseError(1, f"repeated header field {_quote(part)}")
        try:
            out[key] = parse_int(value)
        except ValueError:
            if value.isascii() and value.removeprefix("-").isdecimal():  # over the digit limit
                raise ParseError(1, f"header field {key} has too many digits") from None
            raise ParseError(1, f"non-integer header value {_quote(part)}") from None
    missing = [k for k in expected_keys if k not in out]
    if missing:
        raise ParseError(1, f"missing header fields: {', '.join(missing)}")
    for key, low in minimum.items():
        if out[key] < low:
            got = _decimal(out[key])
            raise ParseError(1, f"header field {key} must be at least {low}, got {got}")
    return out


def _int_row(
    line: str, lineno: int, expected: int, bound: int | None = None
) -> tuple[int, ...]:
    """The line's integers: exactly ``expected`` of them, and each in
    0..bound-1 when a bound is given.  This is the full reader: it takes every
    spelling ``parse_ints`` takes (``007``, ``-0``) and names the first fault.
    """
    try:
        row = parse_ints(line)
    except ValueError:
        raise ParseError(lineno, f"non-integer entry in {_quote(line)}") from None
    if len(row) != expected:
        raise ParseError(lineno, f"expected {expected} entries, got {len(row)}")
    if bound is not None and (min(row) < 0 or max(row) >= bound):
        bad = next(x for x in row if not 0 <= x < bound)
        raise ParseError(lineno, f"entry {bad} outside 0..{bound - 1}")
    return row


def _body_lines(lines: list[str], count: int, what: str) -> list[tuple[int, str]]:
    """The nonblank lines after the header, each with its 1-based line number."""
    body = [(i + 1, ln) for i, ln in enumerate(lines) if i > 0 and ln.strip()]
    if len(body) < count:
        raise ParseError(len(lines) + 1, f"expected {count} {what} lines, got {len(body)}")
    if len(body) > count:
        raise ParseError(body[count][0], f"expected {count} {what} lines, got {len(body)}")
    return body


def decode_text(data: bytes) -> str:
    """The file's text; a byte that is not UTF-8 is a parse error on its line."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # Lines are counted as the parsers count them, by str.splitlines.
        line = len((data[: exc.start].decode() + "x").splitlines())
        byte = data[exc.start]
        raise ParseError(line, f"byte 0x{byte:02x} is not UTF-8 ({exc.reason})") from None


def grid_to_text(grid: Grid) -> str:
    """The header, then each grid row's symbols q*radix + units, a row at a time.

    A row's cells are read as native 2-byte integers 256*radix + units and
    named from a table over every such pair up to the largest radix digit,
    so a digit at q or above is named str(q*radix + units) like any other.
    """
    q, side = grid.q, grid.q * grid.q
    names = [str(q * (k >> 8) + (k & 255)) for k in range(256 * (max(grid.radix) + 1))]
    units_at = 0 if sys.byteorder == "little" else 1  # the low byte of each pair
    pairs = bytearray(2 * side)
    lines = [f"sudoku q={q}"]
    for top in range(0, side * side, side):
        pairs[units_at::2] = grid.units[top : top + side]
        pairs[1 - units_at :: 2] = grid.radix[top : top + side]
        lines.append(" ".join(map(names.__getitem__, memoryview(pairs).cast("H"))))
    return "\n".join([*lines, ""])


def flags_to_text(data) -> str:
    data = list(data)
    if not data:
        raise ValueError("a flags file needs at least one flag datum")
    q = data[0].field.q
    lines = [f"flags q={q} count={len(data)}"]
    lines.extend(f"{d.a} {d.b} {d.c} {d.d} {d.beta}" for d in data)
    return "\n".join([*lines, ""])


def flags_from_text(text: str) -> list[FlagData]:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty file")
    header = _header_fields(lines[0], "flags", ("q", "count"), {"count": 1})
    try:
        field = make_field(header["q"])
    except NotPrimePower as exc:
        raise ParseError(1, str(exc)) from None
    out = []
    for lineno, ln in _body_lines(lines, header["count"], "flag datum"):
        try:
            out.append(FlagData(field, *_int_row(ln, lineno, 5)))
        except InvalidFlagData as exc:
            raise ParseError(lineno, str(exc)) from None
    return out


# An array row is printed as 3-byte cells, one per entry: its tens digit (NUL
# below 10, deleted afterwards), its units digit, and a space.  A cell holds an
# entry up to 99; MAX_ENTRIES admits q <= 45.
_TENS = bytes(48 + v // 10 if v >= 10 else 0 for v in range(256))
_UNITS = bytes(48 + v % 10 for v in range(256))
# The reader's tables: 1 at a digit, else 0; a digit's value, else 0xFF.
_DIGIT_FLAGS = bytes(48 <= c <= 57 for c in range(256))
_DIGIT_VALUES = bytes(c - 48 if 48 <= c <= 57 else 0xFF for c in range(256))


def _row_cells(ncols: int) -> bytearray:
    """The reused cell buffer of a ``ncols``-entry row; its last byte is a newline."""
    cells = bytearray(b" ") * (3 * ncols)
    cells[-1] = 10
    return cells


def _row_text(row: bytes, cells: bytearray) -> bytes:
    """The row's line, newline included, printed through ``cells``."""
    cells[0::3] = row.translate(_TENS)
    cells[1::3] = row.translate(_UNITS)
    return cells.translate(None, b"\0")


def _array_row(line: str, lineno: int, q: int, cells: bytearray) -> bytes:
    """The line's q^4 entries, each below q, read a whole line at a time.

    The line is read as big-endian integers of one byte per character.  A
    digit followed by a digit is a tens digit: its value times ten is added to
    the next byte, then it and every non-digit are deleted.  The result is
    kept only if printing it gives back the line exactly.  Printing is
    injective and canonical, so such a line reads as the full reader reads
    it; every other line (``007``, ``-0``, a tab, a malformed one) goes to the
    full reader, with its values, errors and line numbers.
    """
    text = line.encode("ascii", "replace")  # any other character never matches a print
    digits = int.from_bytes(text.translate(_DIGIT_FLAGS), "big")
    values = int.from_bytes(text.translate(_DIGIT_VALUES), "big")
    tens = (digits & (digits << 8)) * 255
    values += 10 * ((values & tens) >> 8)
    row = (values | tens).to_bytes(len(text), "big").translate(None, b"\xff")
    if len(row) == q**4 and not row.translate(None, bytes(range(q))):
        printed = _row_text(row, cells)
        if len(printed) == len(text) + 1 and printed.startswith(text):
            return row
    return bytes(_int_row(line, lineno, q**4, q))


def array_to_text(array: BandedArray) -> str:
    cells = _row_cells(array.q**4)
    lines = [ARRAY_HEADER.format(s=array.s, q=array.q) + "\n"]
    lines.extend(_row_text(row, cells).decode() for row in array.rows)
    return "".join(lines)


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
    cells = _row_cells(q**4)
    return BandedArray(q, s, tuple(_array_row(ln, lineno, q, cells) for lineno, ln in body))
