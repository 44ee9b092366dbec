"""Banded arrays: assembly from sudoku grids and exhaustive verification.

An array has s bands of 2 rows over a q-ary alphabet and q^4 columns, one per
grid location in lexicographic order.  The first two bands carry the location
digits and every further band the radix and units digits of one grid's
symbols.  Verification checks the exactly-once condition on every 4-row
top-justified set (mode ``ooa``) or only on those whose bands past the second
contribute 0 or 2 rows (mode ``sa``).

Verification works on packed rows: each row is one integer with a fixed-width
slot per column, so a row set's q^4 tuple keys come out of a few big-integer
operations instead of a loop over columns.  ``check_size`` refuses arrays
above the ``MAX_ENTRIES`` memory budget; the array parser and every command
that builds an array call it before building anything.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

from .sudoku import DimensionMismatch, first_repeat

STRENGTH = 4  # tuples checked per row set

RowSet = frozenset  # of (band, depth) labels, both 1-based

# Memory budget in array entries (2s*q^4).  It admits every guaranteed (q, s)
# up to q = 27, whose max_s array has 15.9 M entries.
MAX_ENTRIES = 2**24


class MalformedArray(ValueError):
    """Array entries or dimensions are inconsistent."""


class NotTopJustified(ValueError):
    """A row set includes a depth-2 row without its band's depth-1 row."""


class GridCountZero(ValueError):
    """Assembly needs at least one grid."""


class ArrayTooLarge(ValueError):
    """The requested array would exceed the MAX_ENTRIES memory budget."""


def check_size(q: int, s: int) -> None:
    """Refuse a 2s x q^4 array above MAX_ENTRIES entries.

    q and s are compared with the budget before 2*s*q^4 is formed, and the
    message names neither, so a header value of any length is refused cheaply.
    """
    if q > MAX_ENTRIES or s > MAX_ENTRIES or 2 * s * q**STRENGTH > MAX_ENTRIES:
        raise ArrayTooLarge(f"a 2s x q^4 array is limited to {MAX_ENTRIES} entries")


# memoryview formats of the native unsigned 1-, 2- and 4-byte integers.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I"}


def _slot(q: int) -> tuple[str, int]:
    """Format and width of the smallest slot that holds q^4 - 1.

    Four bytes hold every key up to q = 256, and no array is larger: a q = 257
    row would have 4.4e9 columns.
    """
    width = next(w for w in _SLOT_FORMATS if q**STRENGTH <= 256**w)
    return _SLOT_FORMATS[width], width


@dataclass(frozen=True)
class BandedArray:
    """2s x q^4 array over 0..q-1; row (band, depth) sits at 2(band-1)+depth-1."""

    q: int
    s: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q, s = self.q, self.s
        if q < 2 or s < 2:
            raise MalformedArray(f"need q >= 2 and s >= 2, got q={q}, s={s}")
        if len(self.rows) != 2 * s:
            raise MalformedArray(f"expected {2 * s} rows, got {len(self.rows)}")
        ncols = q**STRENGTH
        for r, row in enumerate(self.rows):
            if len(row) != ncols:
                raise MalformedArray(f"row {r}: expected {ncols} columns, got {len(row)}")
            if min(row) < 0 or max(row) >= q:
                raise MalformedArray(f"row {r}: entry outside 0..{q - 1}")

    def row(self, band: int, depth: int) -> tuple[int, ...]:
        return self.rows[2 * (band - 1) + (depth - 1)]


def assemble(grids) -> BandedArray:
    """Array of the grids: location digits, then radix/units digits per grid.

    Columns are indexed by location in lexicographic order.
    """
    grids = list(grids)
    if not grids:
        raise GridCountZero("at least one grid is required")
    q = grids[0].q
    for g in grids:
        if g.q != q or g.side != q * q:
            raise DimensionMismatch("grids must share one order q")
    # Column m is the packed location ((x1*q + x2)*q + x3)*q + x4, which is
    # also row*q^2 + column of the location's grid cell.
    columns = range(q**4)
    rows = [tuple(m // q**e % q for m in columns) for e in (3, 2, 1, 0)]
    for g in grids:
        cells = list(chain.from_iterable(g.rows))
        rows += [tuple(sym // q for sym in cells), tuple(sym % q for sym in cells)]
    return BandedArray(q, len(grids) + 2, tuple(rows))


def top_justified_sets(s: int) -> list[RowSet]:
    """All 4-row top-justified sets for s bands, in a fixed order.

    Each set is a multiset of 4 bands, none used more than twice: a band used
    d times contributes its rows (band, 1) .. (band, d).  The sets are sorted
    shallowest first: by maximum depth used, then by the band depth vector
    (d_1..d_s).  The all-top-rows sets therefore come before any set using a
    second band row.
    """
    if s < 2:
        raise ValueError(f"need at least 2 bands, got {s}")

    def order(bands):
        depths = [0] * s
        for band in bands:
            depths[band - 1] += 1
        return max(depths), depths

    # Bands come sorted, so a band used three times fills bands[i..i+2].
    multisets = [
        bands
        for bands in combinations_with_replacement(range(1, s + 1), STRENGTH)
        if all(bands[i] != bands[i + 2] for i in range(STRENGTH - 2))
    ]
    multisets.sort(key=order)
    return [
        frozenset((band, 2 if i and bands[i - 1] == band else 1) for i, band in enumerate(bands))
        for bands in multisets
    ]


# Band-depth signatures (top-row-band depth, top-column-band depth, sorted
# symbol-band depths) of the possible non-sudoku top-justified forms.
_FORMS = {
    (1, 2, (1,)): "1a",
    (2, 1, (1,)): "1b",
    (1, 1, (1, 1)): "2a",
    (2, 0, (1, 1)): "2b",
    (0, 2, (1, 1)): "2c",
    (0, 1, (2, 1)): "2d",
    (1, 0, (2, 1)): "2e",
    (1, 0, (1, 1, 1)): "3a",
    (0, 1, (1, 1, 1)): "3b",
    (0, 0, (2, 1, 1)): "3c",
    (0, 0, (1, 1, 1, 1)): "4a",
}


def classify(rowset) -> str:
    """Form label of a top-justified 4-row set.

    ``sudoku-TJ`` when every band past the second contributes 0 or 2 rows;
    otherwise the unique label determined by the band depth signature.
    """
    labels = set(rowset)
    if len(labels) != STRENGTH or any(
        d not in (1, 2) or b < 1 for b, d in labels
    ):
        raise NotTopJustified(f"not a set of 4 (band, depth) labels: {sorted(labels)}")
    depths: dict[int, int] = {}
    for band, depth in labels:
        depths[band] = max(depths.get(band, 0), depth)
    for band, d in depths.items():
        if d == 2 and (band, 1) not in labels:
            raise NotTopJustified(f"band {band} has its second row but not its first")
    r = depths.get(1, 0)
    c = depths.get(2, 0)
    symbol_depths = tuple(sorted((d for b, d in depths.items() if b >= 3), reverse=True))
    if all(d == 2 for d in symbol_depths):
        return "sudoku-TJ"
    return _FORMS[(r, c, symbol_depths)]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    row_set: RowSet | None = None
    duplicate: tuple[int, int, int, int] | None = None
    first_column: int | None = None
    second_column: int | None = None

    def witness_text(self) -> str:
        if self.ok:
            return ""
        where = f"columns {self.first_column} and {self.second_column}"
        return repeat_text(self.row_set, self.duplicate, where)


def repeat_text(rowset, duplicate, where: str) -> str:
    """Witness ``rows <labels> repeat tuple <digits> at <where>``."""
    labels = ",".join(f"({b},{d})" for b, d in sorted(rowset))
    digits = "".join(str(x) for x in duplicate)
    return f"rows {labels} repeat tuple {digits} at {where}"


def duplicate_finder(array: BandedArray):
    """Function from a row set to its first duplicated 4-tuple, or None.

    A hit is (tuple, col_a, col_b), the two columns that carry the tuple.
    Each row is packed once into one integer holding entry m in slot m (see
    _slot); entries are below q <= 256, so each is one byte, placed at the
    low end of its slot in native byte order.  Column m's key is
    ((a*q + b)*q + c)*q + d over the set's rows in label order, and Horner's
    rule on the packed rows forms all q^4 keys at once, one per slot; every
    key is below q^4, so no slot carries into the next.
    """
    q = array.q
    code, width = _slot(q)
    low = 0 if sys.byteorder == "little" else width - 1
    packed = []
    for row in array.rows:
        slots = bytearray(len(row) * width)
        slots[low::width] = bytes(row)
        packed.append(int.from_bytes(slots, sys.byteorder))

    def first_duplicate(rowset) -> tuple | None:
        labels = sorted(rowset)
        key = 0
        for b, d in labels:
            key = key * q + packed[2 * (b - 1) + (d - 1)]
        keys = memoryview(key.to_bytes(q**STRENGTH * width, sys.byteorder)).cast(code)
        hit = first_repeat(keys.tolist())
        if hit is None:
            return None
        first, second = hit
        return tuple(array.row(b, d)[second] for b, d in labels), first, second

    return first_duplicate


def verify(array: BandedArray, mode: str = "ooa") -> VerifyResult:
    """Exhaustive exactly-once check over the mode's row sets.

    Mode ``ooa`` checks every top-justified set, ``sa`` only the sudoku
    top-justified ones.  Returns the first failing set with a duplicated
    tuple and its two column indices.
    """
    if mode not in ("ooa", "sa"):
        raise ValueError(f"unknown mode {mode!r}")
    # Packed once per call, not cached on the array: at q = 16 the packed rows
    # take 2.6 MB, which a caller such as `construct` would otherwise keep
    # alive while it writes the array out.
    first_duplicate = duplicate_finder(array)
    for rowset in top_justified_sets(array.s):
        if mode == "sa" and classify(rowset) != "sudoku-TJ":
            continue
        hit = first_duplicate(rowset)
        if hit is not None:
            dup, first, second = hit
            return VerifyResult(False, rowset, dup, first, second)
    return VerifyResult(True)
