"""Banded arrays: assembly from sudoku grids and exhaustive verification.

An array has s bands of 2 rows over a q-ary alphabet and q^4 columns, one per
grid location in lexicographic order.  The first two bands carry the location
digits and every further band the radix and units digits of one grid's
symbols.  A row is stored as bytes, one byte per entry, however the array is
built: by ``assemble``, by the array parser or in a scan worker.
Verification checks the exactly-once condition on every 4-row top-justified
set (mode ``ooa``) or only on those whose bands past the second contribute 0
or 2 rows (mode ``sa``).

Verification works on packed rows: each row is one integer with a fixed-width
slot per column, so a row set's q^4 tuple keys come out of a few big-integer
operations instead of a loop over columns.  One driver, ``failing_sets``,
runs every scan: ``verify`` asks it for the first failing set and
``strong.check_combinatorial`` for all of them.  A scan of at least
``PARALLEL_WORK`` key tuples (row sets x q^4) on more than one CPU is split
into up to ``MAX_WORKERS`` contiguous blocks of row sets: the calling process
scans the first and a worker process (``workers``) each further one, and the
answer is the one a single process gives.  ``check_size`` refuses arrays
above the ``MAX_ENTRIES`` memory budget; the array parser and every command
that builds an array call it before building anything.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

from .sudoku import DimensionMismatch, first_repeat

STRENGTH = 4  # tuples checked per row set

RowSet = frozenset  # of (band, depth) labels, both 1-based

# Memory budget in array entries (2s*q^4).  It admits every guaranteed (q, s)
# up to q = 27, whose max_s array has 15.9 M entries.
MAX_ENTRIES = 2**24

# A scan of this many key tuples (row sets x q^4 columns) or more is split
# across processes.  At q = 16 an ooa scan (615 sets, 40.3 M tuples) takes
# about 3.3 s in one process; at q = 13 (7.6 M) a worker's start-up, about
# 0.1 s, eats most of what it saves.
PARALLEL_WORK = 2**24
MAX_WORKERS = 4  # each worker holds a copy of the packed array


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
    """2s x q^4 array over 0..q-1; row (band, depth) sits at 2(band-1)+depth-1.

    Rows may be given as any sequences of ints; each is stored as bytes, one
    byte per entry.  An entry is below q, and a q^4-column row fits in memory
    only for q far below 256 (MAX_ENTRIES admits q <= 45).
    """

    q: int
    s: int
    rows: tuple[bytes, ...]

    def __post_init__(self):
        q, s = self.q, self.s
        if q < 2 or s < 2:
            raise MalformedArray(f"need q >= 2 and s >= 2, got q={q}, s={s}")
        if len(self.rows) != 2 * s:
            raise MalformedArray(f"expected {2 * s} rows, got {len(self.rows)}")
        ncols = q**STRENGTH
        entries = bytes(range(min(q, 256)))  # deleted from a row, they leave its bad entries
        rows = []
        for r, row in enumerate(self.rows):
            if len(row) != ncols:
                raise MalformedArray(f"row {r}: expected {ncols} columns, got {len(row)}")
            try:
                row = bytes(row)  # a bytes row is not copied
            except ValueError:  # an entry below 0 or above 255
                raise MalformedArray(f"row {r}: entry outside 0..{q - 1}") from None
            if row.translate(None, entries):
                raise MalformedArray(f"row {r}: entry outside 0..{q - 1}")
            rows.append(row)
        object.__setattr__(self, "rows", tuple(rows))

    def row(self, band: int, depth: int) -> bytes:
        return self.rows[2 * (band - 1) + (depth - 1)]


def assemble(grids) -> BandedArray:
    """Array of the grids: location digits, then radix/units digits per grid.

    Columns are indexed by location in lexicographic order.  The grids are
    read one at a time, so an iterator of them need never be held at once.
    """
    q = None
    symbol_rows = []
    for g in grids:
        if q is None:
            q = g.q
            # Translation tables: byte sym maps to sym // q and to sym % q.
            radix = bytes(sym // q for sym in range(256))
            units = bytes(sym % q for sym in range(256))
        if g.q != q:
            raise DimensionMismatch("grids must share one order q")
        try:
            symbols = bytes(chain.from_iterable(g.rows))
        except (TypeError, ValueError):
            # A symbol that is not an int in 0..255, as in every grid with
            # q > 16: its digits are computed, and bytes() or BandedArray
            # refuses a bad one as they always have.
            cells = list(chain.from_iterable(g.rows))
            symbol_rows += [bytes(sym // q for sym in cells), bytes(sym % q for sym in cells)]
        else:
            symbol_rows += [symbols.translate(radix), symbols.translate(units)]
    if q is None:
        raise GridCountZero("at least one grid is required")
    # Column m is the packed location ((x1*q + x2)*q + x3)*q + x4, which is
    # also row*q^2 + column of the location's grid cell: digit x_i holds for
    # q^e consecutive columns, e = 4 - i, and the pattern repeats q^(3-e) times.
    location_rows = [
        b"".join(bytes([x]) * q**e for x in range(q)) * q ** (3 - e) for e in (3, 2, 1, 0)
    ]
    return BandedArray(q, len(symbol_rows) // 2 + 2, tuple(location_rows + symbol_rows))


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
    _slot): the row's byte m sits at the low end of slot m in native byte
    order.  Column m's key is ((a*q + b)*q + c)*q + d over the set's rows in
    label order, and Horner's rule on the packed rows forms all q^4 keys at
    once, one per slot; every key is below q^4, so no slot carries into the
    next.
    """
    q = array.q
    code, width = _slot(q)
    low = 0 if sys.byteorder == "little" else width - 1
    packed = []
    for row in array.rows:
        slots = bytearray(len(row) * width)
        slots[low::width] = row
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
    tuple and its two column indices, whatever the number of processes the
    scan is split across (see failing_sets).
    """
    if mode not in ("ooa", "sa"):
        raise ValueError(f"unknown mode {mode!r}")
    sets = [
        rs for rs in top_justified_sets(array.s) if mode == "ooa" or classify(rs) == "sudoku-TJ"
    ]
    for index, (dup, first, second) in failing_sets(array, sets, first_only=True):
        return VerifyResult(False, sets[index], dup, first, second)
    return VerifyResult(True)


def failing_sets(array: BandedArray, sets, first_only: bool) -> list:
    """[(index, (tuple, col_a, col_b))] of the failing sets, by ascending index.

    Each hit is what ``duplicate_finder`` gives for sets[index].  With
    `first_only` the list holds at most the lowest failing set, since this
    process and each worker stop at their first.

    The sets are scanned in contiguous blocks, one per process (see
    _worker_count): this process scans block 0 and a worker (``workers``)
    each further block.  The blocks' hits are read in block order, so the
    answer is the one a single process gives.  With `first_only`, every
    worker is killed once a lower block has failed.  Each worker is reaped
    before this returns or raises.  A worker that exits non-zero raises
    OSError, a malformed reply ValueError.
    """
    w = _worker_count(len(sets), array.q)
    bounds = [len(sets) * k // w for k in range(w + 1)]
    blocks = [sets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    procs = []
    try:
        if w > 1:
            # Imported only for a split scan: its modules (json, subprocess)
            # would add several ms to every start of the program.
            from . import workers

            for block in blocks[1:]:
                procs.append(workers.start(array, block, first_only))
        # Packed once per call, not cached on the array: at q = 16 the packed
        # rows take 2.6 MB, which a caller such as `construct` would otherwise
        # keep alive while it writes the array out.
        first_duplicate = duplicate_finder(array)
        hits = []
        for index, rowset in enumerate(blocks[0]):
            hit = first_duplicate(rowset)
            if hit is not None:
                hits.append((index, hit))
                if first_only:
                    break
        for lo, proc, block in zip(bounds[1:], procs, blocks[1:]):
            if first_only and hits:
                break
            hits += [(lo + index, hit) for index, hit in workers.hits(proc, block, first_duplicate)]
    finally:
        for proc in procs:
            proc.kill()  # does nothing to a worker already reaped
        for proc in procs:
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
    return hits


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(sets: int, q: int) -> int:
    """Processes for a scan of `sets` row sets of q^4 columns."""
    if sets * q**STRENGTH < PARALLEL_WORK:
        return 1
    return min(MAX_WORKERS, _cpus(), sets)
