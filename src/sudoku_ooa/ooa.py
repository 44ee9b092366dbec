"""Banded arrays: assembly from sudoku grids and exhaustive verification.

An array has s bands of 2 rows over a q-ary alphabet and q^4 columns, one per
grid location in lexicographic order.  The first two bands carry the location
digits and every further band the radix and units digits of one grid's
symbols.  A row is stored as bytes, one byte per entry, however the array is
built: by ``assemble``, by the array parser or in a scan worker.
``BandedArray`` and ``VerifyResult`` are named tuples, as every value type of
the package is: ``dataclasses`` and the modules it imports would add several
ms to the start of every process, scan workers included.  Verification
checks the exactly-once condition on every 4-row top-justified set (mode
``ooa``) or only on those whose bands past the second contribute 0 or 2 rows
(mode ``sa``).

Verification works on packed rows: each row is one integer with a fixed-width
slot per column, so a row set's q^4 tuple keys come out of a few big-integer
operations instead of a loop over columns.  One driver, ``scan``, runs every
scan: it yields each set with its verdict, in order, and its callers stop
reading once they know enough, ``verify`` at the first failing set and
``strong.check_combinatorial`` when a precondition fails.  A scan is split
into one contiguous block of row sets per ``WORKER_START`` key tuples (row
sets x q^4), the tuples this process scans while a worker starts, up to
``MAX_WORKERS`` and the CPUs, when that gives at least two: the calling
process scans the first block and a worker process (``workers``) each
further one, and the verdicts are the ones a single process gives.
``check_size`` refuses arrays above the ``MAX_ENTRIES`` memory budget and
band counts whose top-justified list exceeds ``MAX_SETS`` row sets; the
array parser, every command that builds an array and a scan worker's input
check call it before building anything.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from contextlib import closing
from itertools import combinations_with_replacement

from .sudoku import DimensionMismatch, first_repeat

STRENGTH = 4  # tuples checked per row set

RowSet = frozenset  # of (band, depth) labels, both 1-based

# Memory budget in array entries (2s*q^4).  It admits every guaranteed (q, s)
# up to q = 27, whose max_s array has 15.9 M entries.
MAX_ENTRIES = 2**24

# Row-set budget.  A scan holds its whole top-justified list, C(s+3, 4) - s^2
# sets (the multisets of 4 bands, less those using a band 3 or 4 times) of
# about 450 bytes each: 7.3 MB at s = 24, 27.9 MB at s = 34.  The entry
# budget alone admits s = 128 at q = 16 (11.7 M sets, about 5 GB) and
# s = 524,288 at q = 2.  2^16 sets admits s <= 34, every guaranteed s up to
# q = 64.
MAX_SETS = MAX_ENTRIES // 2**8

# Key tuples (row sets x q^4 columns) this process scans while one worker
# starts: a worker's first reply byte comes 23-38 ms after its start, and a
# tuple takes 42-53 ns (q = 13, medians of 15 starts in five runs, a shared
# 2-CPU VM), so their product is 2^18.8 to 2^19.6 tuples.  It sets both how
# many processes a scan uses and where their blocks begin (see _bounds), so
# a split pays from q = 11 up.
WORKER_START = 2**19
MAX_WORKERS = 4  # each worker holds a copy of the packed array


class MalformedArray(ValueError):
    """Array entries or dimensions are inconsistent."""


class NotTopJustified(ValueError):
    """A row set includes a depth-2 row without its band's depth-1 row."""


class GridCountZero(ValueError):
    """Assembly needs at least one grid."""


class ArrayTooLarge(ValueError):
    """The requested array would exceed the MAX_ENTRIES or MAX_SETS budget."""


def check_size(q: int, s: int) -> None:
    """Refuse a 2s x q^4 array above MAX_ENTRIES entries or MAX_SETS row sets.

    q and s are compared with the entry budget before 2*s*q^4 is formed, and
    its message names neither, so a header value of any length is refused
    cheaply; only an s that passes it sizes the row-set count.
    """
    if q > MAX_ENTRIES or s > MAX_ENTRIES or 2 * s * q**STRENGTH > MAX_ENTRIES:
        raise ArrayTooLarge(f"a 2s x q^4 array is limited to {MAX_ENTRIES} entries")
    sets = (s + 3) * (s + 2) * (s + 1) * s // 24 - s * s  # len(top_justified_sets(s))
    if sets > MAX_SETS:
        raise ArrayTooLarge(
            f"s={s} gives {sets} top-justified row sets; a scan is limited to {MAX_SETS}"
        )


# memoryview formats of the native unsigned 1-, 2- and 4-byte integers.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I"}


def _slot(q: int) -> tuple[str, int]:
    """Format and width of the smallest slot that holds q^4 - 1.

    Four bytes hold every key up to q = 256, and no array is larger: a q = 257
    row would have 4.4e9 columns.
    """
    width = next(w for w in _SLOT_FORMATS if q**STRENGTH <= 256**w)
    return _SLOT_FORMATS[width], width


class BandedArray(namedtuple("BandedArray", "q s rows")):
    """2s x q^4 array over 0..q-1; row (band, depth) sits at 2(band-1)+depth-1.

    Rows may be given as any sequences of ints; each is stored as bytes, one
    byte per entry.  An entry is below q, and a q^4-column row fits in memory
    only for q far below 256 (MAX_ENTRIES admits q <= 45).
    """

    __slots__ = ()

    def __new__(cls, q: int, s: int, rows):
        if q < 2 or s < 2:
            raise MalformedArray(f"need q >= 2 and s >= 2, got q={q}, s={s}")
        if len(rows) != 2 * s:
            raise MalformedArray(f"expected {2 * s} rows, got {len(rows)}")
        ncols = q**STRENGTH
        entries = bytes(range(min(q, 256)))  # deleted from a row, they leave its bad entries
        checked = []
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise MalformedArray(f"row {r}: expected {ncols} columns, got {len(row)}")
            try:
                row = bytes(row)  # a bytes row is not copied
            except ValueError:  # an entry below 0 or above 255
                raise MalformedArray(f"row {r}: entry outside 0..{q - 1}") from None
            if row.translate(None, entries):
                raise MalformedArray(f"row {r}: entry outside 0..{q - 1}")
            checked.append(row)
        return super().__new__(cls, q, s, tuple(checked))

    @classmethod
    def _make(cls, iterable):  # so _replace checks too
        return cls(*iterable)

    def row(self, band: int, depth: int) -> bytes:
        return self.rows[2 * (band - 1) + (depth - 1)]


def assemble(grids) -> BandedArray:
    """Array of the grids: location digits, then each grid's radix and units table.

    Columns are indexed by location in lexicographic order.  The grids are
    read one at a time, so an iterator of them need never be held at once.
    """
    q = None
    digit_rows = []
    for g in grids:
        if q is None:
            q = g.q
        if g.q != q:
            raise DimensionMismatch("grids must share one order q")
        digit_rows += [g.radix, g.units]
    if q is None:
        raise GridCountZero("at least one grid is required")
    # Column m is the packed location ((x1*q + x2)*q + x3)*q + x4, which is
    # also row*q^2 + column of the location's grid cell: digit x_i holds for
    # q^e consecutive columns, e = 4 - i, and the pattern repeats q^(3-e) times.
    location_rows = [
        b"".join(bytes([x]) * q**e for x in range(q)) * q ** (3 - e) for e in (3, 2, 1, 0)
    ]
    return BandedArray(q, len(digit_rows) // 2 + 2, tuple(location_rows + digit_rows))


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


class VerifyResult(
    namedtuple(
        "VerifyResult",
        "ok row_set duplicate first_column second_column",
        defaults=(None, None, None, None),
    )
):
    """Verdict of ``verify``: ok, or the first failing set, its repeated
    4-tuple and the two columns that carry it."""

    __slots__ = ()

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
    scan is split across (see scan).
    """
    if mode not in ("ooa", "sa"):
        raise ValueError(f"unknown mode {mode!r}")
    sets = [
        rs for rs in top_justified_sets(array.s) if mode == "ooa" or classify(rs) == "sudoku-TJ"
    ]
    with closing(scan(array, sets)) as verdicts:
        for rowset, hit in verdicts:
            if hit is not None:
                return VerifyResult(False, rowset, *hit)
    return VerifyResult(True)


def scan(array: BandedArray, sets):
    """Generator of (rowset, hit) for each set, in order, hit as ``duplicate_finder`` gives it.

    The sets are scanned in contiguous blocks, one per process (see
    _bounds): a worker (``workers``) is started for each block but the first
    before this process scans block 0, and the workers' verdicts are read in
    block order as they arrive.  Every pair holds a verdict that some
    process computed; a worker's fail names its two columns, so no set is
    scanned twice.  Closing the generator, or reading it to the end, kills
    and reaps every worker.  A worker that exits non-zero raises OSError, a
    malformed reply ValueError, each after the last pair it gave.
    """
    bounds = _bounds(len(sets), array.q)
    blocks = [sets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    started = []  # (process, stderr file) of each worker
    try:
        if len(blocks) > 1:
            # Imported only for a split scan: it and what it uses (subprocess,
            # tempfile) would add several ms to every start of the program.
            from . import workers

            for block in blocks[1:]:
                started.append(workers.start(array, block))
        # Packed once per scan, not cached on the array: at q = 16 the packed
        # rows take 2.6 MB, which a caller such as `construct` would otherwise
        # keep alive while it writes the array out.
        first_duplicate = duplicate_finder(array)
        yield from ((rowset, first_duplicate(rowset)) for rowset in blocks[0])
        for worker, block in zip(started, blocks[1:]):
            yield from workers.hits(worker, block, array)
    finally:
        for proc, _ in started:
            proc.kill()  # does nothing to a worker already reaped
        for proc, err in started:
            proc.wait()
            proc.stdout.close()
            err.close()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _bounds(sets: int, q: int) -> list[int]:
    """Bounds of the contiguous blocks of a scan of `sets` row sets of q^4 columns.

    There are w blocks, one per WORKER_START key tuples and no more than
    MAX_WORKERS, the CPUs or the sets; a scan that would get fewer than two
    stays in one.  Each of the w - 1 workers takes (sets - lead) // w sets
    from the end, where lead = WORKER_START // q^4 is the sets this process
    scans while a worker starts, and this process keeps the rest, the first
    block: it is longer by the lead, and every process finishes at about the
    same time.
    """
    w = max(1, min(MAX_WORKERS, _cpus(), sets, sets * q**STRENGTH // WORKER_START))
    per = (sets - WORKER_START // q**STRENGTH) // w
    return [0, *(sets - per * k for k in range(w - 1, 0, -1)), sets]
