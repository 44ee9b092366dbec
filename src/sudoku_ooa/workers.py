"""Worker processes for a split row-set scan (see ``ooa.scan``).

A worker is a fresh interpreter, started with ``subprocess`` rather than a
pool, so nothing outlives the call that started it.  It runs with ``-I -S``:
no environment variables, no working directory or user site on its path,
and no ``site`` module, whose ``.pth`` files may import anything.  It loads
this package and no more: ``subprocess`` and ``tempfile``, which only the
caller needs, are imported in ``start``, and its header is binary, so it
needs no ``json``.  It imports the whole package, not just ``ooa``: a ``-I``
worker writes the bytecode cache even where ``PYTHONDONTWRITEBYTECODE`` is
set, so every later start of the program finds its modules compiled.

Its stdin is an anonymous file holding a header, then the array's 2s rows as
the array stores them, q^4 bytes each.  The header is q, s and the number of
sets as ``WIDTH``-byte little-endian integers, then each set's four sorted
row indices (``ooa.row_indices``), a byte each.  So q, s and the set count
fix the input's length, 3 WIDTH + 4 count + 2s q^4 bytes, and ``read_input``
checks those three values, then that one length, before it reads anything
else.  ``serve`` refuses a malformed input with one line on stderr and a
non-zero exit.  The worker rebuilds the array from the rows and scans its
sets in order with ``ooa.duplicate_finder``, writing one verdict per set to
its stdout pipe as it goes and nothing after the last: the set count fixes
where the reply ends.  A verdict is ``0`` for a pass, or ``1`` and the hit's
two columns as ``WIDTH``-byte little-endian integers for a fail.  Only the
caller holds the read end of that pipe, so once the caller is gone the
worker's next verdict raises ``BrokenPipeError`` and it stops.  Its stderr
is an anonymous file, so a worker never waits for the caller to read it.
"""

from __future__ import annotations

import os
import sys

from .gf import MAX_ORDER
from .ooa import STRENGTH, BandedArray, check_size, duplicate_finder, row_indices

# A fresh interpreter that imports this package from the directory this file
# sits in (-I: no PYTHONPATH, no working directory on sys.path; -S: no site)
# and runs serve on its stdin and stdout.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
ARGV = (
    sys.executable,
    "-I",
    "-S",
    "-c",
    f"import sys; sys.path.insert(0, {_PACKAGE_DIR!r}); "
    "from sudoku_ooa.workers import serve; serve(sys.stdin.buffer, sys.stdout.buffer)",
)

WIDTH = 4  # bytes of every integer a worker reads or writes, little-endian


def start(array: BandedArray, block):
    """(process, stderr file) of a worker scanning `block` of `array`.

    Its input is written to the anonymous file before it starts, so nothing
    here waits on the worker, and the stderr file is opened only then, so a
    raise leaves no file open.  The caller kills and waits for the process
    and closes its stdout and the stderr file.
    """
    import subprocess
    import tempfile

    with tempfile.TemporaryFile() as inp:
        inp.write(header(array.q, array.s, [row_indices(rs) for rs in block]))
        for row in array.rows:
            inp.write(row)
        inp.seek(0)
        err = tempfile.TemporaryFile()
        try:
            proc = subprocess.Popen(ARGV, stdin=inp, stdout=subprocess.PIPE, stderr=err)
        except BaseException:
            err.close()
            raise
    return proc, err


def hits(worker, block, array: BandedArray):
    """Yield (rowset, hit) for each set of `block` as its verdict arrives, then reap the worker.

    A ``0`` gives None, and a ``1`` the hit at the two columns it names,
    read off `array`: the set's rows at the second column, and both columns.
    A reply is malformed unless it is one such verdict per set, each ``1``
    naming columns first < second < q^4 at which every row of its set
    agrees, and nothing after the last.  At the first bad verdict, the end
    of the reply included, no pair is yielded; then, or after the last set,
    the reply is read to its end and the worker reaped.  A non-zero exit
    then raises OSError, and a malformed reply ValueError.
    """
    proc, err = worker
    reply = b""
    for rowset in block:
        verdict = proc.stdout.read(1)
        if verdict == b"1":
            verdict += proc.stdout.read(2 * WIDTH)
        reply += verdict
        hit = _named_hit(array, row_indices(rowset), verdict[1:]) if verdict[:1] == b"1" else None
        if hit is None and verdict != b"0":
            end = None  # no end mends a bad verdict
            break
        yield rowset, hit
    else:
        end = b""
    rest = proc.stdout.read()
    if proc.wait() != 0:
        err.seek(0)
        last = err.read().decode(errors="replace").strip().splitlines()[-1:]
        why = "".join(f": {line}" for line in last)
        raise OSError(f"a row-set scan worker exited with code {proc.returncode}{why}")
    if rest != end:
        raise ValueError(f"malformed reply from a row-set scan worker: {(reply + rest)[:80]!r}")


def _named_hit(array: BandedArray, indices, columns: bytes):
    """The hit at the two columns a ``1`` names, or None unless its rows repeat a tuple there."""
    if len(columns) != 2 * WIDTH:
        return None
    first, second = _ints(columns, 2)
    if not first < second < array.q**STRENGTH:
        return None
    rows = [array.rows[r] for r in indices]
    if any(row[first] != row[second] for row in rows):
        return None
    return tuple(row[second] for row in rows), first, second


def header(q: int, s: int, sets) -> bytes:
    """The header of a worker's input: q, s and the set count, then each set's row indices."""
    return _bytes([q, s, len(sets)]) + bytes(r for rows in sets for r in rows)


def read_input(data: bytes) -> tuple[int, int, list, tuple]:
    """(q, s, sets, rows) of a worker's whole input `data`, each set a tuple of row indices.

    Every value is checked before it sizes anything: q in 2..MAX_ORDER, s >= 2
    and (q, s) within ``check_size``.  Then `data` must be exactly the header
    that its set count gives and 2s rows of q^4 bytes, and each row index
    must be below 2s.  A bad value or length raises ValueError.
    """
    q, s, count = _ints(data, 3)
    if not (2 <= q <= MAX_ORDER and s >= 2):
        raise ValueError(f"need 2 <= q <= {MAX_ORDER} and s >= 2, got q={q}, s={s}")
    check_size(q, s)
    ncols, at = q**STRENGTH, 3 * WIDTH + STRENGTH * count
    size = at + 2 * s * ncols
    if len(data) != size:
        raise ValueError(f"q={q}, s={s} and {count} sets need {size} bytes, got {len(data)}")
    top = max(data[3 * WIDTH : at], default=0)
    if not top < 2 * s:
        raise ValueError(f"a set names row {top}; the array has rows 0..{2 * s - 1}")
    sets = [tuple(data[i : i + STRENGTH]) for i in range(3 * WIDTH, at, STRENGTH)]
    return q, s, sets, tuple(data[at + r * ncols : at + (r + 1) * ncols] for r in range(2 * s))


def _ints(data: bytes, n: int) -> list[int]:
    """The first n integers of `data`, each 0 where `data` has ended."""
    return [int.from_bytes(data[i * WIDTH : (i + 1) * WIDTH], "little") for i in range(n)]


def _bytes(ints) -> bytes:
    return b"".join(x.to_bytes(WIDTH, "little") for x in ints)


def serve(inp, out) -> None:
    """A worker's body: read its block from `inp`, reply on `out`, a byte stream.

    A malformed input raises SystemExit with a one-line message, before any
    verdict is written.  The input's bytes are freed once its rows are cut
    from them, before the scan starts.
    """
    try:
        q, s, sets, rows = read_input(inp.read())
        array = BandedArray(q, s, rows)
    except ValueError as e:
        raise SystemExit(f"malformed worker input: {e}") from None
    first_duplicate = duplicate_finder(array)
    for rowset in sets:
        hit = first_duplicate(rowset)
        out.write(b"0" if hit is None else b"1" + _bytes(hit[1:]))
        out.flush()
