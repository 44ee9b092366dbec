"""Worker processes for a split row-set scan (see ``ooa.scan``).

A worker is a fresh interpreter, started with ``subprocess`` rather than a
pool, so nothing outlives the call that started it.  Its stdin is an
anonymous file holding a JSON header line, {"q", "s", "parent", "sets"},
then the array's 2s rows as the array stores them, q^4 bytes each.  It
rebuilds the array from those bytes and scans its sets in order with
``ooa.duplicate_finder``, writing one byte per set to its stdout pipe as it
goes, ``0`` for a pass and ``1`` for a fail, then a newline.  It stops
without the rest of its reply at its next set once the process named in
"parent" is no longer its parent.  Its stderr is an anonymous file, so a
worker never waits for the caller to read it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from .ooa import STRENGTH, BandedArray, duplicate_finder

# A fresh interpreter that imports this package from the directory this file
# sits in (-I: no PYTHONPATH, no working directory on sys.path) and runs serve
# on its stdin and stdout.
ARGV = (
    sys.executable,
    "-I",
    "-c",
    f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent.parent)!r}); "
    "from sudoku_ooa.workers import serve; serve(sys.stdin.buffer, sys.stdout.buffer)",
)


def start(array: BandedArray, block) -> tuple[subprocess.Popen, object]:
    """(process, stderr file) of a worker scanning `block` of `array`.

    Its input is written to the anonymous file before it starts, so nothing
    here waits on the worker.  The caller kills and waits for the process and
    closes its stdout and the stderr file.
    """
    header = {"q": array.q, "s": array.s, "parent": os.getpid()}
    header["sets"] = [sorted(rs) for rs in block]
    err = tempfile.TemporaryFile()
    with tempfile.TemporaryFile() as inp:
        inp.write(json.dumps(header).encode() + b"\n")
        for row in array.rows:
            inp.write(row)
        inp.seek(0)
        try:
            proc = subprocess.Popen(ARGV, stdin=inp, stdout=subprocess.PIPE, stderr=err)
        except BaseException:
            err.close()
            raise
    return proc, err


def hits(worker, block, first_duplicate):
    """Yield (rowset, hit) for each set of `block` as its byte arrives, then reap the worker.

    A ``0`` gives None, and a ``1`` the set's hit, found again with this
    process's `first_duplicate`.  A reply is malformed unless it is one such
    byte per set, a ``1`` only where the set fails, then a newline and
    nothing more.  At the first bad byte, the end of the reply included, no
    pair is yielded; then, or after the last set, the reply is read to its
    end and the worker reaped.  A non-zero exit then raises OSError, and a
    malformed reply ValueError.
    """
    proc, err = worker
    reply = b""
    for rowset in block:
        verdict = proc.stdout.read(1)
        reply += verdict
        hit = first_duplicate(rowset) if verdict == b"1" else None
        if hit is None and verdict != b"0":
            end = None  # no end mends a bad verdict
            break
        yield rowset, hit
    else:
        end = b"\n"
    rest = proc.stdout.read()
    if proc.wait() != 0:
        err.seek(0)
        last = err.read().decode(errors="replace").strip().splitlines()[-1:]
        why = "".join(f": {line}" for line in last)
        raise OSError(f"a row-set scan worker exited with code {proc.returncode}{why}")
    if rest != end:
        raise ValueError(f"malformed reply from a row-set scan worker: {(reply + rest)[:80]!r}")


def serve(inp, out) -> None:
    """A worker's body: read its block from `inp`, reply on `out`, a byte stream."""
    header = json.loads(inp.readline())
    q, s = header["q"], header["s"]
    first_duplicate = duplicate_finder(
        BandedArray(q, s, tuple(inp.read(q**STRENGTH) for _ in range(2 * s)))
    )
    for labels in header["sets"]:
        if os.getppid() != header["parent"]:
            return
        out.write(b"0" if first_duplicate(frozenset(map(tuple, labels))) is None else b"1")
        out.flush()
    out.write(b"\n")
