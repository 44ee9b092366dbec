"""Worker processes for a split row-set scan (see ``ooa.verify``).

A worker is a fresh interpreter, started with ``subprocess`` rather than a
pool, so nothing outlives the call that started it.  Its stdin is an
anonymous file holding a JSON header line, {"q", "s", "parent", "sets"}, then
the array's 2s rows as the array stores them, q^4 bytes each.  It rebuilds
the array from those bytes, scans its sets in order with
``ooa.duplicate_finder``, and replies on its stdout pipe with one JSON line,
{"first": <index in its block of the first failing set> | null}.  It exits
without a reply at its next set once the process named in "parent" is no
longer its parent.
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
    "from sudoku_ooa.workers import serve; serve(sys.stdin.buffer, sys.stdout)",
)


def start(array: BandedArray, block) -> subprocess.Popen:
    """A worker scanning `block` of `array`.

    Its input is written to the anonymous file before it starts, so nothing
    here waits on the worker.
    """
    header = {
        "q": array.q, "s": array.s, "parent": os.getpid(), "sets": [sorted(rs) for rs in block]
    }
    with tempfile.TemporaryFile() as inp:
        inp.write(json.dumps(header).encode() + b"\n")
        for row in array.rows:
            inp.write(row)
        inp.seek(0)
        return subprocess.Popen(ARGV, stdin=inp, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def first_hit(proc: subprocess.Popen, block, first_duplicate):
    """(rowset, hit) of the worker's first failing set, or None; reaps the worker.

    The hit is found again with this process's `first_duplicate`, so a reply
    naming a set that does not fail is malformed.  A non-zero exit raises
    OSError, a malformed reply ValueError.
    """
    out, err = proc.communicate()
    if proc.returncode != 0:
        last = err.decode(errors="replace").strip().splitlines()[-1:]
        raise OSError(
            f"a row-set scan worker exited with code {proc.returncode}"
            + "".join(f": {line}" for line in last)
        )
    try:
        index = json.loads(out)["first"]
    except (ValueError, TypeError, KeyError):
        index = -1  # no index: malformed
    if index is None:
        return None
    if isinstance(index, int) and 0 <= index < len(block):
        hit = first_duplicate(block[index])
        if hit is not None:
            return block[index], hit
    raise ValueError(f"malformed reply from a row-set scan worker: {out[:80]!r}")


def serve(inp, out) -> None:
    """A worker's body: read its block from `inp`, reply on `out`."""
    header = json.loads(inp.readline())
    q, s = header["q"], header["s"]
    first_duplicate = duplicate_finder(
        BandedArray(q, s, tuple(inp.read(q**STRENGTH) for _ in range(2 * s)))
    )
    first = None
    for index, labels in enumerate(header["sets"]):
        if os.getppid() != header["parent"]:
            return
        if first_duplicate(frozenset(map(tuple, labels))) is not None:
            first = index
            break
    out.write(json.dumps({"first": first}) + "\n")
