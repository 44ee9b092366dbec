"""Worker processes for a split row-set scan (see ``ooa.failing_sets``).

A worker is a fresh interpreter, started with ``subprocess`` rather than a
pool, so nothing outlives the call that started it.  Its stdin is an
anonymous file holding a JSON header line, {"q", "s", "parent", "first_only",
"sets"}, then the array's 2s rows as the array stores them, q^4 bytes each.
It rebuilds the array from those bytes, scans its sets in order with
``ooa.duplicate_finder``, and replies on its stdout pipe with one JSON line,
{"failing": [indices in its block of the failing sets]}, ascending; with
"first_only" it stops at the first.  It exits without a reply at its next
set once the process named in "parent" is no longer its parent.
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


def start(array: BandedArray, block, first_only: bool) -> subprocess.Popen:
    """A worker scanning `block` of `array`, stopping at its first hit if `first_only`.

    Its input is written to the anonymous file before it starts, so nothing
    here waits on the worker.
    """
    header = {"q": array.q, "s": array.s, "parent": os.getpid(), "first_only": first_only}
    header["sets"] = [sorted(rs) for rs in block]
    with tempfile.TemporaryFile() as inp:
        inp.write(json.dumps(header).encode() + b"\n")
        for row in array.rows:
            inp.write(row)
        inp.seek(0)
        return subprocess.Popen(ARGV, stdin=inp, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def hits(proc: subprocess.Popen, block, first_duplicate) -> list:
    """[(index in block, hit)] of the worker's failing sets; reaps the worker.

    Each hit is found again with this process's `first_duplicate`.  A reply
    is malformed unless its "failing" is a list of ints, not bools, strictly
    increasing and in range, each naming a set that fails.  A non-zero exit
    raises OSError, a malformed reply ValueError.
    """
    out, err = proc.communicate()
    if proc.returncode != 0:
        last = err.decode(errors="replace").strip().splitlines()[-1:]
        raise OSError(
            f"a row-set scan worker exited with code {proc.returncode}"
            + "".join(f": {line}" for line in last)
        )
    malformed = ValueError(f"malformed reply from a row-set scan worker: {out[:80]!r}")
    try:
        failing = json.loads(out)["failing"]
    except (ValueError, TypeError, KeyError):
        raise malformed from None
    if type(failing) is not list or any(type(index) is not int for index in failing):
        raise malformed
    if failing != sorted(set(failing) & set(range(len(block)))):  # not ascending, or out of range
        raise malformed
    found = [(index, first_duplicate(block[index])) for index in failing]
    if any(hit is None for _, hit in found):
        raise malformed
    return found


def serve(inp, out) -> None:
    """A worker's body: read its block from `inp`, reply on `out`."""
    header = json.loads(inp.readline())
    q, s = header["q"], header["s"]
    first_duplicate = duplicate_finder(
        BandedArray(q, s, tuple(inp.read(q**STRENGTH) for _ in range(2 * s)))
    )
    failing = []
    for index, labels in enumerate(header["sets"]):
        if os.getppid() != header["parent"]:
            return
        if first_duplicate(frozenset(map(tuple, labels))) is not None:
            failing.append(index)
            if header["first_only"]:
                break
    out.write(json.dumps({"failing": failing}) + "\n")
