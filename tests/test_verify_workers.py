"""The split row-set scan against the scan in one process.

``verify`` and ``check_combinatorial`` read one driver, ``ooa.scan``, which
yields each row set with its verdict, (rowset, hit), in order, and the split
pairs must be the one-process pairs.  The worker-start constant
``WORKER_START`` is set to 1 key tuple to force the split and to 2^64 to
forbid it, and the CPU count to 3, so small arrays scan in three blocks:
block 0 in this process, blocks 1 and 2 in workers, each n // 3 of the n
sets from the end.  Corrupted copies put the first failing set in a chosen
block; workers of lower blocks are slowed down so that a later block's hit
arrives first, and the earliest set must still win.  Failing families put the
condition report's failing sets in two or three blocks, and the split report
must be the one-process report.  A worker replies one verdict per set,
``0``, or ``1`` and the two columns of the set's hit, and nothing after the
last; stand-in workers give malformed replies, exits and stderr floods, each
of which must be an error naming what went wrong, after one pair per verdict
the worker sent.  A worker's input is a binary header and the rows, a length
that q, s and the set count fix; a malformed one is refused at once, with
one line and no verdict.  After every call, this process has no child left
(checked where /proc lists children).
"""

from __future__ import annotations

import ast
import errno
import glob
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import closing
from pathlib import Path
from types import SimpleNamespace

import pytest

import fixtures as fx
from grid_oracle import symbol_rows
from sudoku_ooa import (
    BandedArray,
    NotMutuallyOrthogonal,
    array_to_text,
    assemble,
    check_combinatorial,
    construct_family,
    generate,
    make_field,
    ooa,
    row_indices,
    strong,
    substrong_family,
    top_justified_sets,
    workers,
)
from sudoku_ooa.cli import main

SRC = Path(ooa.__file__).resolve().parent.parent
BLOCKS = 3


def family_array(q: int) -> BandedArray:
    fam = construct_family(q, {3: 4, 4: 4, 5: 4, 7: 5}[q])
    return assemble([generate(d.flag()) for d in fam.data])


def children() -> set[str] | None:
    """This process's child pids, or None where /proc does not list them."""
    paths = glob.glob("/proc/self/task/*/children")
    if not paths:
        return None
    return {pid for path in paths for pid in Path(path).read_text().split()}


def assert_no_new_child(before: set[str] | None) -> None:
    if before is not None:
        assert children() <= before


def run_split(monkeypatch, call, parallel=True):
    """call() with the split forced or forbidden; no child may outlive it."""
    before = children()
    with monkeypatch.context() as m:
        m.setattr(ooa, "WORKER_START", 1 if parallel else 2**64)
        m.setattr(ooa, "_cpus", lambda: BLOCKS)
        try:
            return call()
        finally:
            assert_no_new_child(before)


def run_verify(monkeypatch, array, mode="ooa", parallel=True):
    return run_split(monkeypatch, lambda: ooa.verify(array, mode), parallel)


def run_check(monkeypatch, array, parallel=True):
    return run_split(monkeypatch, lambda: check_combinatorial(array), parallel)


def mode_sets(s: int, mode: str) -> list:
    return [rs for rs in top_justified_sets(s) if mode == "ooa" or ooa.classify(rs) == "sudoku-TJ"]


def block_bounds(n: int) -> list[int]:
    """Bounds of the forced split's blocks of n sets: with WORKER_START = 1
    this process leads by no set, so each worker takes n // BLOCKS sets from
    the end and block 0 keeps the rest."""
    per = n // BLOCKS
    return [0, *(n - per * k for k in range(BLOCKS - 1, 0, -1)), n]


def block_of(index: int, n: int) -> int:
    bounds = block_bounds(n)
    return next(k for k in range(BLOCKS) if bounds[k] <= index < bounds[k + 1])


def corrupted(array: BandedArray, labels) -> BandedArray:
    """Column 0 of each labelled row changed.  In an OOA every set that holds
    a changed row then fails, since the new tuple is some other column's."""
    rows = [list(row) for row in array.rows]
    for band, depth in labels:
        row = rows[2 * (band - 1) + depth - 1]
        row[0] = (row[0] + 1) % array.q
    return BandedArray(array.q, array.s, tuple(map(tuple, rows)))


def failing_indices(array: BandedArray, sets) -> list[int]:
    """Indices of the failing sets, by the serial scanner."""
    scan = ooa.duplicate_finder(array)
    return [i for i, rs in enumerate(sets) if scan(row_indices(rs)) is not None]


def failing_blocks(array: BandedArray, mode: str) -> list[int]:
    """Blocks that hold a failing set, in order, by the serial scanner."""
    sets = mode_sets(array.s, mode)
    return sorted({block_of(i, len(sets)) for i in failing_indices(array, sets)})


def delaying_worker(delays: dict[int, float], array: BandedArray, mode: str) -> tuple:
    """Worker argv that sleeps delays[k] seconds before scanning block k."""
    sets = mode_sets(array.s, mode)
    bounds = block_bounds(len(sets))
    by_first = {row_indices(sets[bounds[k]]): seconds for k, seconds in delays.items()}
    code = (
        f"import io, sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "from sudoku_ooa.workers import read_input, serve; data = sys.stdin.buffer.read(); "
        "first = read_input(data)[2][0]; "
        f"time.sleep({by_first!r}.get(first, 0)); "
        "serve(io.BytesIO(data), sys.stdout.buffer)"
    )
    return (sys.executable, "-I", "-c", code)


def garbling_worker(served, array: BandedArray, mode: str) -> tuple:
    """Worker argv that scans the blocks in `served` and replies PASS to the rest."""
    sets = mode_sets(array.s, mode)
    bounds = block_bounds(len(sets))
    firsts = {row_indices(sets[bounds[k]]) for k in served}
    code = (
        f"import io, sys; sys.path.insert(0, {str(SRC)!r}); "
        "from sudoku_ooa.workers import read_input, serve; data = sys.stdin.buffer.read(); "
        "first = read_input(data)[2][0]; "
        f"serve(io.BytesIO(data), sys.stdout.buffer) if first in {firsts!r} else print('PASS')"
    )
    return (sys.executable, "-I", "-c", code)


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("mode", ["ooa", "sa"])
def test_split_matches_one_process_on_passing_arrays(monkeypatch, q, mode):
    array = family_array(q)
    serial = run_verify(monkeypatch, array, mode, parallel=False)
    split = run_verify(monkeypatch, array, mode)
    assert serial.ok
    assert split == serial


# Rows whose first set lies in block 0, 1 or 2 of the q = 7, s = 5 array, and
# pairs of them; `first` is the block of the earliest failing set.
@pytest.mark.parametrize(
    "mode,labels,first",
    [
        ("ooa", [(3, 1)], 0),
        ("ooa", [(2, 2)], 1),
        ("ooa", [(1, 2)], 2),
        ("ooa", [(3, 2), (1, 2)], 0),
        ("ooa", [(2, 2), (1, 2)], 1),
        ("sa", [(1, 1)], 1),
        ("sa", [(1, 2)], 2),
        ("sa", [(4, 2), (1, 2)], 0),
    ],
)
def test_split_names_the_first_failing_set(monkeypatch, mode, labels, first):
    array = corrupted(family_array(7), labels)
    blocks = failing_blocks(array, mode)
    assert blocks[0] == first
    serial = run_verify(monkeypatch, array, mode, parallel=False)
    split = run_verify(monkeypatch, array, mode)
    assert not serial.ok
    assert (split.ok, split.row_set, split.duplicate, split.first_column, split.second_column) == (
        serial.ok, serial.row_set, serial.duplicate, serial.first_column, serial.second_column
    )
    assert split.witness_text() == serial.witness_text()


def test_earliest_worker_block_wins_when_a_later_one_replies_first(monkeypatch):
    array = corrupted(family_array(7), [(2, 2), (1, 2)])
    assert failing_blocks(array, "ooa") == [1, 2]
    serial = run_verify(monkeypatch, array, parallel=False)
    monkeypatch.setattr(workers, "ARGV", delaying_worker({1: 0.4}, array, "ooa"))
    assert run_verify(monkeypatch, array) == serial


def test_own_block_wins_when_the_workers_reply_first(monkeypatch):
    array = corrupted(family_array(7), [(3, 2), (1, 2)])
    assert failing_blocks(array, "ooa") == [0, 1, 2]
    serial = run_verify(monkeypatch, array, parallel=False)
    finder = ooa.duplicate_finder

    def slow_finder(arr):  # in this process only: workers run the real one
        scan = finder(arr)

        def slow(rowset):
            hit = scan(rowset)
            if hit is not None:
                time.sleep(0.4)
            return hit

        return slow

    monkeypatch.setattr(ooa, "duplicate_finder", slow_finder)
    assert run_verify(monkeypatch, array) == serial


@pytest.mark.parametrize("labels", [[(3, 1)], [(2, 2)]], ids=["block-0", "block-1"])
def test_first_only_reads_no_reply_past_the_first_failing_block(monkeypatch, labels):
    # verify stops reading at the first failing set, and closing the scan kills
    # the workers of later blocks unread: a malformed reply there is no error.
    array = corrupted(family_array(7), labels)
    serial = run_verify(monkeypatch, array, parallel=False)
    first = failing_blocks(array, "ooa")[0]
    monkeypatch.setattr(workers, "ARGV", garbling_worker(range(1, first + 1), array, "ooa"))
    assert run_verify(monkeypatch, array) == serial


def raising_finder(error):
    """A duplicate_finder whose scanner raises `error` on its first set."""

    def finder(arr):
        def scan(rowset):
            raise error

        return scan

    return finder


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_workers_are_reaped_when_the_own_scan_raises(monkeypatch, error):
    monkeypatch.setattr(ooa, "duplicate_finder", raising_finder(error))
    with pytest.raises(error):
        run_verify(monkeypatch, family_array(3))


def malformed(reply: bytes) -> str:
    return f"error: malformed reply from a row-set scan worker: {reply!r}\n"


# Stand-in workers.  FULL replies 0 to every set of its block, as a worker
# does on a passing array.
FULL = (
    f"import sys; sys.path.insert(0, {str(SRC)!r}); from sudoku_ooa.workers import read_input; "
    "n = len(read_input(sys.stdin.buffer.read())[2]); sys.stdout.write('0' * n); "
)
EXITED = "error: a row-set scan worker exited with code 3\n"


def run_with_worker(tmp_path, monkeypatch, capsys, code: str, level: str | None) -> tuple:
    """(exit code, stdout, stderr) of `verify` (level None) or `check-family
    --level level` on a passing q = 3, s = 4 input, split in two blocks, with
    the worker argv running `code`."""
    path = tmp_path / "a.txt"
    emit = ["--emit", "flags"] if level else []
    assert main(["construct", "--q", "3", "--s", "4", "--out", str(path), *emit]) == 0
    capsys.readouterr()
    before = children()
    monkeypatch.setattr(ooa, "WORKER_START", 1)
    monkeypatch.setattr(ooa, "_cpus", lambda: 2)
    monkeypatch.setattr(workers, "ARGV", (sys.executable, "-c", code))
    argv = ["check-family", str(path), "--level", level] if level else ["verify", str(path)]
    status = main(argv)
    out, err = capsys.readouterr()
    assert_no_new_child(before)
    return status, out, err


@pytest.mark.parametrize(
    "code,message",
    [
        ("import sys; sys.exit(3)", EXITED),
        ("print('PASS')", malformed(b"PASS\n")),
        ("print('1')", malformed(b"1\n")),  # no columns
        (  # set 10 passes: its rows differ at columns 0 and 1
            "import sys; sys.stdout.write('1\\0\\0\\0\\0\\1\\0\\0\\0')",
            malformed(b"1\0\0\0\0\1\0\0\0"),
        ),
        ("import sys; sys.stdout.write('0')", malformed(b"0")),  # the block has 9 sets
        (FULL + "sys.stdout.write('x')", malformed(b"0" * 9 + b"x")),
        (FULL + "sys.exit(3)", EXITED),
    ],
    ids=[
        "exit-3", "not-json", "no-columns", "set-passes", "short", "past-the-last-verdict",
        "exit-3-after-a-full-reply",
    ],
)
def test_failed_worker_is_an_error_not_a_verdict(tmp_path, monkeypatch, capsys, code, message):
    assert len(top_justified_sets(4)) == 19  # block 1 of 2 is sets 10..18
    assert run_with_worker(tmp_path, monkeypatch, capsys, code, None) == (2, "", message)


def test_check_combinatorial_reads_the_exit_after_a_full_reply(tmp_path, monkeypatch, capsys):
    # Every verdict of the family's scan is good; only the worker's exit,
    # read past the last of them, makes the run an error.
    got = run_with_worker(tmp_path, monkeypatch, capsys, FULL + "sys.exit(3)", "combinatorial")
    assert got == (2, "", EXITED)


def test_a_worker_flooding_its_stderr_gives_its_exit_code(tmp_path):
    # A megabyte of stderr, more than a pipe holds, must not stall the caller,
    # which reads the worker's stdout as it arrives.
    path = tmp_path / "a.txt"
    path.write_text(array_to_text(family_array(3)))
    flood = "import sys; sys.stderr.write('x' * 2**20 + '\\nlast\\n'); sys.exit(3)"
    worker = (sys.executable, "-c", flood)
    child = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from sudoku_ooa import ooa, workers; from sudoku_ooa.cli import main; "
        f"ooa.WORKER_START = 1; ooa._cpus = lambda: 2; workers.ARGV = {worker!r}; "
        f"sys.exit(main(['verify', {str(path)!r}]))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", child], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: a row-set scan worker exited with code 3: last\n"
    )


def test_verdicts_are_read_as_they_arrive(monkeypatch):
    # Each worker stalls for a minute in the set after its first failing one:
    # verify must take block 1's first 1 as it arrives and kill the workers.
    array = corrupted(family_array(7), [(2, 2)])
    assert failing_blocks(array, "ooa")[0] == 1
    serial = run_verify(monkeypatch, array, parallel=False)
    code = f"""
import sys, time
sys.path.insert(0, {str(SRC)!r})
from sudoku_ooa import workers
finder = workers.duplicate_finder

def stalling(array):
    scan, found = finder(array), []
    def first_duplicate(rowset):
        if any(found):
            time.sleep(60)
        found.append(scan(rowset))
        return found[-1]
    return first_duplicate

workers.duplicate_finder = stalling
workers.serve(sys.stdin.buffer, sys.stdout.buffer)
"""
    monkeypatch.setattr(workers, "ARGV", (sys.executable, "-I", "-c", code))
    began = time.monotonic()
    assert run_verify(monkeypatch, array) == serial
    assert time.monotonic() - began < 30


def fail(hit) -> bytes:
    """A worker's verdict on a failing set: ``1`` and the hit's two columns."""
    return b"1" + b"".join(c.to_bytes(workers.WIDTH, "little") for c in hit[1:])


def test_reply_rules_hold_where_the_named_sets_fail(monkeypatch):
    # Every set of the block fails, so only the rule under test rejects a reply.
    array = corrupted(family_array(3), [(1, 1)])
    block = [rs for rs in top_justified_sets(array.s) if (1, 1) in rs][:3]
    scan = ooa.duplicate_finder(array)

    def finder(rowset):
        return scan(row_indices(rowset))

    assert all(finder(rs) is not None for rs in block)

    def reply(data: bytes) -> list:
        code = f"import sys; sys.stdout.buffer.write({data!r})"
        monkeypatch.setattr(workers, "ARGV", (sys.executable, "-c", code))
        proc, err = worker = workers.start(array, block)
        try:
            return list(workers.hits(worker, block, array))
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            err.close()

    one, three = fail(finder(block[0])), fail(finder(block[2]))
    assert reply(one + b"0" + three) == [
        (block[0], finder(block[0])), (block[1], None), (block[2], finder(block[2]))
    ]
    assert reply(b"000") == [(rs, None) for rs in block]
    bad = (
        b"", b"\n", one + b"0", one + b"0\n", one + b"0" + three + b"0",
        one + b"0" + three + b"\n", one + b"0" + three + b"x", one + b"x" + three,
        b" " + one + b"0" + three,
        b"10" + three,  # no columns
        one[:5],  # one column
    )
    for data in bad:
        with pytest.raises(ValueError, match="malformed reply"):
            reply(data)
    _, first, second = finder(block[0])
    rows = [array.rows[r] for r in row_indices(block[0])]
    differ = next(m for m in range(array.q**4) if rows[0][m] != rows[0][first])
    named = [
        (first, differ) if first < differ else (differ, first),  # rows that differ
        (second, first),  # not first < second
        (first, first),
        (first, array.q**4),  # past the last column
    ]
    for a, b in named:
        with pytest.raises(ValueError, match="malformed reply"):
            reply(fail((None, a, b)) + b"0" + three)


def pairs_then_error(pairs) -> tuple[list, str]:
    """The pairs read from `pairs` before it raises, and the error's repr."""
    got = []
    with pytest.raises((OSError, ValueError)) as raised:
        for pair in pairs:
            got.append(pair)
    return got, repr(raised.value)


@pytest.mark.parametrize(
    "code,error",
    [
        (
            "import sys; sys.stdout.write('0'); sys.exit(3)",
            OSError("a row-set scan worker exited with code 3"),
        ),
        (
            "import sys; sys.stdout.write('0')",
            ValueError("malformed reply from a row-set scan worker: b'0'"),
        ),
    ],
    ids=["exit-3", "exit-0"],
)
def test_a_reply_that_ends_early_gives_one_pair_per_byte_sent(monkeypatch, code, error):
    # The worker sends one 0 and ends its reply: the end is no verdict, so
    # its one byte gives one pair, and then its exit or the short reply is
    # the error.
    array = family_array(3)
    sets = top_justified_sets(array.s)
    finder = ooa.duplicate_finder(array)
    monkeypatch.setattr(workers, "ARGV", (sys.executable, "-c", code))
    block = sets[:5]
    proc, err = worker = workers.start(array, block)
    try:
        assert pairs_then_error(workers.hits(worker, block, array)) == (
            [(block[0], None)], repr(error)
        )
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        err.close()

    def three_blocks():  # block 0 in this process, then block 1's one pair
        with closing(ooa.scan(array, sets)) as pairs:
            return pairs_then_error(pairs)

    own = [(rs, finder(row_indices(rs))) for rs in sets[: block_bounds(len(sets))[1]]]
    assert run_split(monkeypatch, three_blocks) == (own + [(sets[len(own)], None)], repr(error))


def assert_split_pairs_are_one_process_pairs(monkeypatch, array, sets) -> None:
    """The whole (rowset, hit) stream, split in three blocks, is the stream of
    one process, which is `duplicate_finder` set by set."""

    def read():
        with closing(ooa.scan(array, sets)) as pairs:
            return list(pairs)

    finder = ooa.duplicate_finder(array)
    serial = run_split(monkeypatch, read, parallel=False)
    assert serial == [(rs, finder(row_indices(rs))) for rs in sets]
    assert run_split(monkeypatch, read) == serial


@pytest.mark.parametrize("labels", [[], [(3, 2), (1, 2)]], ids=["passing", "corrupted"])
@pytest.mark.parametrize("mode", ["ooa", "sa"])
def test_split_pairs_are_the_one_process_pairs_on_verify_sets(monkeypatch, mode, labels):
    array = corrupted(family_array(7), labels)
    assert failing_blocks(array, mode) == ([0, 1, 2] if labels else [])
    assert_split_pairs_are_one_process_pairs(monkeypatch, array, mode_sets(array.s, mode))


def test_split_pairs_are_the_one_process_pairs_on_check_combinatorial_sets(monkeypatch):
    array = assemble([generate(d.flag()) for d in substrong_family(7).data[:6]])
    calls = []

    def recording(array, sets):
        calls.append(sets)
        return ooa.scan(array, sets)

    monkeypatch.setattr(strong, "scan", recording)
    assert not check_combinatorial(array).passed
    [sets] = calls
    assert {block_of(i, len(sets)) for i in failing_indices(array, sets)} == {0, 1}
    assert_split_pairs_are_one_process_pairs(monkeypatch, array, sets)


def test_worker_replies_once_and_stops_when_orphaned(tmp_path, monkeypatch):
    array = corrupted(family_array(3), [(1, 1)])
    sets = [row_indices(rs) for rs in mode_sets(array.s, "ooa")]
    inp = tmp_path / "in"
    inp.write_bytes(workers.header(3, array.s, sets) + b"".join(array.rows))
    rebuilt, scanned = [], []

    def recording_finder(arr):
        rebuilt.append(arr)
        first_duplicate = ooa.duplicate_finder(arr)

        def recording(rowset):
            scanned.append(rowset)
            return first_duplicate(rowset)

        return recording

    monkeypatch.setattr(workers, "duplicate_finder", recording_finder)
    finder = ooa.duplicate_finder(array)
    failing = [i for i, rows in enumerate(sets) if finder(rows) is not None]
    assert failing[0] == 0 and len(failing) > 1
    verdicts = [fail(finder(rs)) if i in failing else b"0" for i, rs in enumerate(sets)]
    out = tmp_path / "out"
    with inp.open("rb") as i, out.open("wb") as o:
        workers.serve(i, o)
    assert out.read_bytes() == b"".join(verdicts)
    assert len(scanned) == len(sets)
    # Its caller gone, no process holds the read end of its stdout pipe: the
    # first verdict it writes raises, after one set.
    scanned.clear()
    read_end, write_end = os.pipe()
    os.close(read_end)
    with inp.open("rb") as i, open(write_end, "wb", buffering=0) as o:
        with pytest.raises(BrokenPipeError):
            workers.serve(i, o)
    assert len(scanned) == 1
    assert rebuilt == [array] * 2
    assert all(type(row) is bytes for arr in rebuilt for row in arr.rows)


def test_header_spends_one_byte_on_each_row_index():
    # s = 34, the largest s the row-set budget admits, has rows 0..67: the
    # header is q, s and the count as integers, then 4 bytes a set.
    q, s = 16, 34
    block = [row_indices(rs) for rs in top_justified_sets(s)[-1000:]]
    head = workers.header(q, s, block)
    assert len(head) == 3 * workers.WIDTH + 4 * len(block)
    assert max(head[3 * workers.WIDTH :]) == 2 * s - 1
    assert workers.read_input(head + bytes(2 * s * q**4))[:3] == (q, s, block)


def opened_files(monkeypatch) -> list:
    """Every file that ``tempfile.TemporaryFile`` opens from now on."""
    opened, make = [], tempfile.TemporaryFile

    def recording(*args, **kwargs):
        opened.append(make(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    return opened


def interrupted(*args):
    raise KeyboardInterrupt


def full_disk_rows(rows):
    """`rows`' first row, then the error of a write to a full disk."""
    yield rows[0]
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("where", ["header", "rows"])
def test_a_raise_while_writing_a_worker_input_leaves_no_file_open(monkeypatch, where):
    array = family_array(3)
    block = top_justified_sets(array.s)[:3]
    if where == "header":
        monkeypatch.setattr(workers, "header", interrupted)
        error = KeyboardInterrupt
    else:
        array = SimpleNamespace(q=array.q, s=array.s, rows=full_disk_rows(array.rows))
        error = OSError
    opened = opened_files(monkeypatch)
    with pytest.raises(error):
        workers.start(array, block)
    assert len(opened) == 1 and opened[0].closed


def test_a_worker_that_cannot_start_leaves_no_file_open(tmp_path, monkeypatch):
    array = family_array(3)
    monkeypatch.setattr(workers, "ARGV", (str(tmp_path / "no-such-interpreter"),))
    opened = opened_files(monkeypatch)
    with pytest.raises(FileNotFoundError):
        workers.start(array, top_justified_sets(array.s)[:3])
    assert len(opened) == 2 and all(f.closed for f in opened)


def test_a_worker_that_cannot_start_is_an_error_and_the_started_one_is_reaped(monkeypatch):
    # Three blocks: block 1's worker starts, block 2's start raises, and the
    # raise closes the scan, which kills and reaps block 1's worker.
    array = family_array(7)
    started, start = [], workers.start

    def second_fails(array, block):
        if started:
            raise OSError("no worker for block 2")
        started.append(start(array, block))
        return started[-1]

    monkeypatch.setattr(workers, "start", second_fails)
    with pytest.raises(OSError, match="no worker for block 2"):
        run_verify(monkeypatch, array)
    [(proc, err)] = started
    assert proc.returncode is not None and proc.stdout.closed and err.closed


def malformed_inputs() -> dict[str, tuple[bytes, str]]:
    """Inputs for a worker on the q = 3, s = 4 array with one fault each, by
    name, and the reason the worker gives for refusing each.  An input whose
    header values pass is refused by its length unless it is exactly the
    header of its set count, 3 integers and 4 bytes a set, and the 2s rows of
    q^4 bytes."""
    array = family_array(3)
    q, s, rows = array.q, array.s, array.rows
    labels = top_justified_sets(s)
    sets = [row_indices(rs) for rs in labels]
    body = b"".join(rows)
    head = workers.header(q, s, sets)

    def with_count(count: int) -> bytes:
        at = 2 * workers.WIDTH  # q and s come first
        return head[:at] + count.to_bytes(workers.WIDTH, "little") + head[at + workers.WIDTH :]

    def length(data: bytes, count: int = len(sets)) -> tuple[bytes, str]:
        size = 3 * workers.WIDTH + 4 * count + 2 * s * q**4
        return data, f"q={q}, s={s} and {count} sets need {size} bytes, got {len(data)}"

    past_q = bytearray(body)
    past_q[3 * q**4 + 5] = q  # row 3, column 5

    old = json.dumps({"q": q, "s": s, "sets": [sorted(rs) for rs in labels]}).encode() + b"\n"
    bounds = "need 2 <= q <= 256 and s >= 2"
    return {
        "json-header": (old + body, f"{bounds}, got q=577839739, s=741548090"),
        "truncated-header": length(head[:7], 0),  # s is 4 in its first 3 bytes, the count 0
        "q=0": (workers.header(0, s, sets) + body, f"{bounds}, got q=0, s=4"),
        "q=257": (workers.header(257, s, sets) + body, f"{bounds}, got q=257, s=4"),
        "s=1": (workers.header(q, 1, sets) + body, f"{bounds}, got q=3, s=1"),
        "s-over-budget": (
            workers.header(q, 2**24, sets) + body, "a 2s x q^4 array is limited to 16777216 entries"
        ),
        "count-past-the-input": length(with_count(len(sets) + 1), len(sets) + 1),
        "count-past-the-sets": length(with_count(2**32 - 1) + body, 2**32 - 1),
        "row-past-2s": (
            workers.header(q, s, [*sets[:3], (0, 2, 4, 2 * s)]) + body,
            "a set names row 8; the array has rows 0..7",
        ),
        "short-row": length(head + body[:-1]),
        "past-the-last-row": length(head + body + b"\0"),
        "entry-past-q": (head + past_q, "row 3: entry outside 0..2"),
        "s-over-the-row-set-budget": (
            workers.header(q, 35, sets) + body,
            "s=35 gives 72590 top-justified row sets; a scan is limited to 65536",
        ),
    }


MALFORMED = malformed_inputs()


@pytest.mark.parametrize("name", MALFORMED)
def test_worker_refuses_a_malformed_input_at_once(name):
    # Every value is checked before it sizes anything: read unchecked, the
    # JSON header gives q = 577839739, and the worker would try to build an
    # array of that order.
    data, reason = MALFORMED[name]
    out = io.BytesIO()
    began = time.monotonic()
    with pytest.raises(SystemExit) as refused:
        workers.serve(io.BytesIO(data), out)
    assert time.monotonic() - began < 1
    assert refused.value.code == f"malformed worker input: {reason}"
    assert out.getvalue() == b""


def test_worker_process_refuses_a_malformed_input_with_one_line():
    # An entry past q is refused as the header's values are, not with a
    # traceback from building the array.
    for name in ("json-header", "entry-past-q"):
        data, reason = MALFORMED[name]
        done = subprocess.run(workers.ARGV, input=data, capture_output=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (
            1, b"", f"malformed worker input: {reason}\n".encode()
        ), name


def test_malformed_worker_input_is_an_error(tmp_path, monkeypatch, capsys):
    # The worker's input is cut short in its first set: a forced split verify
    # gives exit 2 and the worker's one line.
    code = (
        f"import io, sys; sys.path.insert(0, {str(SRC)!r}); from sudoku_ooa.workers import serve; "
        f"serve(io.BytesIO(sys.stdin.buffer.read(3 * {workers.WIDTH} + 1)), sys.stdout.buffer)"
    )
    assert run_with_worker(tmp_path, monkeypatch, capsys, code, None) == (
        2, "", "error: a row-set scan worker exited with code 1: "
        "malformed worker input: q=3, s=4 and 9 sets need 696 bytes, got 13\n"
    )


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_split_check_combinatorial_matches_one_process_on_passing_families(monkeypatch, q):
    array = family_array(q)
    serial = run_check(monkeypatch, array, parallel=False)
    split = run_check(monkeypatch, array)
    assert serial.passed
    assert split == serial
    assert split.to_text() == serial.to_text()


def failing_families() -> dict:
    """Array by the blocks that hold its failing sets, for two or three blocks.

    A substrong prefix fails in blocks 0 and 1; seeded random families of two
    to four members give the first family of each other pattern.
    """
    arrays = [assemble([generate(d.flag()) for d in substrong_family(7).data[:6]])]
    for q in (4, 5, 7):
        field, rng = make_field(q), random.Random(q)
        for size in (2, 3, 4) * 12:
            data = fx.random_orthogonal_family(field, size, rng, tries=60)
            if data is not None:
                arrays.append(assemble([generate(d.flag()) for d in data]))
    found = {}
    for array in arrays:
        # check_combinatorial splits the sets past its precondition sets, which pass here.
        sets = [rs for rs in top_justified_sets(array.s) if ooa.classify(rs) != "sudoku-TJ"]
        blocks = frozenset(block_of(i, len(sets)) for i in failing_indices(array, sets))
        if len(blocks) >= 2:
            found.setdefault(blocks, array)
    return found


def test_split_check_combinatorial_matches_one_process_on_failing_families(monkeypatch):
    found = failing_families()
    assert sorted(map(sorted, found)) == [[0, 1], [0, 1, 2], [0, 2], [1, 2]]
    for array in found.values():
        serial = run_check(monkeypatch, array, parallel=False)
        split = run_check(monkeypatch, array)
        assert not serial.passed
        assert split == serial
        assert split.to_text() == serial.to_text()


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_check_combinatorial_reaps_its_workers_when_the_scan_raises(monkeypatch, error):
    monkeypatch.setattr(ooa, "duplicate_finder", raising_finder(error))
    with pytest.raises(error):
        run_check(monkeypatch, family_array(3))


def not_a_sudoku():
    rows = [list(r) for r in symbol_rows(fx.PAIR3_M1)]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    return fx.grid(3, rows)


@pytest.mark.parametrize(
    "grids,match",
    [
        ([fx.PAIR3_M1, fx.PAIR3_M1], "members 1 and 2"),
        ([fx.PAIR3_M2, not_a_sudoku()], "member 2 is not a sudoku solution"),
    ],
    ids=["not-orthogonal", "not-sudoku"],
)
def test_check_combinatorial_leaves_no_worker_when_the_family_is_refused(
    monkeypatch, grids, match
):
    # The refusal closes the scan, which kills the workers still running.
    array = assemble(grids)
    with pytest.raises(NotMutuallyOrthogonal, match=match):
        run_check(monkeypatch, array)


def test_worker_count_threshold(monkeypatch):
    # The block bounds of the benchmarked scans on 2 CPUs: one block per
    # 2^21 key tuples, and the calling process leads by 2^21 // q^4 sets.
    assert ooa.WORKER_START == 2**21
    monkeypatch.setattr(ooa, "_cpus", lambda: 2)
    table = {
        (615, 16): [0, 324, 615],  # ooa, 40.3 M tuples, lead 32
        (266, 13): [0, 170, 266],  # ooa, 7.6 M, lead 73
        (161, 11): [0, 161],  # ooa, 2.4 M
        (53, 16): [0, 53],  # sa, 3.5 M
        (34, 13): [0, 34],  # sa, 0.97 M
        (26, 11): [0, 26],  # sa
        (90, 9): [0, 90],  # ooa, 0.59 M
        (19, 9): [0, 19],  # sa
        (45, 7): [0, 45],  # ooa
    }
    for (sets, q), bounds in table.items():
        assert ooa._bounds(sets, q) == bounds, (sets, q)
    monkeypatch.setattr(ooa, "_cpus", lambda: 64)
    assert ooa._bounds(615, 16) == [0, 180, 325, 470, 615]
    assert len(ooa._bounds(615, 16)) - 1 == ooa.MAX_WORKERS <= 8
    monkeypatch.setattr(ooa, "_cpus", lambda: 1)
    assert ooa._bounds(615, 16) == [0, 615]


def test_cpus_without_an_affinity_call(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert ooa._cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ooa._cpus() == 1


def loaded_modules(argv, imports: str) -> set[str]:
    """The modules in sys.modules after `imports`, run by `argv` (ending in -c)."""
    code = f"{imports}; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run([*argv, code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return set(done.stdout.split())


# -S, since site may import tempfile on its own.
CLI_IMPORTS = (
    (sys.executable, "-I", "-S", "-c"),
    f"import sys; sys.path.insert(0, {str(SRC)!r}); import sudoku_ooa.cli",
)
# All but the call of serve.
WORKER_IMPORTS = (workers.ARGV[:-1], workers.ARGV[-1].rsplit(";", 1)[0])


def test_cli_import_loads_no_worker_modules():
    # check-family's children spend most of their time starting up, so the
    # worker module and what only it needs are imported when a scan splits,
    # and no module of the program imports dataclasses (with inspect, ast,
    # dis and tokenize, about 8 ms of every start).
    banned = {"sudoku_ooa.workers", "json", "subprocess", "tempfile", "dataclasses", "inspect"}
    assert loaded_modules(*CLI_IMPORTS) & banned == set()


def test_worker_loads_no_caller_modules():
    # A worker's start is paid on every split scan, so it runs without site
    # and imports only what serve needs; start imports the caller's modules.
    # Its header is binary, so json, and the re that json imports, stay out.
    assert workers.ARGV[1:3] == ("-I", "-S")
    banned = {"subprocess", "tempfile", "pathlib", "site", "dataclasses", "inspect", "json", "re"}
    assert loaded_modules(*WORKER_IMPORTS) & banned == set()


def test_worker_loads_every_package_module_the_cli_loads():
    # A -I worker ignores PYTHONDONTWRITEBYTECODE, so where that is set for
    # the CLI (as the benchmark sets it for its children), a worker is the
    # process that writes the package's bytecode cache.  It must therefore
    # import every module of the package that the CLI does, or each later CLI
    # start would compile the missing ones again.
    cli = {m for m in loaded_modules(*CLI_IMPORTS) if m.startswith("sudoku_ooa")}
    worker = {m for m in loaded_modules(*WORKER_IMPORTS) if m.startswith("sudoku_ooa")}
    assert "sudoku_ooa.ooa" in cli
    assert cli - {"sudoku_ooa.cli"} <= worker


def test_no_pool_modules_are_imported():
    banned = {"multiprocessing", "concurrent"}
    for path in sorted((SRC / "sudoku_ooa").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not {n.split(".")[0] for n in names} & banned, (path.name, names)
