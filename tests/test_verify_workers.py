"""The split row-set scan against the scan in one process.

``verify`` and ``check_combinatorial`` share one driver, ``ooa.failing_sets``.
The threshold ``PARALLEL_WORK`` is set to 0 to force the split and to
infinity to forbid it, and the CPU count to 3, so small arrays scan in three
blocks: block 0 in this process, blocks 1 and 2 in workers.  Corrupted copies
put the first failing set in a chosen block; workers of lower blocks are slowed
down so that a later block's hit arrives first, and the earliest set must
still win.  Failing families put the condition report's failing sets in two
or three blocks, and the split report must be the one-process report.  After
every call, this process has no child left (checked where /proc lists
children).
"""

from __future__ import annotations

import ast
import glob
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fixtures as fx
from sudoku_ooa import (
    BandedArray,
    NotMutuallyOrthogonal,
    assemble,
    check_combinatorial,
    construct_family,
    generate,
    make_field,
    ooa,
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
        m.setattr(ooa, "PARALLEL_WORK", 0 if parallel else math.inf)
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


def block_of(index: int, n: int) -> int:
    return next(k for k in range(BLOCKS) if n * k // BLOCKS <= index < n * (k + 1) // BLOCKS)


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
    return [i for i, rs in enumerate(sets) if scan(rs) is not None]


def failing_blocks(array: BandedArray, mode: str) -> list[int]:
    """Blocks that hold a failing set, in order, by the serial scanner."""
    sets = mode_sets(array.s, mode)
    return sorted({block_of(i, len(sets)) for i in failing_indices(array, sets)})


def delaying_worker(delays: dict[int, float], array: BandedArray, mode: str) -> tuple:
    """Worker argv that sleeps delays[k] seconds before scanning block k."""
    sets = mode_sets(array.s, mode)
    by_first = {
        json.dumps(sorted(sets[len(sets) * k // BLOCKS])): seconds for k, seconds in delays.items()
    }
    code = (
        f"import io, json, sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "from sudoku_ooa.workers import serve; data = sys.stdin.buffer.read(); "
        "first = json.dumps(json.loads(data.split(b'\\n', 1)[0])['sets'][0]); "
        f"time.sleep({by_first!r}.get(first, 0)); "
        "serve(io.BytesIO(data), sys.stdout)"
    )
    return (sys.executable, "-I", "-c", code)


def garbling_worker(served, array: BandedArray, mode: str) -> tuple:
    """Worker argv that scans the blocks in `served` and replies PASS to the rest."""
    sets = mode_sets(array.s, mode)
    firsts = {json.dumps(sorted(sets[len(sets) * k // BLOCKS])) for k in served}
    code = (
        f"import io, json, sys; sys.path.insert(0, {str(SRC)!r}); "
        "from sudoku_ooa.workers import serve; data = sys.stdin.buffer.read(); "
        "first = json.dumps(json.loads(data.split(b'\\n', 1)[0])['sets'][0]); "
        f"serve(io.BytesIO(data), sys.stdout) if first in {firsts!r} else print('PASS')"
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
    # Workers of later blocks are killed unread: a malformed reply there is no error.
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


def malformed(reply: str) -> str:
    return f"error: malformed reply from a row-set scan worker: {(reply + chr(10)).encode()!r}\n"


@pytest.mark.parametrize(
    "code,message",
    [
        ("import sys; sys.exit(3)", "error: a row-set scan worker exited with code 3\n"),
        ("print('PASS')", malformed("PASS")),
        ("print('{\"first\": null}')", malformed('{"first": null}')),  # the old reply
        ("print('{\"failing\": [0]}')", malformed('{"failing": [0]}')),  # set 0 passes
        ("print('{\"failing\": [-1]}')", malformed('{"failing": [-1]}')),
        ("print('{\"failing\": [10]}')", malformed('{"failing": [10]}')),  # the block has 10
        ("print('{\"failing\": [true]}')", malformed('{"failing": [true]}')),
        ("print('{\"failing\": [2, 1]}')", malformed('{"failing": [2, 1]}')),
        ("print('{\"failing\": [1, 1]}')", malformed('{"failing": [1, 1]}')),
        ("print('{\"failing\": 0}')", malformed('{"failing": 0}')),
        ("print('[0]')", malformed("[0]")),
    ],
    ids=[
        "exit-3",
        "not-json",
        "old-reply",
        "set-passes",
        "bad-index",
        "past-the-block",
        "bool-index",
        "decreasing",
        "repeated",
        "not-a-list",
        "not-an-object",
    ],
)
def test_failed_worker_is_an_error_not_a_verdict(tmp_path, monkeypatch, capsys, code, message):
    path = tmp_path / "a.txt"
    assert main(["construct", "--q", "3", "--s", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    before = children()
    monkeypatch.setattr(ooa, "PARALLEL_WORK", 0)
    monkeypatch.setattr(ooa, "_cpus", lambda: 2)
    monkeypatch.setattr(workers, "ARGV", (sys.executable, "-c", code))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", message)
    assert_no_new_child(before)


def test_reply_rules_hold_where_the_named_sets_fail(monkeypatch):
    # Every set of the block fails, so only the rule under test rejects a reply.
    array = corrupted(family_array(3), [(1, 1)])
    block = [rs for rs in top_justified_sets(array.s) if (1, 1) in rs][:3]
    finder = ooa.duplicate_finder(array)
    assert all(finder(rs) is not None for rs in block)

    def reply(failing):
        code = f"print({json.dumps({'failing': failing})!r})"
        monkeypatch.setattr(workers, "ARGV", (sys.executable, "-c", code))
        return workers.hits(workers.start(array, block, False), block, finder)

    assert reply([0, 2]) == [(0, finder(block[0])), (2, finder(block[2]))]
    assert reply([]) == []
    for failing in ([True], [2, 1], [1, 1], [0, 0, 2], 1, None, [1.0], [-3], [3], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="malformed reply"):
            reply(failing)


def test_worker_replies_once_and_stops_when_orphaned(tmp_path, monkeypatch):
    array = corrupted(family_array(3), [(1, 1)])
    sets = mode_sets(array.s, "ooa")

    def scan(parent, first_only):
        header = {
            "q": 3, "s": array.s, "parent": parent, "first_only": first_only,
            "sets": [sorted(rs) for rs in sets],
        }
        inp = tmp_path / "in"
        inp.write_bytes(json.dumps(header).encode() + b"\n" + b"".join(array.rows))
        out = tmp_path / "out"
        with inp.open("rb") as i, out.open("w") as o:
            workers.serve(i, o)
        return out.read_text()

    rebuilt = []

    def recording_finder(arr):
        rebuilt.append(arr)
        return ooa.duplicate_finder(arr)

    monkeypatch.setattr(workers, "duplicate_finder", recording_finder)
    failing = failing_indices(array, sets)
    assert failing[0] == 0 and len(failing) > 1
    for first_only, expected in ((True, [0]), (False, failing)):
        assert scan(os.getppid(), first_only) == json.dumps({"failing": expected}) + "\n"
        assert scan(-1, first_only) == ""
    assert rebuilt == [array] * 4
    assert all(type(row) is bytes for arr in rebuilt for row in arr.rows)


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
    rows = [list(r) for r in fx.PAIR3_M1.rows]
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
    # The split scan of the precondition sets runs to the end, and the
    # refusal is raised after it.
    array = assemble(grids)
    with pytest.raises(NotMutuallyOrthogonal, match=match):
        run_check(monkeypatch, array)


def test_worker_count_threshold(monkeypatch):
    monkeypatch.setattr(ooa, "_cpus", lambda: 2)
    assert ooa._worker_count(615, 16) == 2  # q = 16, ooa: 40.3 M tuples
    assert ooa._worker_count(53, 16) == 1  # q = 16, sa: 3.5 M
    assert ooa._worker_count(266, 13) == 1  # q = 13, ooa: 7.6 M
    monkeypatch.setattr(ooa, "_cpus", lambda: 64)
    assert ooa._worker_count(615, 16) == ooa.MAX_WORKERS <= 8
    monkeypatch.setattr(ooa, "_cpus", lambda: 1)
    assert ooa._worker_count(615, 16) == 1


def test_cpus_without_an_affinity_call(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert ooa._cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ooa._cpus() == 1


def test_cli_import_loads_no_worker_modules():
    # check-family's children spend most of their time starting up, so the
    # worker module and what only it needs are imported when a scan splits.
    # -S, since site may import tempfile on its own.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import sudoku_ooa.cli; "
        "print(' '.join(sorted({'sudoku_ooa.workers', 'json', 'subprocess', 'tempfile'}"
        " & set(sys.modules))))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


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
