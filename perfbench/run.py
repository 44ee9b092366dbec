#!/usr/bin/env python3
"""Benchmark of the sudoku-ooa command line: construct, verify, check-family.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Each timed sample is a fresh `python -m sudoku_ooa.cli` child, one at a
time (a closed loop with one client), and every child's exit code and output
are checked.  `--trace 1` instead runs the same invocations in this process
three times: untraced, with spans around every layer boundary, and with
field operations counted.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The package is not installed: children get SRC on PYTHONPATH, this process
# gets it here.  Without the source tree there is nothing to measure.
if not (SRC / "sudoku_ooa" / "cli.py").is_file():
    sys.exit(f"error: no program source under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from inputs import (  # noqa: E402
    ARRAY_SHA256,
    CONSTRUCT_S,
    corrupt,
    corruptions,
    predict_fail_line,
    random_family,
    sha256_file,
)
from sudoku_ooa import cli  # noqa: E402
from sudoku_ooa.families import construct_family  # noqa: E402
from sudoku_ooa.files import array_from_text, array_to_text, flags_to_text  # noqa: E402
from sudoku_ooa.gf import make_field  # noqa: E402
from sudoku_ooa.ooa import BandedArray, assemble  # noqa: E402
from sudoku_ooa.sudoku import generate  # noqa: E402
from tracing import Recorder, counting_field_ops, layer_targets, layer_totals, patched  # noqa: E402

RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
SETUP_REPEATS = 5
STARTUP_PROBES = 5
INFO_Q2 = "q=2\np=2\nk=1\nmodulus=0,1\ngenerator=1\nmax_s=3\n"

# Orders of the random mutually orthogonal families in `check_family`, two
# families each at s = max_s.
RANDOM_FAMILY_SIZES = {7: 3, 8: 4, 9: 4, 11: 5}
FAMILIES_PER_ORDER = 2


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> problem or None
    key: tuple = ()  # identifies the output for cross-checks


@dataclass
class Workload:
    heavy: list[Invocation]  # the top-of-range group, reported as heavy_s
    light: list[Invocation]  # the rest, reported as light_s
    field_orders: tuple[int, ...]  # orders whose fields the invocations build
    cross_check: Callable[[dict], list[str]] | None = None
    problems: list[str] = field(default_factory=list)  # found while setting up


# -- children -------------------------------------------------------------------


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


class Spawner:
    """The small process (spawner.py) that starts and times every program child.

    Children run one at a time.  `close` ends the spawner; if a child is
    still running then, the spawner's process group is killed with it.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
        )

    def run(self, argv, work: Path) -> ChildResult:
        """One `python -m sudoku_ooa.cli` child, timed from spawn to reap."""
        out_path, err_path = work / "child.out", work / "child.err"
        request = {
            "argv": [sys.executable, "-m", "sudoku_ooa.cli", *argv],
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": max(1.0, self.deadline - time.monotonic()),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child spawner exited")
        reply = json.loads(line)
        return ChildResult(
            reply["code"], out_path.read_text(), err_path.read_text(),
            reply["wall_s"], reply["maxrss_kb"],
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


# -- output checks ----------------------------------------------------------------


def expect(code: int, stdout: str):
    def check(got_code: int, got_out: str) -> str | None:
        if (got_code, got_out) != (code, stdout):
            return f"expected exit {code} and {stdout!r}, got exit {got_code} and {got_out[-200:]!r}"
        return None

    return check


def expect_construct(q: int, s: int, out: Path):
    line = expect(0, f"CONSTRUCTED q={q} s={s} method=big\n")

    def check(code: int, stdout: str) -> str | None:
        why = line(code, stdout)
        if why is None and not (out.is_file() and sha256_file(out) == ARRAY_SHA256[q]):
            why = f"q={q} array is missing or differs from the pinned sha256"
        out.unlink(missing_ok=True)
        return why

    return check


def report_triples(stdout: str) -> list[tuple[str, str, str]]:
    return [tuple(ln.split()[:3]) for ln in stdout.splitlines()[:-1]]


def expect_report(must_pass: bool):
    def check(code: int, stdout: str) -> str | None:
        lines = stdout.splitlines()
        triples = report_triples(stdout)
        if not lines or any(len(t) < 3 for t in triples):
            return f"malformed condition report {stdout[-200:]!r}"
        failed = any(t[2] == "FAIL" for t in triples)
        verdict = "FAIL" if failed else "PASS"
        if (code, lines[-1]) != (int(failed), verdict):
            return f"report has FAIL={failed} but exit {code} and verdict {lines[-1]!r}"
        if must_pass and failed:
            return "a constructed family failed its conditions"
        return None

    return check


def levels_agree(outputs: dict) -> list[str]:
    """Algebraic and combinatorial reports must agree entry by entry."""
    problems = []
    for (path, level), out in outputs.items():
        other = outputs.get((path, "algebraic"))
        if level == "combinatorial" and other is not None:
            if report_triples(out) != report_triples(other):
                problems.append(f"{path}: algebraic and combinatorial reports disagree")
    return problems


# -- workloads --------------------------------------------------------------------


def source_key() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sudoku_ooa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cached_array(q: int) -> Path:
    """The max_s array of order q, built in this process once per source tree.

    Kept under .bench_work/cache between runs: at q = 16 it takes seconds.
    """
    path = WORK / "cache" / source_key() / f"array_q{q}.txt"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        fam = construct_family(q, CONSTRUCT_S[q])
        text = array_to_text(assemble([generate(d.flag()) for d in fam.data]))
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
    return path


def setup_construct(work: Path, seed: int) -> Workload:
    def inv(q):
        out = work / f"construct_q{q}.txt"
        argv = ["construct", "--q", str(q), "--s", str(CONSTRUCT_S[q]), "--emit", "array",
                "--out", str(out)]
        return Invocation(argv, expect_construct(q, CONSTRUCT_S[q], out))

    return Workload([inv(16)], [inv(q) for q in (9, 11, 13)], (9, 11, 13, 16))


def setup_verify(work: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    problems = []
    arrays = {q: cached_array(q) for q in (13, 16)}
    for q, path in arrays.items():
        if sha256_file(path) != ARRAY_SHA256[q]:
            problems.append(f"q={q} array differs from the pinned sha256")
    heavy = [Invocation(["verify", str(p), "--mode", "ooa"], expect(0, "PASS\n"))
             for p in arrays.values()]
    light = [Invocation(["verify", str(p), "--mode", "sa"], expect(0, "PASS\n"))
             for p in arrays.values()]
    array = array_from_text(arrays[13].read_text())
    q, s, rows = array.q, array.s, array.rows
    for band, column, digit in corruptions(rng, q, s, rows):
        path = work / f"corrupt_q{q}_band{band}.txt"
        path.write_text(array_to_text(BandedArray(q, s, corrupt(rows, band, column, digit))))
        line = predict_fail_line(rows, s, band, column, digit)
        light.append(Invocation(["verify", str(path), "--mode", "ooa"], expect(1, line + "\n")))
    return Workload(heavy, light, (), problems=problems)


def setup_check_family(work: Path, seed: int) -> Workload:
    rng = random.Random(seed)
    files = []  # (path, constructed)
    for q, s in CONSTRUCT_S.items():
        path = work / f"flags_constructed_q{q}.txt"
        path.write_text(flags_to_text(construct_family(q, s).data))
        files.append((path, True))
    for q, size in RANDOM_FAMILY_SIZES.items():
        for k in range(FAMILIES_PER_ORDER):
            path = work / f"flags_random_q{q}_{k}.txt"
            path.write_text(flags_to_text(random_family(rng, q, size)))
            files.append((path, False))

    def inv(path, level, constructed):
        argv = ["check-family", str(path), "--level", level]
        return Invocation(argv, expect_report(constructed), (str(path), level))

    # q = 16 alone takes ~26 s at the combinatorial level, so it is checked
    # algebraically only.
    heavy = [inv(p, "combinatorial", c) for p, c in files if "q16" not in p.name]
    light = [inv(p, "algebraic", c) for p, c in files]
    return Workload(heavy, light, (7, 8, 9, 11, 13, 16), levels_agree)


SETUPS = {
    "construct": setup_construct,
    "verify": setup_verify,
    "check_family": setup_check_family,
}


def set_up(name: str, work: Path, seed: int, spawner: Spawner) -> Workload:
    """Write the workload's inputs into a fresh `work`, then warm the
    interpreter's bytecode cache with one child, as an installed program has it."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = SETUPS[name](work, seed)
    warm = spawner.run(["info", "--q", "2"], work)
    if (warm.code, warm.stdout) != (0, INFO_Q2):
        raise RuntimeError(f"the program does not start: {warm.stderr.strip()[-500:]}")
    return workload


# -- timed runs -------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs: dict = {}

    def record(self, inv: Invocation, code: int, stdout: str) -> None:
        self.attempted += 1
        why = inv.check(code, stdout)
        if why is not None:
            self.failed += 1
            print(f"FAILED {' '.join(inv.argv)}: {why}", file=sys.stderr)
        if inv.key:
            self.outputs[inv.key] = stdout

    def cross_check(self, workload: Workload) -> None:
        problems = list(workload.problems)
        if workload.cross_check is not None:
            problems += workload.cross_check(self.outputs)
        for why in problems:
            print(f"FAILED check: {why}", file=sys.stderr)
        self.failed += len(problems)


def timed_run(workload: Workload, work: Path, seconds: float, spawner: Spawner, tally: Tally):
    """Alternate the heavy and light groups for `seconds`.

    Each group runs at least once; after that a group starts again only if
    its last duration still fits in the time left.
    """
    samples = {"heavy": [], "light": []}
    peak_kb = 0
    start = time.perf_counter()
    while True:
        ran = False
        for group in ("heavy", "light"):
            done = samples[group]
            if done and time.perf_counter() - start + done[-1] > seconds:
                continue
            total = 0.0
            for inv in getattr(workload, group):
                res = spawner.run(inv.argv, work)
                total += res.wall_s
                peak_kb = max(peak_kb, res.maxrss_kb)
                tally.record(inv, res.code, res.stdout)
            done.append(total)
            ran = True
        if not ran:
            break
    return samples, peak_kb


# -- traced run -------------------------------------------------------------------


def reset_caches() -> None:
    """Empty the package's memo caches, so each invocation starts as a fresh
    process would."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("sudoku_ooa."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def call_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def traced_run(workload: Workload, work: Path, spawner: Spawner, tally: Tally) -> dict:
    invocations = workload.heavy + workload.light
    rec = Recorder()
    plain_s = traced_s = 0.0
    for i, inv in enumerate(invocations):
        reset_caches()
        start = time.perf_counter()
        code, out = call_main(inv.argv)
        plain_s += time.perf_counter() - start
        tally.record(inv, code, out)

        reset_caches()
        rec.invocation = i
        with patched(layer_targets(rec)):
            start = time.perf_counter()
            code, out = call_main(inv.argv)
            traced_s += time.perf_counter() - start
        tally.record(inv, code, out)

    with counting_field_ops(rec.counts):
        for inv in invocations:
            reset_caches()
            tally.record(inv, *call_main(inv.argv))

    make_field_s = 0.0
    for q in workload.field_orders:
        reset_caches()
        start = time.perf_counter()
        make_field(q)
        make_field_s += time.perf_counter() - start

    probe = Invocation(["info", "--q", "2"], expect(0, INFO_Q2))
    startup = []
    for _ in range(STARTUP_PROBES):
        res = spawner.run(probe.argv, work)
        tally.record(probe, res.code, res.stdout)
        startup.append(res.wall_s)

    (WORK / f"spans_{work.name}.json").write_text(json.dumps(rec.as_json()))

    totals = layer_totals(rec.spans)
    counts = rec.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    verify_s = total_s("ooa.verify")
    return {
        "gf.add_calls": (counts["gf.add_calls"], "count"),
        "gf.mul_calls": (counts["gf.mul_calls"], "count"),
        "gf.neg_calls": (counts["gf.neg_calls"], "count"),
        "gf.inv_calls": (counts["gf.inv_calls"], "count"),
        "gf.make_field_s": (make_field_s, "s"),
        "linalg.coset_index_map_calls": (calls("linalg.coset_index_map"), "count"),
        "linalg.points_labeled": (counts["linalg.points_labeled"], "count"),
        "linalg.coset_index_map_s": (total_s("linalg.coset_index_map"), "s"),
        "linalg.intersect_calls": (calls("linalg.intersect"), "count"),
        "linalg.trivial_intersection_calls": (calls("linalg.trivial_intersection"), "count"),
        "linalg.det_calls": (calls("linalg.det"), "count"),
        "linalg.algebra_s": (
            total_s("linalg.intersect") + total_s("linalg.trivial_intersection")
            + total_s("linalg.det"),
            "s",
        ),
        "sudoku.generate_calls": (calls("sudoku.generate"), "count"),
        "sudoku.generate_self_s": (self_s("sudoku.generate"), "s"),
        "families.construct_family_s": (total_s("families.construct_family"), "s"),
        "ooa.assemble_s": (total_s("ooa.assemble"), "s"),
        "ooa.verify_s": (verify_s, "s"),
        "ooa.row_sets_checked": (counts["ooa.row_sets_checked"], "count"),
        "ooa.tuples_scanned": (counts["ooa.tuples_scanned"], "count"),
        "ooa.tuples_per_s": (counts["ooa.tuples_scanned"] / verify_s if verify_s else 0.0, "1/s"),
        "strong.check_algebraic_s": (total_s("strong.check_algebraic"), "s"),
        "strong.check_combinatorial_s": (total_s("strong.check_combinatorial"), "s"),
        "strong.conditions_evaluated": (counts["strong.conditions_evaluated"], "count"),
        "strong.conditions_failed": (counts["strong.conditions_failed"], "count"),
        "files.array_to_text_s": (total_s("files.array_to_text"), "s"),
        "files.bytes_written": (counts["files.bytes_written"], "bytes"),
        "files.array_from_text_s": (total_s("files.array_from_text"), "s"),
        "files.bytes_read": (counts["files.bytes_read"], "bytes"),
        "files.flags_from_text_s": (total_s("files.flags_from_text"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.startup_s": (statistics.median(startup), "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "ratio"),
        "trace.spans": (len(rec.spans), "count"),
    }


# -- entry point ------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still ends its spawner and children, in the finally below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    spawner = Spawner(time.monotonic() + RUN_LIMIT_S)
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            workload = set_up(args.workload, work, args.seed, spawner)
            setup_times.append(time.perf_counter() - start)
        if args.trace:
            metrics = traced_run(workload, work, spawner, tally)
        else:
            samples, peak_kb = timed_run(workload, work, args.seconds, spawner, tally)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "heavy_s": (statistics.median(samples["heavy"]), "s"),
                "light_s": (statistics.median(samples["light"]), "s"),
                "peak_rss_mb": (peak_kb / 1024, "MB"),
            }
        tally.cross_check(workload)
        if not args.trace:
            metrics["ok_frac"] = ((tally.attempted - tally.failed) / tally.attempted, "ratio")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
