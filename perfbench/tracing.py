"""Spans around the calls into each layer, recorded from the benchmark's side.

The program is not changed: `layer_targets` replaces the names through
which one module calls the next (`cli.generate`, `sudoku.coset_index_map`,
`strong.det`, ...) with recording wrappers for the length of a `patched`
block.  Spans stay in memory until the run ends.

Field operations are too cheap to wrap inside a timed pass, so they are
counted in a pass of their own by `counting_field_ops`.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

from sudoku_ooa import cli, strong, sudoku
from sudoku_ooa.gf import Field
from sudoku_ooa.ooa import classify, top_justified_sets


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int


class Recorder:
    """Spans and counters of one traced pass; `invocation` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.invocation = 0
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name, fn, count=None):
        """`fn` recording a span per call; `count(counts, args, result)` runs after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.invocation))
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def as_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[sp.sid]):
            a, b = max(a, sp.start), min(b, sp.end)
            if b <= a:
                continue
            if run_end is not None and a <= run_end:
                run_end = max(run_end, b)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        if run_end is not None:
            covered += run_end - run_start
        out[sp.sid] = (sp.end - sp.start) - covered
    return out


def layer_totals(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total duration, total self time)."""
    own = self_times(spans)
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for sp in spans:
        t = totals[sp.name]
        t[0] += 1
        t[1] += sp.end - sp.start
        t[2] += own[sp.sid]
    return {name: tuple(t) for name, t in totals.items()}


@contextmanager
def patched(targets):
    """Set each (owner, attribute, value) for the block, then restore it."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- what each layer boundary counts -----------------------------------------


def _points_labeled(counts, args, result):
    counts["linalg.points_labeled"] += args[0].field.q ** 4


def _verify_work(counts, args, result):
    # Row sets and tuples `verify` scanned, from the scan order and the witness.
    array, mode = args
    sets = [
        rs for rs in top_justified_sets(array.s)
        if mode == "ooa" or classify(rs) == "sudoku-TJ"
    ]
    ncols = array.q**4
    if result.ok:
        checked, tuples = len(sets), len(sets) * ncols
    else:
        idx = sets.index(result.row_set)
        checked, tuples = idx + 1, idx * ncols + result.second_column + 1
    counts["ooa.row_sets_checked"] += checked
    counts["ooa.tuples_scanned"] += tuples


def _conditions(counts, args, result):
    statuses = [e.status for e in result.entries]
    counts["strong.conditions_evaluated"] += sum(st != "N/A" for st in statuses)
    counts["strong.conditions_failed"] += statuses.count("FAIL")


def _bytes_written(counts, args, result):
    counts["files.bytes_written"] += len(result)


def _bytes_read(counts, args, result):
    counts["files.bytes_read"] += len(args[0])


def layer_targets(rec: Recorder):
    """The module names to replace, each with a wrapper recording into `rec`."""

    def on(owner, attr, name, count=None):
        return (owner, attr, rec.wrap(name, getattr(owner, attr), count))

    return [
        on(cli, "main", "cli.main"),
        on(cli, "construct_family", "families.construct_family"),
        on(cli, "generate", "sudoku.generate"),
        on(cli, "assemble", "ooa.assemble"),
        on(cli, "verify", "ooa.verify", _verify_work),
        on(cli, "array_to_text", "files.array_to_text", _bytes_written),
        on(cli, "array_from_text", "files.array_from_text", _bytes_read),
        on(cli, "flags_from_text", "files.flags_from_text", _bytes_read),
        on(cli, "check_algebraic", "strong.check_algebraic", _conditions),
        on(cli, "check_combinatorial", "strong.check_combinatorial", _conditions),
        on(sudoku, "coset_index_map", "linalg.coset_index_map", _points_labeled),
        on(strong, "intersect", "linalg.intersect"),
        on(strong, "trivial_intersection", "linalg.trivial_intersection"),
        on(strong, "det", "linalg.det"),
    ]


@contextmanager
def counting_field_ops(counts: Counter):
    """Count every `Field.add/mul/neg/inv` call, including those made by
    `sub`, `div` and `pow`, into `counts["gf.<op>_calls"]`."""

    def counted(key, fn):
        def wrapper(self, *args):
            counts[key] += 1
            return fn(self, *args)

        return wrapper

    ops = ("add", "mul", "neg", "inv")
    with patched([(Field, op, counted(f"gf.{op}_calls", getattr(Field, op))) for op in ops]):
        yield
