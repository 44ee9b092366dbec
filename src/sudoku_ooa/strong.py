"""Strong-orthogonality checkers for families of sudoku solutions.

A family of s-2 mutually orthogonal sudoku solutions is strongly orthogonal
when it satisfies a tiered condition system; the tiers activate at family
parameters s >= 3, 4, 5, 6.  The README's "Condition system" table lists each
condition with its index range and both of its tests.  Two independent
checkers evaluate the system:

* ``check_algebraic`` works on flag data alone, through 2x2/3x3 determinants
  and subspace intersections;
* ``check_combinatorial`` works on the family's assembled banded array: it
  runs the exhaustive exactly-once test on every top-justified row set, and
  each condition reads the verdicts of the one to three sets that
  ``ROW_SETS`` assigns to it.  This is the paper's
  correspondence: the family is strongly orthogonal exactly when its array
  is an OOA(4,s,2,q).

Each checker reads s from its input, as the number of members plus 2.  Both
map each condition label, and the mutual-orthogonality precondition ``orth``,
to a function from an index tuple to a witness (or None), and ``_report``
turns that map into a ConditionReport keyed by label and index tuple; the two
must agree verdict-for-verdict on families generated from flag data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .linalg import Subspace, det, intersect, mat_sub, subspace_from, trivial_intersection
from .ooa import BandedArray, failing_sets, repeat_text, top_justified_sets
from .sudoku import FlagData, datum_violation, subspace_gamma


class NotMutuallyOrthogonal(ValueError):
    """The family is not a set of mutually orthogonal sudoku solutions."""


CONDITION_LABELS = ("i", "ii.a", "ii.b", "ii.c", "iii.a", "iii.b", "iii.c", "iv")


def large_row_matrix(di: FlagData, dj: FlagData):
    """3x3 matrix whose nonsingularity is the large-row orthogonality test."""
    return (
        (1, 1, 1),
        (di.b, 0, dj.b),
        (di.d, di.beta, dj.d),
    )


def large_col_matrix(di: FlagData, dj: FlagData):
    """3x3 matrix whose nonsingularity is the large-column orthogonality test.

    Each member's entries a and b are scaled by delta = det(gamma)^-1.
    """
    f = di.field
    delta_i, delta_j = (f.inv(det(f, d.gamma)) for d in (di, dj))
    return (
        (f.mul(di.b, delta_i), 0, f.mul(dj.b, delta_j)),
        (f.mul(di.a, delta_i), f.inv(di.beta), f.mul(dj.a, delta_j)),
        (1, 1, 1),
    )


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    label: str
    indices: tuple[int, ...]
    status: str  # "PASS" | "FAIL" | "N/A"
    witness: str | None = None


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts for one family, in deterministic label order."""

    entries: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(e.status != "FAIL" for e in self.entries)

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            idx = ",".join(str(i) for i in e.indices) if e.indices else "-"
            line = f"{e.label} {idx} {e.status}"
            if e.witness:
                line += f" {e.witness}"
            lines.append(line)
        return "\n".join(lines)


def condition_index_tuples(label: str, n: int) -> list[tuple[int, ...]]:
    """Index tuples (1-based, over n family members) a condition ranges over."""
    if label == "i":
        return [(t,) for t in range(1, n + 1)]
    if label in ("orth", "ii.a"):
        return [(i, j) for i, j in combinations(range(1, n + 1), 2)]
    if label in ("ii.b", "ii.c"):
        return [(i, j) for i, j in permutations(range(1, n + 1), 2)]
    if label in ("iii.a", "iii.b", "iii.c"):
        return [
            (i, j, k)
            for i, j in combinations(range(1, n + 1), 2)
            for k in range(1, n + 1)
            if k not in (i, j)
        ]
    if label == "iv":
        out = []
        for quad in combinations(range(1, n + 1), 4):
            w, x, y, z = quad
            out.extend([(w, x, y, z), (w, y, x, z), (w, z, x, y)])
        return out
    raise ValueError(f"unknown condition label {label!r}")


def _report(n: int, checks) -> ConditionReport:
    """Report on n members: checks maps label -> fn(*indices) -> witness-or-None.

    The precondition ``orth`` is walked first, over every pair of members; a
    witness there raises NotMutuallyOrthogonal.  A condition label with no
    index tuples over the n members is reported N/A, and its function is not
    called.
    """
    if n < 1:
        raise ValueError("a family needs at least one member")
    entries = []
    for i, j in condition_index_tuples("orth", n):
        why = checks["orth"](i, j)
        if why is not None:
            raise NotMutuallyOrthogonal(f"members {i} and {j}: {why}")
        entries.append(ConditionResult("orth", (i, j), "PASS"))
    for label in CONDITION_LABELS:
        tuples = condition_index_tuples(label, n)
        if not tuples:
            entries.append(ConditionResult(label, (), "N/A"))
        for idx in tuples:
            witness = checks[label](*idx)
            status = "PASS" if witness is None else "FAIL"
            entries.append(ConditionResult(label, idx, status, witness))
    return ConditionReport(tuple(entries))


# -- algebraic checker --------------------------------------------------------


def check_algebraic(data) -> ConditionReport:
    """Evaluate the condition system on flag data alone.

    Mutual orthogonality (pairwise nonsingular matrix differences) is a
    precondition and is verified first; its verdicts appear under the label
    ``orth``.
    """
    data = list(data)
    if not data:
        raise ValueError("a family needs at least one member")
    f = data[0].field
    if any(d.field != f for d in data):
        raise ValueError("flag data lie over different fields")
    n = len(data)

    symbol_spaces, radix_spaces = zip(*(d.spaces() for d in data))
    # Location spaces of the top large row and the left large column.
    top_large_row = subspace_from(f, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    left_large_col = subspace_from(f, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])

    # Composite symbol spaces and their matrix data, by intersection.
    inter = {
        (i, j): intersect(radix_spaces[i - 1], radix_spaces[j - 1])
        for i, j in combinations(range(1, n + 1), 2)
    }
    gammas = {pair: subspace_gamma(w) for pair, w in inter.items()}

    row_cuts = [intersect(v, top_large_row) for v in radix_spaces]
    col_cuts = [intersect(v, left_large_col) for v in radix_spaces]

    def nonsingular(m, what: str) -> str | None:
        return None if det(f, m) != 0 else f"{what} is singular"

    def apart(u: Subspace, w: Subspace, what: str) -> str | None:
        return None if trivial_intersection(u, w) else what

    def pair_matrix(matrix, what: str):
        return lambda i, j: nonsingular(matrix(data[i - 1], data[j - 1]), what)

    def misses_cut(cuts, what: str):
        return lambda i, j, k: apart(inter[(i, j)], cuts[k - 1], what)

    def member_datum(t):
        # FlagData is validated at construction, so this re-states validity.
        d = data[t - 1]
        return datum_violation(f, d.a, d.b, d.c, d.d, d.beta)

    def composite_datum(i, j):
        gm = gammas[(i, j)]
        if gm is None:
            return "composite space has no matrix datum"
        if det(f, gm) == 0:
            return "composite matrix is singular"
        return "composite matrix has b = 0" if gm[0][1] == 0 else None

    def composite_vs_member(i, j, k):
        gm = gammas[(i, j)]
        if gm is None:
            why = "composite space meets member k's symbol space"
            return apart(inter[(i, j)], symbol_spaces[k - 1], why)
        return nonsingular(mat_sub(f, gm, data[k - 1].gamma), "composite-minus-member matrix")

    def composite_vs_composite(i, j, k, l):
        gm1, gm2 = gammas[(i, j)], gammas[(k, l)]
        if gm1 is None or gm2 is None:
            return apart(inter[(i, j)], inter[(k, l)], "the two composite spaces meet")
        return nonsingular(mat_sub(f, gm1, gm2), "composite difference matrix")

    return _report(n, {
        "orth": lambda i, j: nonsingular(
            mat_sub(f, data[i - 1].gamma, data[j - 1].gamma), "matrix difference"
        ),
        "i": member_datum,
        "ii.a": composite_datum,
        "ii.b": pair_matrix(large_row_matrix, "large-row matrix"),
        "ii.c": pair_matrix(large_col_matrix, "large-column matrix"),
        "iii.a": misses_cut(row_cuts, "meets the top-large-row cut of member k"),
        "iii.b": misses_cut(col_cuts, "meets the left-large-column cut of member k"),
        "iii.c": composite_vs_member,
        "iv": composite_vs_composite,
    })


# -- combinatorial checker ----------------------------------------------------

# Rows of the assembled array as (band, depth) labels: X1..X4 carry the
# location digits (x1, x2, x3, x4), _R(t) is member t's radix row and _M(t)
# both rows of its band.
X1, X2, X3, X4 = (1, 1), (1, 2), (2, 1), (2, 2)


def _R(t: int) -> tuple[int, int]:
    return (t + 2, 1)


def _M(t: int) -> tuple[tuple[int, int], ...]:
    return (t + 2, 1), (t + 2, 2)


# Label -> function from an index tuple to the top-justified row sets whose
# exactly-once tests make up the condition, in scan order.  "sudoku" (member
# t is a sudoku solution) and "orth" are the preconditions.  The README's
# "Condition system" table gives each set's form.
ROW_SETS = {
    "sudoku": lambda t: [{X1, X2, *_M(t)}, {X3, X4, *_M(t)}, {X1, X3, *_M(t)}],
    "orth": lambda i, j: [{*_M(i), *_M(j)}],
    "i": lambda t: [{X1, X2, X3, _R(t)}, {X1, X3, X4, _R(t)}],
    "ii.a": lambda i, j: [{x, y, _R(i), _R(j)} for x, y in ((X1, X2), (X3, X4), (X1, X3))],
    "ii.b": lambda i, j: [{X1, _R(i), *_M(j)}],
    "ii.c": lambda i, j: [{X3, _R(i), *_M(j)}],
    "iii.a": lambda i, j, k: [{X1, _R(i), _R(j), _R(k)}],
    "iii.b": lambda i, j, k: [{X3, _R(i), _R(j), _R(k)}],
    "iii.c": lambda i, j, k: [{_R(i), _R(j), *_M(k)}],
    "iv": lambda i, j, k, l: [{_R(i), _R(j), _R(k), _R(l)}],
}


def check_combinatorial(array: BandedArray) -> ConditionReport:
    """Evaluate the condition system on a family's array by exhaustive enumeration.

    The array is read as ``assemble`` lays it out: bands 3..s are the members,
    and column m holds grid cell (m // q^2, m % q^2).  Every top-justified set
    is scanned once, by ``verify``'s driver ``failing_sets``, and each
    condition reads the verdicts of its ``ROW_SETS``; these are all the
    top-justified sets but the location rows', so a set outside the scan is a
    KeyError, never a pass.  A failing set's witness names its first repeated
    tuple and the grid cells of the two columns that carry it.  The members
    must be mutually orthogonal sudoku solutions; that precondition is
    verified first and its pair verdicts appear under the label ``orth``.
    """
    n = array.s - 2
    side = array.q**2
    sets = top_justified_sets(array.s)
    witnesses = dict.fromkeys(sets)
    for index, (dup, first, second) in failing_sets(array, sets, first_only=False):
        where = f"cells {divmod(first, side)} and {divmod(second, side)}"
        witnesses[sets[index]] = repeat_text(sets[index], dup, where)

    def check(label):
        return lambda *idx: next(
            filter(None, (witnesses[frozenset(rs)] for rs in ROW_SETS[label](*idx))), None
        )

    for t in range(1, n + 1):
        why = check("sudoku")(t)
        if why is not None:
            raise NotMutuallyOrthogonal(f"member {t} is not a sudoku solution: {why}")
    return _report(n, {label: check(label) for label in ROW_SETS})
