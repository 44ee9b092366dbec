"""Seeded inputs for the benchmark and the outputs they must produce.

Everything here runs inside the benchmark process.  The program under test
only ever sees the files written from these values.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product

from sudoku_ooa.gf import make_field
from sudoku_ooa.linalg import det, mat_sub
from sudoku_ooa.strong import FlagData
from sudoku_ooa.sudoku import InvalidFlagData

# s = max_s for every order the workloads construct.
CONSTRUCT_S = {9: 6, 11: 7, 13: 8, 16: 10}

# sha256 of `construct --q <q> --s <max_s> --emit array` output.  The
# construction takes no seed, so these hold for every benchmark seed.
ARRAY_SHA256 = {
    9: "9a915a51c48f99aa87a4b5005b3fd9bfbc0c6e709bfaa6940b76735ea32115ae",
    11: "85174b9636cd7912a5bf73fbcd479395c13fe6526d569c3aa427b8d16417fe88",
    13: "fc3e0dc27ce48fac850ca2b2cb49b6e85f3d84cc4a2b2933a61c9235dea52ffd",
    16: "7766a077c5d377dd7b1b2f4e9a372140e35a12ee02ee0afeaa0757104d19172a",
}


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- random mutually orthogonal families ---------------------------------------


def random_family(rng: random.Random, q: int, size: int) -> list[FlagData]:
    """`size` valid flag data whose matrices differ pairwise by a nonsingular matrix.

    Rejection sampling: a candidate is kept when it is a valid datum and
    det(Γi - Γj) != 0 against every member kept so far.  Every valid datum
    yields a sudoku flag, so `generate` accepts each member.
    """
    field = make_field(q)
    members: list[FlagData] = []
    while len(members) < size:
        a, b, c, d, beta = (rng.randrange(q) for _ in range(5))
        try:
            cand = FlagData(field, a, b, c, d, beta)
        except InvalidFlagData:
            continue
        if all(det(field, mat_sub(field, cand.gamma, m.gamma)) != 0 for m in members):
            members.append(cand)
    return members


# -- corrupted arrays and the FAIL line they must produce ----------------------


def top_justified_order(s: int) -> list[tuple[tuple[int, int], ...]]:
    """4-row top-justified sets in the order `verify` scans them.

    Depth vectors (d_1..d_s) in {0,1,2}^s with sum 4, sorted by maximum depth
    and then lexicographically; each set as its sorted (band, depth) labels.
    """
    vectors = [v for v in product((0, 1, 2), repeat=s) if sum(v) == 4]
    vectors.sort(key=lambda v: (max(v), v))
    return [
        tuple((band, depth) for band, d in enumerate(v, start=1) for depth in range(1, d + 1))
        for v in vectors
    ]


def corrupt(rows, band: int, column: int, digit: int) -> tuple[tuple[int, ...], ...]:
    """Copy of the rows with row (band, 2) holding `digit` at `column`."""
    i = 2 * (band - 1) + 1
    row = list(rows[i])
    row[column] = digit
    return tuple(rows[:i]) + (tuple(row),) + tuple(rows[i + 1 :])


def predict_fail_line(rows, s: int, band: int, column: int, digit: int) -> str:
    """The `verify --mode ooa` FAIL line for rows corrupted by `corrupt`.

    The original rows must form an OOA.  Only row sets holding (band, 2) see
    the change, and the first of those in scan order repeats exactly one
    tuple: the corrupted column's new tuple, which the original array held at
    one other column.  `verify` reports the two columns in increasing order.
    """
    labels = next(rs for rs in top_justified_order(s) if (band, 2) in rs)
    picked = [rows[2 * (b - 1) + (d - 1)] for b, d in labels]
    new = tuple(digit if (b, d) == (band, 2) else r[column] for (b, d), r in zip(labels, picked))
    other = next(m for m in range(len(rows[0])) if tuple(r[m] for r in picked) == new)
    label_text = ",".join(f"({b},{d})" for b, d in labels)
    digits = "".join(str(x) for x in new)
    lo, hi = sorted((column, other))
    return f"FAIL rows {label_text} repeat tuple {digits} at columns {lo} and {hi}"


def corruptions(rng: random.Random, q: int, s: int, rows):
    """One seeded corruption per symbol band, as (band, column, digit).

    Every symbol band 3..s is used once, in seeded order, so the work a run
    does is the same for every seed; the seed picks the cell and the digit.
    """
    bands = list(range(3, s + 1))
    rng.shuffle(bands)
    out = []
    for band in bands:
        column = rng.randrange(q**4)
        old = rows[2 * (band - 1) + 1][column]
        digit = rng.choice([x for x in range(q) if x != old])
        out.append((band, column, digit))
    return out
