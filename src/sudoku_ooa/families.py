"""Explicit strongly/substrongly orthogonal families of flag data.

Two constructions are provided: a size q-1 family that satisfies the s <= 4
tiers of the condition system (substrong), and a family over a subset S of
the multiplicative group satisfying all tiers whenever S avoids pairs with
i + j = 0 or i*j = -1 (big).  ``construct_family`` dispatches between them
for a requested array parameter s.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .gf import find_generator, make_field
from .sudoku import FlagData


class InvalidS(ValueError):
    """The index set for the big construction violates a pairwise condition."""


class SOutOfRange(ValueError):
    """No construction is available for the requested (q, s)."""


class FamilySpec(namedtuple("FamilySpec", "method data")):
    """A constructed family: the method that built it ("substrong" or "big")
    and its s-2 flag data."""

    __slots__ = ()


# The substrong family's alpha: the smallest element outside {0, 1}.
SUBSTRONG_ALPHA = 2


def substrong_family(q: int) -> FamilySpec:
    """Size q-1 family passing the s <= 4 condition tiers.

    For q = 2 the single datum has matrix (1 1; 0 1) and beta = 1.  For
    q > 2, alpha is the smallest element outside {0, 1} and member i in F^x
    has matrix ((alpha*i)^-1, 1; 0, alpha*i) with beta = i, ordered by i.
    """
    f = make_field(q)
    if q == 2:
        return FamilySpec("substrong", (FlagData(f, 1, 1, 0, 1, 1),))
    data = tuple(
        FlagData(f, f.inv(f.mul(SUBSTRONG_ALPHA, i)), 1, 0, f.mul(SUBSTRONG_ALPHA, i), i)
        for i in range(1, q)
    )
    return FamilySpec("substrong", data)


def big_family(q: int, members) -> FamilySpec:
    """Family over S with matrices (i, 1; 0, i^-1) and beta = i for i in S.

    S must avoid 0 and every distinct pair must have i + j != 0 and
    i*j != -1.
    """
    f = make_field(q)
    s_sorted = tuple(sorted(set(int(i) for i in members)))
    minus_one = f.neg(1)
    for i in s_sorted:
        if not 0 < i < q:
            raise InvalidS(f"{i} is not a nonzero element of the field of order {q}")
    for i, j in combinations(s_sorted, 2):
        if f.add(i, j) == 0:
            raise InvalidS(f"pair ({i}, {j}): i + j = 0")
        if f.mul(i, j) == minus_one:
            raise InvalidS(f"pair ({i}, {j}): i * j = -1")
    data = tuple(FlagData(f, i, 1, 0, f.inv(i), i) for i in s_sorted)
    return FamilySpec("big", data)


def select_S(q: int) -> tuple[int, ...]:
    """Deterministic maximal index set for the big construction.

    Even q: 1 together with the smaller member of every inverse pair, giving
    q/2 elements.  Odd q: powers alpha^k of the smallest generator for
    -floor((q-3)/4) <= k <= floor((q-1)/4), exponents taken mod q - 1, giving
    (q-1)/2 elements: {0, +-1, ..., +-n} when q - 1 = 4n + 2, and
    {0, +-1, ..., +-(n-1), n} when q - 1 = 4n.  The output is checked against
    the pairwise conditions rather than assumed to satisfy them.
    """
    if q < 4:
        raise SOutOfRange(f"the big construction needs q >= 4, got {q}")
    f = make_field(q)
    if q % 2 == 0:
        chosen = [1]
        for i in range(2, q):
            if i <= f.inv(i):
                chosen.append(i)
    else:
        alpha = find_generator(f)
        exponents = range(-((q - 3) // 4), (q - 1) // 4 + 1)
        chosen = [f.pow(alpha, k % (q - 1)) for k in exponents]
    out = tuple(sorted(chosen))
    big_family(q, out)  # verifies the pairwise conditions
    return out


def construct_family(q: int, s: int) -> FamilySpec:
    """Family of s-2 flag data whose sudoku array is an OOA(4,s,2,q).

    Uses the substrong construction for s <= 4 and a prefix of select_S for
    larger s; raises SOutOfRange outside 3 <= s <= max_guaranteed_s(q).
    """
    make_field(q)  # raises NotPrimePower early
    if s < 3:
        raise SOutOfRange(f"s must be at least 3, got {s}")
    if q == 2 and s == 4:
        raise SOutOfRange("an OOA(4,4,2,2) does not exist; the largest s for q = 2 is 3")
    largest = max_guaranteed_s(q)
    if s > largest:
        raise SOutOfRange(f"no construction for q = {q} reaches s = {s}; the largest is {largest}")
    if s <= 4:
        fam = substrong_family(q)
        return FamilySpec(fam.method, fam.data[: s - 2])
    return big_family(q, select_S(q)[: s - 2])


def max_guaranteed_s(q: int) -> int:
    """Largest s the constructions reach: 3 for q = 2, else max(4, floor((q+4)/2)).

    The substrong family reaches s = 4 for every q >= 3; the big family
    reaches len(select_S(q)) + 2 = floor((q+4)/2).
    """
    make_field(q)
    if q == 2:
        return 3
    return max(4, (q + 4) // 2)
