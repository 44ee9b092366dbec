"""Family constructions and the dispatcher."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from sudoku_ooa import (
    InvalidS,
    NotPrimePower,
    SOutOfRange,
    big_family,
    check_algebraic,
    construct_family,
    make_field,
    max_guaranteed_s,
    select_S,
    substrong_family,
)
from sudoku_ooa.families import SUBSTRONG_ALPHA


def brute_inverse(field, a):
    return next(b for b in range(field.q) if field.mul(a, b) == 1)


def test_substrong_family_gf2():
    fam = substrong_family(2)
    assert len(fam.data) + 2 == 3
    (d,) = fam.data
    assert (d.a, d.b, d.c, d.d, d.beta) == (1, 1, 0, 1, 1)


def test_substrong_family_gf3_matches_known_pair():
    fam = substrong_family(3)
    assert SUBSTRONG_ALPHA == 2
    assert [(d.a, d.b, d.c, d.d, d.beta) for d in fam.data] == [
        (2, 1, 0, 2, 1),
        (1, 1, 0, 1, 2),
    ]


def test_substrong_family_gf4():
    fam = substrong_family(4)
    f = fam.data[0].field
    assert len(fam.data) == 3
    assert [d.beta for d in fam.data] == [1, 2, 3]
    for d in fam.data:
        ai = f.mul(2, d.beta)
        assert d.d == ai
        assert d.a == brute_inverse(f, ai)
        assert (d.b, d.c) == (1, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_substrong_family_size(q):
    assert len(substrong_family(q).data) == max(1, q - 1)


def test_big_family_gf7():
    fam = big_family(7, (1, 3, 5))
    assert tuple(d.beta for d in fam.data) == (1, 3, 5)
    f = fam.data[0].field
    for d, i in zip(fam.data, (1, 3, 5)):
        assert (d.a, d.b, d.c, d.beta) == (i, 1, 0, i)
        assert d.d == brute_inverse(f, i)
    assert check_algebraic(fam.data).passed


def test_big_family_invalid_pairs():
    with pytest.raises(InvalidS, match=r"\(1, 4\): i \+ j = 0"):
        big_family(5, (1, 4))
    with pytest.raises(InvalidS, match=r"\(2, 3\): i \+ j = 0"):
        big_family(5, (2, 3))
    with pytest.raises(InvalidS, match=r"i \* j = -1"):
        big_family(7, (2, 3))
    with pytest.raises(InvalidS, match="nonzero"):
        big_family(5, (0, 2))


def test_select_S_examples():
    assert select_S(4) == (1, 2)
    assert select_S(5) == (1, 2)
    assert select_S(7) == (1, 3, 5)


# sha256 of the lines f"{q}:{members}\n", members comma-separated, over the
# 68 prime powers 4 <= q <= 256.
SELECT_S_DIGEST = "11b4bc51dc69100be777ad7eecb58213665b0643ace1a8ce85a1d95c441ca81c"


def test_select_S_is_pinned_for_every_prime_power_up_to_256():
    lines = []
    for q in range(4, 257):
        try:
            make_field(q)
        except NotPrimePower:
            continue
        lines.append(f"{q}:{','.join(map(str, select_S(q)))}\n")
    assert len(lines) == 68
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SELECT_S_DIGEST


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_select_S_size_and_validity(q):
    members = select_S(q)
    expected = q // 2 if q % 2 == 0 else (q - 1) // 2
    assert len(members) == expected
    f = make_field(q)
    minus_one = f.neg(1)
    for i, j in itertools.combinations(members, 2):
        assert f.add(i, j) != 0
        assert f.mul(i, j) != minus_one


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_big_family_over_select_S_passes_all_conditions(q):
    members = select_S(q)
    fam = big_family(q, members)
    report = check_algebraic(fam.data)
    assert report.passed


def test_select_S_needs_q_at_least_4():
    with pytest.raises(SOutOfRange):
        select_S(3)


def test_construct_family_dispatch():
    with pytest.raises(SOutOfRange, match="OOA\\(4,4,2,2\\)"):
        construct_family(2, 4)
    fam = construct_family(3, 4)
    assert fam.method == "substrong"
    assert [(d.a, d.b, d.c, d.d, d.beta) for d in fam.data] == [
        (2, 1, 0, 2, 1),
        (1, 1, 0, 1, 2),
    ]
    fam9 = construct_family(9, 6)
    assert fam9.method == "big"
    assert len(fam9.data) == 4
    fam7 = construct_family(7, 5)
    assert tuple(d.beta for d in fam7.data) == (1, 3, 5)


def test_construct_family_out_of_range():
    with pytest.raises(SOutOfRange):
        construct_family(5, 5)
    with pytest.raises(SOutOfRange):
        construct_family(3, 5)
    with pytest.raises(SOutOfRange):
        construct_family(9, 7)
    with pytest.raises(SOutOfRange):
        construct_family(4, 2)
    with pytest.raises(NotPrimePower):
        construct_family(6, 3)


def test_truncation_is_canonical_prefix():
    full = select_S(9)
    fam = construct_family(9, 5)
    assert tuple(d.beta for d in fam.data) == full[:3]


def test_max_guaranteed_s():
    assert max_guaranteed_s(2) == 3
    assert max_guaranteed_s(3) == 4
    assert max_guaranteed_s(4) == 4
    assert max_guaranteed_s(5) == 4
    assert max_guaranteed_s(7) == 5
    assert max_guaranteed_s(8) == 6
    assert max_guaranteed_s(9) == 6



@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_construct_family_reaches_exactly_max_guaranteed_s(q):
    top = max_guaranteed_s(q)
    assert len(construct_family(q, top).data) + 2 == top
    message = r"OOA\(4,4,2,2\) does not exist" if q == 2 else f"; the largest is {top}$"
    with pytest.raises(SOutOfRange, match=message):
        construct_family(q, top + 1)
