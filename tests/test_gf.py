"""Field construction and arithmetic."""

from __future__ import annotations

import itertools

import pytest

from sudoku_ooa import (
    DivisionByZero,
    NotPrimePower,
    find_generator,
    make_field,
    multiplicative_order,
)

DESK_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def brute_irreducible(coeffs, p):
    """Irreducibility by multiplying out all factor pairs of lower degree."""
    k = len(coeffs) - 1
    polys = {
        d: [digits + (1,) for digits in itertools.product(range(p), repeat=d)]
        for d in range(1, k)
    }
    for d1 in range(1, k):
        d2 = k - d1
        if d2 < 1:
            continue
        for f1 in polys[d1]:
            for f2 in polys[d2]:
                prod = [0] * (k + 1)
                for i, x in enumerate(f1):
                    for j, y in enumerate(f2):
                        prod[i + j] = (prod[i + j] + x * y) % p
                if tuple(prod) == tuple(coeffs):
                    return False
    return True


def test_make_field_prime():
    f = make_field(3)
    assert (f.p, f.k) == (3, 1)
    assert f.modulus == (0, 1)


def test_make_field_four():
    f = make_field(4)
    assert (f.p, f.k) == (2, 2)
    assert f.modulus == (1, 1, 1)
    assert brute_irreducible(f.modulus, 2)


def test_make_field_rejects_composite():
    with pytest.raises(NotPrimePower):
        make_field(6)
    with pytest.raises(NotPrimePower):
        make_field(12)
    with pytest.raises(NotPrimePower):
        make_field(1)


@pytest.mark.parametrize("q,expected", [(8, (1, 1, 0, 1)), (9, (1, 0, 1))])
def test_minimal_modulus(q, expected):
    f = make_field(q)
    assert f.modulus == expected
    assert brute_irreducible(f.modulus, f.p)
    # Minimality: every smaller coefficient index gives a reducible polynomial.
    own_index = f.index(f.modulus[: f.k])
    for idx in range(own_index):
        coeffs = tuple(_digits(idx, f.p, f.k)) + (1,)
        assert not brute_irreducible(coeffs, f.p)


def test_make_field_deterministic():
    assert make_field(8).modulus == make_field(8).modulus
    assert make_field(9) == make_field(9)


def test_arith_examples():
    f3 = make_field(3)
    assert f3.inv(2) == 2
    f4 = make_field(4)
    assert f4.mul(2, 2) == 3  # x * x = x + 1
    assert f4.inv(2) == 3
    f7 = make_field(7)
    assert f7.add(3, 5) == 1
    assert f7.pow(3, 6) == 1 and f7.pow(3, 0) == 1
    with pytest.raises(ValueError, match="negative exponent"):
        f7.pow(3, -1)


def test_division_by_zero():
    f = make_field(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.mul(3, f.inv(0))


@pytest.mark.parametrize("q", DESK_ORDERS)
def test_index_coeff_roundtrip(q):
    f = make_field(q)
    for e in range(f.q):
        assert f.index(_digits(e, f.p, f.k)) == e
    assert f.index((0,) * f.k) == 0
    assert f.index((1,) + (0,) * (f.k - 1)) == 1


@pytest.mark.parametrize("q", DESK_ORDERS)
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    els = list(range(f.q))
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if b:
                assert f.mul(f.mul(a, f.inv(b)), b) == a
    for a, b, c in itertools.product(els, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q,expected", [(2, 1), (7, 3), (9, 4)])
def test_find_generator_examples(q, expected):
    f = make_field(q)
    g = find_generator(f)
    assert g == expected
    # Order verified by the brute-force power walk.
    assert multiplicative_order(f, g) == q - 1
    for smaller in range(1, g):
        assert multiplicative_order(f, smaller) < q - 1


@pytest.mark.parametrize("q", DESK_ORDERS)
def test_generator_order(q):
    f = make_field(q)
    assert multiplicative_order(f, find_generator(f)) == q - 1


def _digits(a, p, k):
    return [a // p**i % p for i in range(k)]


def _from_digits(cs, p):
    return sum(c % p * p**i for i, c in enumerate(cs))


def _schoolbook_mul(f, a, b):
    """Product of the coefficient polynomials, reduced by the monic f.modulus."""
    p, k = f.p, f.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_digits(a, p, k)):
        for j, y in enumerate(_digits(b, p, k)):
            prod[i + j] += x * y
    for top in range(2 * k - 2, k - 1, -1):
        # x^top = -x^(top-k) * (m_0 + m_1 x + ... + m_{k-1} x^(k-1))
        c, prod[top] = prod[top], 0
        for i, m in enumerate(f.modulus[:k]):
            prod[top - k + i] -= c * m
    return _from_digits(prod[:k], p)


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_tables_match_reference_arithmetic(q):
    f = make_field(q)
    p, k = f.p, f.k
    for a in range(f.q):
        assert f.neg(a) == _from_digits([-x for x in _digits(a, p, k)], p)
        for b in range(f.q):
            digit_sum = [x + y for x, y in zip(_digits(a, p, k), _digits(b, p, k))]
            assert f.add(a, b) == _from_digits(digit_sum, p)
            assert f.mul(a, b) == _schoolbook_mul(f, a, b)


@pytest.mark.parametrize("q", [257, 1024, 65537])
def test_orders_above_256_are_refused(q):
    with pytest.raises(NotPrimePower, match="at most 256"):
        make_field(q)
