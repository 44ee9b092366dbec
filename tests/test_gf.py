"""Field construction and arithmetic."""

from __future__ import annotations

import hashlib
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


@pytest.mark.parametrize(
    "q,expected",
    [
        (8, (1, 1, 0, 1)),
        (9, (1, 0, 1)),
        (25, (2, 0, 1)),
        (27, (1, 2, 0, 1)),
        (32, (1, 0, 1, 0, 0, 1)),
    ],
)
def test_minimal_modulus(q, expected):
    f = make_field(q)
    assert f.modulus == expected
    assert brute_irreducible(f.modulus, f.p)
    # Minimality: every smaller coefficient index gives a reducible polynomial.
    own_index = _from_digits(f.modulus[: f.k], f.p)
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
    # Element e is c_0 + c_1 x + ... + c_{k-1} x^(k-1), e's base-p digits,
    # in the field's own arithmetic: a digit c is the prime-field element c,
    # and x is the element p (or 0 in a prime field, whose modulus is x).
    f = make_field(q)
    x = f.p % f.q
    for e in range(f.q):
        total = 0
        for i, c in enumerate(_digits(e, f.p, f.k)):
            total = f.add(total, f.mul(c, f.pow(x, i)))
        assert total == e


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


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32])
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


# sha256 of bytes(modulus) + bytes(add table) + bytes(mul table), for every
# prime power q <= 256, as the fields were first built by polynomial
# multiplication and trial division.
TABLE_DIGESTS = {
    2: "112b5392a7231ed92c02d7ed84f77bd9166a037364b7cc0cba8e614220833f1f",
    3: "c4eb535d4db0d76e0fa4b2a5dcdf5f64ae0149cc757bd5e60d36aa9bc52ec7e5",
    4: "c00155ec7af20570ccf3aaef9def61a4e9af585606d605ad6d4afe39b58ba56b",
    5: "af8ff66e1941ab88f03674a9ed36067ff9d2a2623b2a206a5ff4b31003b69c9d",
    7: "11588b47e9917c9b2412abd08e43de6ff21199df40427b511c598e5c97947867",
    8: "3044cdc26a8983f2058427fac7a4154882ed0a0e03f51ef0aa4dfb511399e688",
    9: "fae1a0ec15807253438ece7898807a7df9c3d6af765aae0bcb2d66dd2e51d763",
    11: "371320c8326e969768ddfcb19df11da8912be2d9b96199e8b0df0b77ce60dab6",
    13: "a053b98a4a2d8e2cea8799f7830ff34ef7669829b13e9006c60bf4b8762761a3",
    16: "dc6ec785a09d1dae3bdca578f505cc9ea2612acf605294fc1ee79efb8654a6f8",
    17: "338fc88f04012dcdff580477318a40f4d548367174b86f809ea6cb694dced533",
    19: "41d20631eb5b92555f11aa728663f56fe4a32a4f449516a35b9087b2a45e26f9",
    23: "10f023709b38689749b2ebdfedaa62f79dc190221590ee8ddfa1929e530bd653",
    25: "d40d31b112254cb37d7e7c3c27c6cb06c59b4333ec55b8c57fecb6639a0a1ba0",
    27: "768dfd871ef206bf4ef34249494dc9aae44db858047a111c82e134ff2640cb04",
    29: "372e6f883e92081ed492c036023fd6772487d76c7ee200e7713ce48134ddced0",
    31: "ab2f29dd5dcfaff6231345997f6b19e5f261cdd55e727a711bbb51cfb0d90de1",
    32: "8486ee40febb5ed1b2e40182a323d44bc15b56f732de83b9191c7f2dc043dd25",
    37: "242276be6c2da2b8b85b5dd9802d58478a371347eebd433ddd9cadd1149bee92",
    41: "5165b22768893c5d66e52517a043bf4076e8928af2218d91ffb5d60dd7a063a6",
    43: "78ef010d890bac67f0b679c5c277a4e5c0c8fc3e39f47daa314c4c3531cc2a01",
    47: "2e44496656052812aa347fb3d3ef13a91fbbd039f626ec9f6d71c16896a2371d",
    49: "270f006f7c9a910ec2067e4440013c6d677e421714fe0f65deaa961bf0858595",
    53: "3fff47a10b4402106edc453d3e6b9e6c84ca63aff46874b6422c1611b2196086",
    59: "55f4929dbd3d7be1abc1ec70364184140a037b0935356bd6d1c1d6fb715d4240",
    61: "1f31a7c9ac7a8064f40e8c0221d6d0593debd98a088ec31d6399a187c109e0fb",
    64: "a2d7170ed0c516244041259766ac1c511319f34cdde0c9c2c4a3b87664c82c8f",
    67: "4bc8e656928f7cd6bc8b8487d6628c62017b415b8887779c9b924c6f3703a05b",
    71: "ccf9f9cdb35bb67c716d498d4e210244787294e3a11da58dd2e0179ca50eef5b",
    73: "9443acd6b6e1ae53f3dee4efeecab50392faf5906e486bbb3f6084a5ff826de2",
    79: "23a434d4e98b46ca81afa7d96ad89c09e424078dfa8b704ac0e655bda0954e8a",
    81: "959e6b45f81c8622602b8fd78096c4ae9017d49289bf3309a35cac84b0eda9dd",
    83: "57dc730357fa7dd8047c3e507bea6ef5abad9099be8654750ff05795019a8364",
    89: "8d57e6fe80356326aebd33e5f9144e7c8bcc7d2243a754ad400efa2b1c67d9c2",
    97: "0ec7f663b5ecc421306db0d129e93b6d91cf494af46d7ccfce65e9907dac5914",
    101: "f617500d1d294955779bfe0279f0c14ff679408124b341ab821264d903ee1331",
    103: "87367b329e4e416a84ca8aa55d3092ab8eb444580874a104bf5620e4730c8348",
    107: "d5c41a56cdccaa18d7ec0960284444ce68956ddf0e002965bbb2c2989dfe776f",
    109: "7132b88c2f3d28bc0f8d2e8681b44cf85107837ab9be06c49caf15c978f89823",
    113: "473b7a72fa6cd7b6757327a821ca2e68d11906bd2c9f5ce989fafa1986ebe11f",
    121: "05e7cb626a74972605a88f8549d4096cecf343965628b3153dbe847c64ec2f5c",
    125: "803d342f589ee3e9beab8d68a57e1753f03cfedf29f5c93f8203400afbc773dc",
    127: "3e39262dace58574a03d6f0e63f3786e01c1e974a1d56737c9a75a5d6a638ce7",
    128: "9e18a1b33b6545968d3861f3847e149ec806e36d3173c3625c904c69440995ce",
    131: "aa94db8f9d8effbe8c858b6b867cc58c615ee0c3e30f77c710d0cc76a8decba3",
    137: "1ee7241ee74cb421318f6a3e022d24b2261a86bba151eb7c5c9ef2b9400a80b2",
    139: "c6beeda884d1285157b91df63a428c658f69437ed54b84ea8bc07105744907e7",
    149: "df40fc8447dd14e1de766321901d28cbdedb5a76a974474da17e642a95c93473",
    151: "1f32b0462685c8b4ee427e37fc4897f43ef55e7834a8345f878339ef7f1e2121",
    157: "2bdce6ebae6dc6374efa8b1c67994b693f91eba9a774b4e084e5291bae142b6f",
    163: "9dde8e30cecb5399d2af8c3bfd948d2d362f4a74d87b5677e294dcae4b830b1f",
    167: "da463fa4d1ce2c99ea7260fad1c151aa620c96c634c589169f11d1742c5b9fee",
    169: "d84f872408e2fc5de3d62df5a29ff3305e54e14d8b856383fd671fed87cf8955",
    173: "dc1baf20ab9559ca75d98f85cdf86dcd261d708f0f9774a09747c6d424e7e177",
    179: "02ffc6e1e40bcb404abf9883b0ad579d097e98664e0332ab2f4ed35323389cf5",
    181: "fc27e74b49de8a84010cfd8b35295a3ccb057c7e98e85b963162424ea0d00aa7",
    191: "f6e6b83276b1b777761019334b161dcd2dbc26a7b14f107aa6fdb745e29479a8",
    193: "2b326b7d5437dd477efc3c6abd8a50140b7713f5211db96d0b771051a67f4fbf",
    197: "f20cd6f9149d9859cbed0416bbe1e830b722a44dc6e91ed7f81caacfc108c9bb",
    199: "d671c5dd5c99e8e366adefc44987e805ab5903bfab11d104e3c7f679417550e5",
    211: "67e1d217e42c095eb9f23d502b7ac914cb51df5e95e7f6adc1e0408d5aa716c1",
    223: "fc0c86bf479d087fe3ec3be35552f04ef9a38a4154a4ab5791b686c1713bc9fe",
    227: "ac095092ddcab9ebb64a787806396c4d2c8ad0dfe8c75f76ed5b05b5407f3964",
    229: "02539281ed6b9dc1f6e4b7f7593bb78f52c19318e919c68a6f360815ec836145",
    233: "7727225831ce28f8f95ed361af4b6a73a4d787d834373aac565e512c1c4fd293",
    239: "cf501dd9953ad6c242ce652e092642b13dca8edf75f199539b23301a94bc94de",
    241: "964ef7a957c9ece7e725ca11f6c5dd87328500c48f6be7723e96a7b5c0085459",
    243: "5d2d586ec8aa29eb11b1b30673780c6d1913fb732fc5fcca79fd4d1d834feea3",
    251: "67e20380fb58cfd9690c8057f02e0fb20429b8c37c9654de09603fe0aecab9bc",
    256: "bee39df06c82243f9e6116b35144573d714e00adb633a0cf7aa6938d7d792f36",
}


def test_exactly_the_prime_powers_up_to_256_make_fields():
    for q in range(2, 257):
        if q in TABLE_DIGESTS:
            assert make_field(q).q == q
        else:
            with pytest.raises(NotPrimePower, match=f"^{q} is not a prime power$"):
                make_field(q)


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_tables_match_pinned_digests(q):
    f = make_field(q)
    tables = bytes(f.modulus) + bytes(f._add_table) + bytes(f._mul_table)
    assert hashlib.sha256(tables).hexdigest() == TABLE_DIGESTS[q]
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0
        assert a == 0 or f.mul(a, f.inv(a)) == 1
