"""Exact, table-driven arithmetic in GF(p**k) for orders 2..256.

Field elements are plain integers (canonical indices): the element with
polynomial coefficients (c0, c1, ..., c_{k-1}), constant term first, has
index sum(c_i * p**i).  Index 0 is zero and index 1 is one, so for prime
fields the index is just the residue.  Each field precomputes add, neg, mul
and inv tables when it is made, so every operation is one list lookup.
Larger orders are refused: a q = 257 array would have 4.4e9 columns.

The tables come from the definition of Z_p[x]/(m), with no polynomial
arithmetic.  The sum table adds the constant digits mod p and reads the sum
of the higher digits from an earlier row.  The product table follows one
rule per row: a*b = a*(b-1) + a when b's constant digit is nonzero, and
a*b = x*(a*(b // p)) otherwise, where multiplying by x shifts the digits up
one place and reduces x^k by the modulus.  The modulus is the first monic
degree-k candidate, in index order, whose product table has no zero
divisor, which is the first irreducible one.  Negatives and inverses are the
positions of 0 and 1 in the rows of the two tables.
"""

from __future__ import annotations

from functools import lru_cache

MAX_ORDER = 256  # largest field order make_field accepts


class NotPrimePower(ValueError):
    """The requested field order is not p**k for a prime p, or exceeds MAX_ORDER."""


class DivisionByZero(ZeroDivisionError):
    """Inversion of, or division by, the zero element."""


# Error messages quote at most this many characters of an input.
_QUOTE_LIMIT = 40


def _quote(text: str) -> str:
    """repr of the text, cut to its first _QUOTE_LIMIT characters if longer."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _decimal(n: int) -> str:
    """n in decimal, or cut by ``_quote`` when longer than _QUOTE_LIMIT."""
    text = str(n)
    return text if len(text) <= _QUOTE_LIMIT else _quote(text)


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePower(f"field order must be at least 2, got {_decimal(q)}")
    if q > MAX_ORDER:
        raise NotPrimePower(f"field order must be at most {MAX_ORDER}, got {_decimal(q)}")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the smallest divisor is prime
    k = 1
    while p**k < q:
        k += 1
    if p**k != q:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, k


def _sum_table(p: int, q: int) -> list[int]:
    """Table of a + b at a*q + b in GF(q), q = p**k, for any modulus.

    The constant digit of a + b is (a + b) % p, and its higher digits are the
    sum of a // p and b // p, whose index is below q / p; that sum sits in
    row a // p, which is row 0 (the identity) or a row before row a.
    """
    add = list(range(q))
    for a in range(1, q):
        up = a // p * q
        add += [(a + b) % p + p * add[up + b // p] for b in range(q)]
    return add


def _product_table(p: int, q: int, m: int, add: list[int]) -> list[int] | None:
    """Table of a * b at a*q + b in R = Z_p[x]/(M), or None if R has a zero divisor.

    M = x**k + m(x) is monic of degree k, with m the index of its lower
    coefficients.  Row a follows from one rule, by induction on b.  If b's
    constant digit is nonzero, then b - 1 is b with that digit lowered by one,
    so a*b = a*(b - 1) + a.  Otherwise b = x * (b // p), so
    a*b = x * (a*(b // p)) by associativity and commutativity.  Multiplying c
    by x shifts its digits up one place, and its top digit t becomes
    t * x**k = -t * m(x).

    R is a field exactly when M is irreducible, and a finite commutative ring
    with no zero divisors is a field: for a != 0, a*b = a*c means
    a*(b - c) = 0 and so b = c, so row a is a permutation and holds a 1.
    If M = f*g is reducible, take f monic of degree at most k/2: f and g are
    nonzero of degree below k and f*g = 0, so row f has a 0 at column g, and
    f < p**(k//2 + 1).  Building stops at the first row with a 0 past
    column 0, so a reducible candidate costs at most that many rows.
    """
    top = q // p  # p**(k-1), the weight of the top digit
    minus_m = add.index(0, m * q, m * q + q) - m * q
    scaled = [0]  # t * -m for t in 0..p-1
    for _ in range(1, p):
        scaled.append(add[scaled[-1] * q + minus_m])
    times_x = [add[c % top * p * q + scaled[c // top]] for c in range(q)]
    mul = [0] * q
    for a in range(1, q):
        row = [0] * q
        for b in range(1, q):
            row[b] = add[row[b - 1] * q + a] if b % p else times_x[row[b // p]]
        if row.count(0) > 1:
            return None
        mul += row
    return mul


class Field:
    """GF(p**k) acting on canonical element indices 0..q-1.

    Instances come from :func:`make_field`; two fields of the same order are
    interchangeable because the modulus choice is deterministic.  Immutable
    after construction, hence safe to share between threads.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...], add: list[int], mul: list[int]):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.modulus = modulus
        self._add_table = add
        self._mul_table = mul
        # -a and a^-1 are where 0 and 1 sit in row a of the sum and product tables.
        self._neg_table = [add.index(0, a * q, a * q + q) - a * q for a in range(q)]
        self._inv_table = [0] + [mul.index(1, a * q, a * q + q) - a * q for a in range(1, q)]

    def __repr__(self) -> str:
        return f"Field(q={self.q})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        return self._add_table[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul_table[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._inv_table[a]

    def pow(self, a: int, n: int) -> int:
        """a**n for n >= 0, by repeated squaring."""
        if n < 0:
            raise ValueError(f"negative exponent {n}")  # the squaring loop would not end
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result


@lru_cache(maxsize=None)
def make_field(q: int) -> Field:
    """Field of order q with the deterministic minimal modulus.

    The modulus is the monic irreducible degree-k polynomial whose non-leading
    coefficient vector has the smallest canonical index: the first candidate
    whose product table has no zero divisor (see _product_table).  For prime
    q that is the polynomial x, the first one tried, and arithmetic is plain
    mod p.
    """
    p, k = _factor_prime_power(q)
    add = _sum_table(p, q)
    for m in range(q):
        mul = _product_table(p, q, m, add)
        if mul is not None:
            modulus = tuple(m // p**i % p for i in range(k)) + (1,)
            return Field(p, k, modulus, add, mul)
    raise NotPrimePower(f"no irreducible polynomial found for q={q}")  # pragma: no cover


def multiplicative_order(field: Field, a: int) -> int:
    if a == 0:
        raise DivisionByZero("zero has no multiplicative order")
    x = a
    n = 1
    while x != 1:
        x = field.mul(x, a)
        n += 1
    return n


def find_generator(field: Field) -> int:
    """Primitive element of smallest canonical index."""
    target = field.q - 1
    for a in range(1, field.q):
        if multiplicative_order(field, a) == target:
            return a
    raise AssertionError("every finite field has a generator")  # pragma: no cover
