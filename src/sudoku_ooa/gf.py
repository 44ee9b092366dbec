"""Exact, table-driven arithmetic in GF(p**k) for orders 2..256.

Field elements are plain integers (canonical indices): the element with
polynomial coefficients (c0, c1, ..., c_{k-1}), constant term first, has
index sum(c_i * p**i).  Index 0 is zero and index 1 is one, so for prime
fields the index is just the residue.  Each field precomputes add, neg, mul
and inv tables when it is made, so every operation is one list lookup.
Larger orders are refused: a q = 257 array would have 4.4e9 columns.
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
    for p in range(2, q + 1):
        if p * p > q:
            return q, 1  # q itself is prime
        if q % p == 0:
            k = 0
            n = q
            while n % p == 0:
                n //= p
                k += 1
            if n != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, k
    raise NotPrimePower(f"{q} is not a prime power")


# -- polynomials over Z_p as coefficient lists, constant term first --------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = _poly_trim(list(a))
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(m):
            a[i + shift] = (a[i + shift] - factor * c) % p
        _poly_trim(a)
    return a


def _is_irreducible(poly: list[int], p: int, k: int) -> bool:
    # Trial division by every monic polynomial of degree 1..k//2.
    for d in range(1, k // 2 + 1):
        for idx in range(p**d):
            divisor = _index_coeffs(idx, p, d) + [1]
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _index_coeffs(idx: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        idx, c = divmod(idx, p)
        out.append(c)
    return out


class Field:
    """GF(p**k) acting on canonical element indices 0..q-1.

    Instances come from :func:`make_field`; two fields of the same order are
    interchangeable because the modulus choice is deterministic.  Immutable
    after construction, hence safe to share between threads.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        q = self.q
        coeffs = [_index_coeffs(a, p, k) for a in range(q)]
        self._add_table = [
            self.index([x + y for x, y in zip(ca, cb)]) for ca in coeffs for cb in coeffs
        ]
        self._neg_table = [self.index([-x for x in c]) for c in coeffs]
        self._mul_table = [self._mul_raw(a, b) for a in range(q) for b in range(q)]
        # a^-1 = a^(q-2), built after the mul table, which pow reads.
        self._inv_table = [0] + [self.pow(a, q - 2) for a in range(1, q)]

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

    # -- element <-> coefficient views --

    def index(self, coeffs) -> int:
        """Canonical index of the element with the given coefficient vector."""
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * self.p + c % self.p
        return idx

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        return self._add_table[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._mul_table[a * self.q + b]

    def _mul_raw(self, a: int, b: int) -> int:
        prod = _poly_mul(
            _index_coeffs(a, self.p, self.k), _index_coeffs(b, self.p, self.k), self.p
        )
        return self.index(_poly_mod(prod, list(self.modulus), self.p) + [0] * self.k)

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
    coefficient vector has the smallest canonical index.  For prime q that is
    the polynomial x, the first one tried (a degree-1 polynomial has no
    divisor to try), and arithmetic is plain mod p.
    """
    p, k = _factor_prime_power(q)
    for idx in range(p**k):
        coeffs = _index_coeffs(idx, p, k)
        if _is_irreducible(coeffs + [1], p, k):
            return Field(p, k, tuple(coeffs) + (1,))
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
