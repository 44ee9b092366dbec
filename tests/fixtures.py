"""Shared fixtures: small known-good grids and arrays, plus test helpers."""

from __future__ import annotations

import random
from itertools import chain

from sudoku_ooa import FlagData, Grid


def grid(q, rows):
    """Grid from rows of symbols, each split into its radix and units digit.

    bytes() refuses a symbol whose digit is below 0 or above 255.
    """
    cells = list(chain.from_iterable(rows))
    return Grid(q, bytes(map(q.__rfloordiv__, cells)), bytes(map(q.__rmod__, cells)))


def grid_base(q, rows):
    """Grid from rows of base-q digit strings like '21'."""
    return grid(q, [[int(tok, q) for tok in row.split()] for row in rows])


# A verified ordered orthogonal array with q = 2 and 3 bands.
OOA_4_3_2_2 = [
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1],
    [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1],
]

# An orthogonal pair of order-4 sudoku solutions whose banded array is a
# sudoku array but not an ordered orthogonal array.
SA42_M1 = grid(2, [[0, 1, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1], [1, 0, 2, 3]])
SA42_M2 = grid(2, [[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]])
SA42_ARRAY = [
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1],
    [0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1],
    [0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0],
]

# Another orthogonal pair of order-4 sudoku solutions.
ORTHO4_A = grid(2, [[0, 1, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1], [1, 0, 2, 3]])
ORTHO4_B = grid(2, [[0, 3, 2, 1], [2, 1, 0, 3], [3, 0, 1, 2], [1, 2, 3, 0]])

# A sudoku solution and its radix grid.
RADIX_DEMO_M = grid(2, [[0, 1, 3, 2], [2, 3, 1, 0], [1, 0, 2, 3], [3, 2, 0, 1]])
RADIX_DEMO_R = grid(2, [[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]])

# Two radix grids and their composite, which happens to be a sudoku solution.
COMPOSITE_R1 = grid(2, [[0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]])
COMPOSITE_R2 = grid(2, [[0, 1, 1, 0], [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]])
COMPOSITE_N12 = grid(2, [[0, 1, 3, 2], [3, 2, 1, 0], [1, 0, 2, 3], [2, 3, 0, 1]])

# A q = 3 flag given by spanning vectors, with one valid labeling of the
# resulting radix grid and full grid.
FLAG_DEMO_VECTORS = ((1, 0, 1, 0), (0, 1, 1, 2), (0, 1, 0, 2))
FLAG_DEMO_RADIX = grid(3, [
    [0, 1, 2, 0, 1, 2, 0, 1, 2],
    [1, 2, 0, 1, 2, 0, 1, 2, 0],
    [2, 0, 1, 2, 0, 1, 2, 0, 1],
    [0, 1, 2, 0, 1, 2, 0, 1, 2],
    [1, 2, 0, 1, 2, 0, 1, 2, 0],
    [2, 0, 1, 2, 0, 1, 2, 0, 1],
    [0, 1, 2, 0, 1, 2, 0, 1, 2],
    [1, 2, 0, 1, 2, 0, 1, 2, 0],
    [2, 0, 1, 2, 0, 1, 2, 0, 1],
])
FLAG_DEMO_GRID = grid_base(3, [
    "00 10 20 02 12 22 01 11 21",
    "11 21 01 10 20 00 12 22 02",
    "22 02 12 21 01 11 20 00 10",
    "01 11 21 00 10 20 02 12 22",
    "12 22 02 11 21 01 10 20 00",
    "20 00 10 22 02 12 21 01 11",
    "02 12 22 01 11 21 00 10 20",
    "10 20 00 12 22 02 11 21 01",
    "21 01 11 20 00 10 22 02 12",
])

# An order-9 linear sudoku solution generated by <(1,0,0,2), (0,2,1,2)>.
LINEAR9_GENERATORS = ((1, 0, 0, 2), (0, 2, 1, 2))
LINEAR9_GRID = grid(3, [
    [0, 1, 2, 4, 5, 3, 8, 6, 7],
    [3, 4, 5, 7, 8, 6, 2, 0, 1],
    [6, 7, 8, 1, 2, 0, 5, 3, 4],
    [1, 2, 0, 5, 3, 4, 6, 7, 8],
    [4, 5, 3, 8, 6, 7, 0, 1, 2],
    [7, 8, 6, 2, 0, 1, 3, 4, 5],
    [2, 0, 1, 3, 4, 5, 7, 8, 6],
    [5, 3, 4, 6, 7, 8, 1, 2, 0],
    [8, 6, 7, 0, 1, 2, 4, 5, 3],
])

# A strongly orthogonal pair of order-9 sudoku solutions arising from the
# data ((2,1;0,2), beta=1) and ((1,1;0,1), beta=2) over GF(3), and the first
# 18 columns of their banded array.
PAIR3_DATA = (((2, 1), (0, 2)), 1), (((1, 1), (0, 1)), 2)
PAIR3_M1 = grid_base(3, [
    "00 10 20 22 02 12 11 21 01",
    "21 01 11 10 20 00 02 12 22",
    "12 22 02 01 11 21 20 00 10",
    "22 02 12 11 21 01 00 10 20",
    "10 20 00 02 12 22 21 01 11",
    "01 11 21 20 00 10 12 22 02",
    "11 21 01 00 10 20 22 02 12",
    "02 12 22 21 01 11 10 20 00",
    "20 00 10 12 22 02 01 11 21",
])
PAIR3_M2 = grid_base(3, [
    "00 10 20 12 22 02 21 01 11",
    "11 21 01 20 00 10 02 12 22",
    "22 02 12 01 11 21 10 20 00",
    "21 01 11 00 10 20 12 22 02",
    "02 12 22 11 21 01 20 00 10",
    "10 20 00 22 02 12 01 11 21",
    "12 22 02 21 01 11 00 10 20",
    "20 00 10 02 12 22 11 21 01",
    "01 11 21 10 20 00 22 02 12",
])
PAIR3_PREFIX = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 0, 0, 1, 1, 1, 2, 2, 2],
    [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
    [0, 1, 2, 2, 0, 1, 1, 2, 0, 2, 0, 1, 1, 2, 0, 0, 1, 2],
    [0, 0, 0, 2, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0, 0, 2, 2, 2],
    [0, 1, 2, 1, 2, 0, 2, 0, 1, 1, 2, 0, 2, 0, 1, 0, 1, 2],
    [0, 0, 0, 2, 2, 2, 1, 1, 1, 1, 1, 1, 0, 0, 0, 2, 2, 2],
]


# -- helpers -------------------------------------------------------------------


def symbol_bijection(a: Grid, b: Grid):
    """Per-location symbol map sending grid a onto grid b, or None."""
    from grid_oracle import symbol_rows

    if a.q != b.q:
        return None
    fwd: dict[int, int] = {}
    back: dict[int, int] = {}
    for ra, rb in zip(symbol_rows(a), symbol_rows(b)):
        for x, y in zip(ra, rb):
            if fwd.setdefault(x, y) != y or back.setdefault(y, x) != x:
                return None
    return fwd


def preserves_radix_classes(mapping, q: int) -> bool:
    """Whether a symbol bijection maps radix classes onto radix classes."""
    radix_map: dict[int, int] = {}
    for x, y in mapping.items():
        if radix_map.setdefault(x // q, y // q) != y // q:
            return False
    return len(set(radix_map.values())) == len(radix_map)


def relabel(g: Grid, mapping) -> Grid:
    from grid_oracle import symbol_rows

    return grid(g.q, [[mapping[x] for x in row] for row in symbol_rows(g)])


def random_radix_preserving_bijection(q: int, rng: random.Random):
    outer = list(range(q))
    rng.shuffle(outer)
    mapping = {}
    for r in range(q):
        inner = list(range(q))
        rng.shuffle(inner)
        for u in range(q):
            mapping[q * r + u] = q * outer[r] + inner[u]
    return mapping


def random_flag_data(field, rng: random.Random) -> FlagData:
    q = field.q
    while True:
        a, c, d = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        b = rng.randrange(1, q)
        beta = rng.randrange(1, q)
        if field.sub(field.mul(a, d), field.mul(b, c)) != 0:
            return FlagData(field, a, b, c, d, beta)


def random_orthogonal_family(field, size: int, rng: random.Random, tries: int = 400):
    """Mutually orthogonal flag data family by rejection sampling, or None."""
    from sudoku_ooa import det
    from sudoku_ooa.linalg import mat_sub

    for _ in range(tries):
        data = [random_flag_data(field, rng) for _ in range(size)]
        if all(
            det(field, mat_sub(field, x.gamma, y.gamma)) != 0
            for i, x in enumerate(data)
            for y in data[i + 1 :]
        ):
            return data
    return None
