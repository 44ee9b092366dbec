"""Reference grid-level oracle for the condition system.

``sudoku_ooa.strong.check_combinatorial`` scans row sets of the assembled
array with the same packed scanner as ``verify``.  This module keeps the
grid-level reading of each condition, independent of that scanner: symbol
rows, radix grids, composite grids, latin/sudoku tests on symbol sets, and
scans of superimposed symbol pairs within the whole grid, a large row or a
large column.  ``condition_report`` evaluates the whole condition system this
way.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

from fixtures import grid as grid_from_rows
from sudoku_ooa import DimensionMismatch, Grid, NotMutuallyOrthogonal
from sudoku_ooa.strong import _report
from sudoku_ooa.sudoku import first_repeat


@lru_cache(maxsize=256)
def symbol_rows(grid: Grid) -> tuple[tuple[int, ...], ...]:
    """The symbol rows q*radix + units, top to bottom; memoized per grid."""
    q, side = grid.q, grid.q * grid.q
    symbols = [q * r + u for r, u in zip(grid.radix, grid.units)]
    return tuple(tuple(symbols[i : i + side]) for i in range(0, side * side, side))


def _check_shapes(a: Grid, b: Grid) -> None:
    if a.q != b.q:
        raise DimensionMismatch(f"grid shapes differ: q={a.q} vs q={b.q}")


def radix(grid: Grid) -> Grid:
    """Cellwise first base-q digit."""
    q = grid.q
    return grid_from_rows(q, [[s // q for s in row] for row in symbol_rows(grid)])


def composite(ri: Grid, rj: Grid) -> Grid:
    """Superimpose two radix-alphabet grids; the first supplies the radix digit."""
    _check_shapes(ri, rj)
    q = ri.q
    rows = zip(symbol_rows(ri), symbol_rows(rj))
    return grid_from_rows(q, [[q * a + b for a, b in zip(ra, rb)] for ra, rb in rows])


def _first_non_permutation(lines, n: int) -> int | None:
    """Index of the first line whose symbol set is not exactly 0..n-1."""
    full = set(range(n))
    return next((i for i, line in enumerate(lines) if set(line) != full), None)


def latin_violation(grid: Grid) -> str | None:
    side = grid.q * grid.q
    rows = symbol_rows(grid)
    for what, lines in (("row", rows), ("column", zip(*rows))):
        i = _first_non_permutation(lines, side)
        if i is not None:
            return f"{what} {i} is not a permutation of 0..{side - 1}"
    return None


def sudoku_violation(grid: Grid) -> str | None:
    why = latin_violation(grid)
    if why is not None:
        return why
    q, rows = grid.q, symbol_rows(grid)
    boxes = (
        chain.from_iterable(row[q * bj : q * bj + q] for row in rows[q * bi : q * bi + q])
        for bi in range(q)
        for bj in range(q)
    )
    i = _first_non_permutation(boxes, q * q)
    if i is not None:
        return f"subsquare ({i // q},{i % q}) misses a symbol"
    return None


def subsquares_latin_violation(grid: Grid) -> str | None:
    q, rows = grid.q, symbol_rows(grid)
    for bi in range(q):
        for bj in range(q):
            box = [row[q * bj : q * bj + q] for row in rows[q * bi : q * bi + q]]
            i = _first_non_permutation(box + list(zip(*box)), q)
            if i is not None:
                what = "row" if i < q else "column"
                return f"subsquare ({bi},{bj}) {what} {i % q} is not a permutation"
    return None


def repeated_pair(a: Grid, b: Grid, block: str = "grid") -> str | None:
    """Witness of the first superimposed pair seen twice within one block.

    A block is the whole grid (``grid``), a large row of q rows (``row``), or
    a large column (``column``), scanned as a large row of the transposed
    grids.  Cells are read row by row within a block, and reported as (r, c).
    """
    _check_shapes(a, b)
    side = a.q * a.q
    height = side if block == "grid" else a.q
    rows_a, rows_b = symbol_rows(a), symbol_rows(b)
    if block == "column":
        rows_a, rows_b = tuple(zip(*rows_a)), tuple(zip(*rows_b))
    for top in range(0, side, height):
        block_rows = rows_a[top : top + height], rows_b[top : top + height]
        pairs = list(chain.from_iterable(map(zip, *block_rows)))
        hit = first_repeat(pairs)
        if hit is not None:
            cells = [(top + m // side, m % side) for m in hit]
            if block == "column":
                cells = [(r, c) for c, r in cells]
            where = "" if block == "grid" else f"large {block} {top // height}: "
            return f"{where}pair {pairs[hit[1]]} at cells {cells[0]} and {cells[1]}"
    return None


def is_latin(grid: Grid) -> bool:
    return latin_violation(grid) is None


def is_sudoku(grid: Grid) -> bool:
    return sudoku_violation(grid) is None


def subsquares_latin(grid: Grid) -> bool:
    return subsquares_latin_violation(grid) is None


def large_rows_orthogonal(a: Grid, b: Grid) -> bool:
    return repeated_pair(a, b, "row") is None


def large_cols_orthogonal(a: Grid, b: Grid) -> bool:
    return repeated_pair(a, b, "column") is None


def condition_report(grids):
    """The condition system evaluated on radix and composite grids.

    Raises NotMutuallyOrthogonal if a member is not a sudoku solution or two
    members are not orthogonal, as ``check_combinatorial`` does.
    """
    grids = list(grids)
    n = len(grids)
    for t, grid in enumerate(grids, start=1):
        why = sudoku_violation(grid)
        if why is not None:
            raise NotMutuallyOrthogonal(f"member {t} is not a sudoku solution: {why}")
    radixes = [radix(g) for g in grids]
    composites = {
        (i, j): composite(radixes[i - 1], radixes[j - 1])
        for i, j in combinations(range(1, n + 1), 2)
    }
    return _report(n, {
        "orth": lambda i, j: repeated_pair(grids[i - 1], grids[j - 1]),
        "i": lambda t: subsquares_latin_violation(radixes[t - 1]),
        "ii.a": lambda i, j: sudoku_violation(composites[(i, j)]),
        "ii.b": lambda i, j: repeated_pair(radixes[i - 1], grids[j - 1], "row"),
        "ii.c": lambda i, j: repeated_pair(radixes[i - 1], grids[j - 1], "column"),
        "iii.a": lambda i, j, k: repeated_pair(composites[(i, j)], radixes[k - 1], "row"),
        "iii.b": lambda i, j, k: repeated_pair(composites[(i, j)], radixes[k - 1], "column"),
        "iii.c": lambda i, j, k: repeated_pair(composites[(i, j)], grids[k - 1]),
        "iv": lambda i, j, k, l: repeated_pair(composites[(i, j)], composites[(k, l)]),
    })
