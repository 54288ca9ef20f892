"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own Smith-form machinery:
determinants come from cofactor expansion, ranks from rational Gaussian
elimination, group orders from explicit element enumeration.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from kep import Graph, IntMatrix, Path
from kep.selfsim import random_walk


def random_matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_pseudo_free_pair(
    rng: random.Random,
    max_n: int = 5,
    a_range: tuple[int, int] = (1, 9),
    b_range: tuple[int, int] = (-4, 6),
    density: float = 0.6,
) -> tuple[IntMatrix, IntMatrix]:
    """A random support with no zero rows; A positive and B nonzero exactly
    on the support, so the pair satisfies the matching-support criterion."""
    n = rng.randint(1, max_n)
    b_values = [x for x in range(b_range[0], b_range[1] + 1) if x != 0]
    while True:
        a_rows, b_rows = [], []
        for _ in range(n):
            a_row, b_row = [], []
            for _ in range(n):
                if rng.random() < density:
                    a_row.append(rng.randint(*a_range))
                    b_row.append(rng.choice(b_values))
                else:
                    a_row.append(0)
                    b_row.append(0)
            a_rows.append(a_row)
            b_rows.append(b_row)
        if all(any(row) for row in a_rows):
            return IntMatrix(a_rows), IntMatrix(b_rows)


def random_path(graph: Graph, rng: random.Random, length: int) -> Path:
    return random_walk(graph, rng, rng.choice(list(graph.vertices())), length)


# ---------------------------------------------------------------------------
# Independent oracles


def cofactor_det(m: IntMatrix) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = 0
    rows = [list(r) for r in m]
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = IntMatrix([[row[k] for k in range(n) if k != j] for row in rows[1:]])
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def rational_rank(m: IntMatrix) -> int:
    """Rank over Q by exact Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    col = 0
    rows, cols = m.rows, m.cols
    while rank < rows and col < cols:
        pivot_row = next((i for i in range(rank, rows) if a[i][col]), None)
        if pivot_row is None:
            col += 1
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def rational_nullity(m: IntMatrix) -> int:
    return m.cols - rational_rank(m)


def element_order_multiset(torsion: tuple[int, ...]) -> dict[int, int]:
    """Multiset of element orders of the finite group Z/d1 x ... x Z/dk."""
    orders: dict[int, int] = {}
    for combo in product(*[range(d) for d in torsion]):
        order = 1
        for x, d in zip(combo, torsion):
            if x:
                order = lcm(order, d // gcd(x, d))
        orders[order] = orders.get(order, 0) + 1
    return orders


def solve_rational(columns: list[tuple[int, ...]], target: tuple[int, ...]) -> list[Fraction] | None:
    """Solve sum_i c_i * columns[i] = target over Q; None if inconsistent."""
    if not columns:
        return [] if not any(target) else None
    rows = len(target)
    width = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(width)] + [Fraction(target[i])] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(width):
        pivot_row = next((i for i in range(rank, rows) if aug[i][col]), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(rows):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, rows):
        if aug[i][width]:
            return None
    solution = [Fraction(0)] * width
    for row, col in enumerate(pivots):
        solution[col] = aug[row][width]
    return solution


def in_lattice(basis: list[tuple[int, ...]], vector: tuple[int, ...]) -> bool:
    """Whether `vector` is an integer combination of the basis columns
    (basis assumed Q-independent, so the rational solution is unique)."""
    solution = solve_rational(basis, vector)
    return solution is not None and all(c.denominator == 1 for c in solution)


def matvec(m: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return m.apply(v)
