"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own Smith-form machinery:
determinants come from cofactor expansion, ranks from rational Gaussian
elimination, group orders from explicit element enumeration.  The classifier
oracle enumerates simple cycles by brute force and uses no kep graph code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from kep import Edge, Graph, IntMatrix, Path, Slice, kappa_edge, kappa_path
from kep.selfsim import kappa_path_preimage, random_walk


def random_matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def low_rank_pair(n: int, repeat_row: bool = False) -> tuple[IntMatrix, IntMatrix]:
    """A = P Q + I, with P n x (n/2) and Q (n/2) x n of entries 0..3, and B
    of entries ±1, all drawn from `random.Random(1)`.  So I - A = -P Q is
    singular with a large kernel, and A >= 1 on its diagonal.  With
    `repeat_row`, row 1 of A is set equal to row 0, which makes A singular
    too, and the limit over A gets a nonzero eventual kernel short of Z^n."""
    rng = random.Random(1)
    k = n // 2
    p = random_matrix(rng, n, k, 0, 3)
    q = random_matrix(rng, k, n, 0, 3)
    a = (p @ q).to_lists()
    for i in range(n):
        a[i][i] += 1
    if repeat_row:
        a[1] = list(a[0])
    b = IntMatrix([[rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)])
    return IntMatrix(a), b


def seeded_pair(n: int, bits: int = 0) -> tuple[IntMatrix, IntMatrix]:
    """A dense n x n pair drawn row by row from `random.Random(1000 + n)`, A
    first: with bits = 0, A in 1..9 and B in ±1..3; otherwise A in
    1..2^bits and B in ±(1..2^bits)."""
    rng = random.Random(1000 + n)
    if bits:
        a = random_matrix(rng, n, n, 1, 1 << bits)
        return a, IntMatrix([[rng.choice((-1, 1)) * rng.randint(1, 1 << bits) for _ in range(n)] for _ in range(n)])
    a = random_matrix(rng, n, n, 1, 9)
    return a, IntMatrix([[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)])


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
# Reference path and slice constructions: list every edge, validate every path


def reference_random_walk(graph: Graph, rng: random.Random, start: int, length: int) -> Path:
    """The random walk drawn from the listed out-edges of each vertex,
    `rng.choice(graph.out_edges(v))`; `random_walk` must match it draw for draw."""
    if length == 0:
        return Path.empty(start)
    edges = []
    v = start
    for _ in range(length):
        e = rng.choice(graph.out_edges(v))
        edges.append(e)
        v = e.target
    return Path(tuple(edges))


def reference_refine(a: IntMatrix, b: IntMatrix, s: Slice) -> list[Slice]:
    """The children Z(alpha.kappa_m(g), phi(m, g), beta.g) of a slice over
    (A, B), one per edge g = e(v, j, t) leaving v = range(beta) in row-major
    order, built only with `kappa_edge` and the validating `Path` constructor."""
    v = s.beta.range
    children = []
    for j in range(1, a.cols + 1):
        for t in range(a[v - 1, j - 1]):
            g = Edge(v, j, t)
            image, carry = kappa_edge(a, b, s.m, g)
            alpha = Path(s.alpha.edges + (image,))
            beta = Path(s.beta.edges + (g,))
            children.append(Slice(alpha, carry, beta))
    return children


def reference_compose(a: IntMatrix, b: IntMatrix, s1: Slice, s2: Slice) -> Slice | None:
    """The product of two slices over (A, B) from its definition: strip the
    shorter middle off the longer with `tail_after`, move the overhang
    through `kappa_path` (s2.alpha longer) or `kappa_path_preimage` (s1.beta
    strictly longer), join with `concat`, and build the validating `Slice`;
    None when neither middle extends the other."""
    overhang = s2.alpha.tail_after(s1.beta)
    if overhang is not None:
        image, carry = kappa_path(a, b, s1.m, overhang)
        return Slice(s1.alpha.concat(image), carry + s2.m, s2.beta)
    overhang = s1.beta.tail_after(s2.alpha)
    if overhang is not None:
        preimage, carry = kappa_path_preimage(a, b, s2.m, overhang)
        return Slice(s1.alpha, s1.m + carry, s2.beta.concat(preimage))
    return None


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


def cofactor_adjugate(m: IntMatrix) -> IntMatrix:
    """adj(M)[i, j] = (-1)^(i+j) times the cofactor determinant of M without
    row j and column i; adj of a 1 x 1 matrix is (1)."""
    n = m.rows
    if n == 1:
        return IntMatrix([[1]])
    rows = [list(r) for r in m]

    def minor(skip_row: int, skip_col: int) -> IntMatrix:
        return IntMatrix([[x for k, x in enumerate(row) if k != skip_col] for r, row in enumerate(rows) if r != skip_row])

    return IntMatrix([[(-1) ** (i + j) * cofactor_det(minor(j, i)) for j in range(n)] for i in range(n)])


def determinantal_divisors(m: IntMatrix) -> tuple[int, ...]:
    """D_k = gcd of all k x k minors of M (cofactor determinants), for
    k = 1..min(rows, cols); D_k = 0 when every k x k minor vanishes."""
    rows = [list(r) for r in m]
    divisors = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for chosen_rows in combinations(range(m.rows), k):
            for chosen_cols in combinations(range(m.cols), k):
                g = gcd(g, cofactor_det(IntMatrix([[rows[i][j] for j in chosen_cols] for i in chosen_rows])))
        divisors.append(g)
    return tuple(divisors)


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


# ---------------------------------------------------------------------------
# Classifier oracle: brute-force simple cycles, none of kep's graph code


def simple_cycles(a: IntMatrix) -> list[tuple[int, ...]]:
    """Every simple cycle of the digraph with an arc i -> j when A[i, j] > 0,
    once each, as its vertex sequence from its least vertex (n <= 5)."""
    rows = [list(row) for row in a]
    cycles = []

    def extend(walk: list[int]) -> None:
        for j, x in enumerate(rows[walk[-1]]):
            if x > 0 and j == walk[0]:
                cycles.append(tuple(walk))
            elif x > 0 and j > walk[0] and j not in walk:
                extend(walk + [j])

    for start in range(len(rows)):
        extend([start])
    return cycles


def reach_oracle(a: IntMatrix) -> list[set[int]]:
    """reach[i] is the set of vertices j with a walk of one or more edges
    i -> j, by depth-first search from the arcs leaving i."""
    rows = [list(row) for row in a]
    reach = []
    for i in range(len(rows)):
        seen, stack = set(), [i]
        while stack:
            v = stack.pop()
            for w, x in enumerate(rows[v]):
                if x > 0 and w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    return reach


def classifier_oracle(a: IntMatrix, b: IntMatrix) -> tuple[bool, bool]:
    """(effective_sufficient, minimal_pi_sufficient) from their definitions:
    every cycle has an exit and every vertex reaches a cycle whose |B|/A
    product is below 1; A irreducible and not a permutation matrix."""
    rows = [list(row) for row in a]
    n = len(rows)
    cycles = simple_cycles(a)
    every_cycle_exits = all(any(sum(rows[v]) > 1 for v in cycle) for cycle in cycles)
    contracting = set()
    for cycle in cycles:
        ratio = Fraction(1)
        for v, w in zip(cycle, cycle[1:] + cycle[:1]):
            ratio *= Fraction(abs(b[v, w]), a[v, w])
        if ratio < 1:
            contracting.update(cycle)
    reach = [seen | {i} for i, seen in enumerate(reach_oracle(a))]
    effective = every_cycle_exits and all(reach[i] & contracting for i in range(n))
    irreducible = all(len(seen) == n for seen in reach)
    unit_vector = [0] * (n - 1) + [1]
    permutation = all(sorted(line) == unit_vector for line in rows + [list(c) for c in zip(*rows)])
    return effective, irreducible and not permutation
