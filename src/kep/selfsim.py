"""The graph of a nonnegative integer matrix and the self-similar action on
its paths.

A square nonnegative matrix A with no zero rows defines a finite graph E:
vertices 1..n and A[i, j] parallel edges e(i, j, t), 0 <= t < A[i, j], from
i to j.  A second integer matrix B of the same shape defines an action of
the integers on edges together with an integer cocycle ("carry"):

    kappa_m(e(i, j, t)) = e(i, j, l)   and   phi(m, e(i, j, t)) = k,

where k and l are the unique integers with m*B[i, j] + t = k*A[i, j] + l and
0 <= l < A[i, j].  The action and cocycle extend to paths by feeding each
edge's carry into the next edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable

from .errors import InputValidationError
from .intmat import IntMatrix


@dataclass(frozen=True, order=True)
class Edge:
    """Edge e(source, target, label) of the graph of A; vertices are 1-based."""

    source: int
    target: int
    label: int

    def __str__(self) -> str:
        return f"e({self.source},{self.target},{self.label})"


@dataclass(frozen=True)
class Path:
    """A composable sequence of edges; the empty path is anchored at a vertex."""

    edges: tuple[Edge, ...] = ()
    vertex: int | None = None

    def __post_init__(self):
        if self.edges:
            if self.vertex is not None:
                raise ValueError("nonempty paths carry no anchor vertex")
            for a, b in zip(self.edges, self.edges[1:]):
                if a.target != b.source:
                    raise ValueError(f"edges {a} and {b} are not composable")
        elif self.vertex is None:
            raise ValueError("the empty path needs an anchor vertex")

    @classmethod
    def empty(cls, vertex: int) -> "Path":
        return cls((), vertex)

    @classmethod
    def of(cls, edges: Iterable[Edge]) -> "Path":
        edges = tuple(edges)
        if not edges:
            raise ValueError("use Path.empty for length-zero paths")
        return cls(edges)

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def source(self) -> int:
        return self.edges[0].source if self.edges else self.vertex  # type: ignore[return-value]

    @property
    def range(self) -> int:
        return self.edges[-1].target if self.edges else self.vertex  # type: ignore[return-value]

    def concat(self, other: "Path") -> "Path":
        if self.range != other.source:
            raise ValueError("paths are not composable")
        if not other.edges:
            return self
        if not self.edges:
            return other
        return Path(self.edges + other.edges)

    def starts_with(self, prefix: "Path") -> bool:
        """Whether this path extends `prefix` (sources must agree)."""
        if self.source != prefix.source:
            return False
        return self.edges[: len(prefix.edges)] == prefix.edges

    def tail_after(self, prefix: "Path") -> "Path":
        """The remainder of this path once `prefix` is stripped."""
        if not self.starts_with(prefix):
            raise ValueError("not an extension of the given prefix")
        rest = self.edges[len(prefix.edges):]
        return Path(rest) if rest else Path.empty(self.range)

    def __str__(self) -> str:
        if not self.edges:
            return f"v({self.vertex})"
        return ".".join(str(e) for e in self.edges)


@dataclass(frozen=True)
class EventuallyPeriodicPath:
    """The infinite path prefix . period . period . ..."""

    prefix: Path
    period: Path

    def __post_init__(self):
        if not self.period.edges:
            raise ValueError("the period must be nonempty")
        if self.period.range != self.period.source:
            raise ValueError("the period must close up")
        if self.prefix.range != self.period.source:
            raise ValueError("prefix must feed into the period")

    def __str__(self) -> str:
        if self.prefix.edges:
            return f"{self.prefix}.({self.period})^inf"
        return f"({self.period})^inf"


@dataclass(frozen=True)
class Graph:
    """The graph of A: one vertex per row, A[i, j] edges from i to j."""

    a: IntMatrix

    @property
    def n(self) -> int:
        return self.a.rows

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def out_edges(self, vertex: int) -> list[Edge]:
        return [
            Edge(vertex, j, t)
            for j in self.vertices()
            for t in range(self.a[vertex - 1, j - 1])
        ]

    def edges(self) -> list[Edge]:
        return [e for v in self.vertices() for e in self.out_edges(v)]

    def edge_count(self) -> int:
        return sum(self.a.entries)


def _validate_nonnegative_no_zero_rows(a: IntMatrix) -> None:
    """The standing assumptions on A: square, nonnegative, no zero rows."""
    if not a.is_square:
        raise InputValidationError("shape mismatch", "matrix must be square")
    for i, row in enumerate(a):
        if any(x < 0 for x in row):
            raise InputValidationError("negative entry", f"A row {i + 1} has a negative entry")
        if all(x == 0 for x in row):
            raise InputValidationError("zero row", f"A row {i + 1} is identically zero")


def _validate_pair(a: IntMatrix, b: IntMatrix) -> None:
    _validate_nonnegative_no_zero_rows(a)
    if (b.rows, b.cols) != (a.rows, a.cols):
        raise InputValidationError("shape mismatch", "A and B must have the same shape")


def build_graph(a: IntMatrix) -> Graph:
    """Graph of A; A must be square and nonnegative with no zero rows."""
    _validate_nonnegative_no_zero_rows(a)
    return Graph(a)


def random_walk(graph: Graph, rng: Random, start: int, length: int) -> Path:
    """A path of the given length from `start`, each edge drawn uniformly
    from the out-edges of the current vertex."""
    if length == 0:
        return Path.empty(start)
    edges = []
    v = start
    for _ in range(length):
        e = rng.choice(graph.out_edges(v))
        edges.append(e)
        v = e.target
    return Path(tuple(edges))


def path_ending_at(graph: Graph, rng: Random, vertex: int, max_len: int) -> Path:
    """A random walk of length at most `max_len` with range `vertex`: up to
    32 draws, then the empty path at `vertex`."""
    for _ in range(32):
        start = rng.choice(list(graph.vertices()))
        p = random_walk(graph, rng, start, rng.randint(0, max_len))
        if p.range == vertex:
            return p
    return Path.empty(vertex)


def _check_edge(a: IntMatrix, e: Edge) -> int:
    n = a.rows
    if not (1 <= e.source <= n and 1 <= e.target <= n):
        raise InputValidationError("unknown edge", f"{e} has a vertex outside 1..{n}")
    bound = a[e.source - 1, e.target - 1]
    if not 0 <= e.label < bound:
        raise InputValidationError("unknown edge", f"{e} does not exist (A entry is {bound})")
    return bound


def kappa_edge(a: IntMatrix, b: IntMatrix, m: int, e: Edge) -> tuple[Edge, int]:
    """Apply the action to one edge; returns (kappa_m(e), phi(m, e)).

    Uses floor division so the residue l always lands in [0, A[i, j]),
    also for negative m*B[i, j] + label.
    """
    a_entry = _check_edge(a, e)
    b_entry = b[e.source - 1, e.target - 1]
    k, l = divmod(m * b_entry + e.label, a_entry)
    return Edge(e.source, e.target, l), k


def kappa_path(a: IntMatrix, b: IntMatrix, m: int, p: Path) -> tuple[Path, int]:
    """Extend the action along a path by folding the carry left to right.

    kappa_m(p q) = kappa_m(p) kappa_{phi(m, p)}(q) and
    phi(m, p q) = phi(phi(m, p), q); the empty path returns (p, m).
    """
    carry = m
    out = []
    for e in p.edges:
        image, carry = kappa_edge(a, b, carry, e)
        out.append(image)
    if not out:
        return p, m
    return Path(tuple(out)), carry


def kappa_path_preimage(a: IntMatrix, b: IntMatrix, m: int, target: Path) -> Path:
    """The unique path p with kappa_m(p) = target (the edgewise action is a
    bijection on parallel edges, so the fold inverts step by step)."""
    if not target.edges:
        return target
    carry = m
    out = []
    for e in target.edges:
        a_entry = _check_edge(a, e)
        b_entry = b[e.source - 1, e.target - 1]
        label = (e.label - carry * b_entry) % a_entry
        pre = Edge(e.source, e.target, label)
        _, carry = kappa_edge(a, b, carry, pre)
        out.append(pre)
    return Path(tuple(out))


@dataclass(frozen=True)
class PseudoFreeness:
    """Outcome of the pseudo-freeness test.

    verdict False comes with a witness (m, edge) where kappa_m fixes the
    edge with zero carry.
    """

    verdict: bool
    witness: tuple[int, Edge] | None = None


def supports_match(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether B[i, j] = 0 exactly when A[i, j] = 0."""
    return all(
        (x == 0) == (y == 0) for rx, ry in zip(a, b) for x, y in zip(rx, ry)
    )


def is_pseudo_free(a: IntMatrix, b: IntMatrix) -> PseudoFreeness:
    """Decide pseudo-freeness: no m != 0 may fix an edge with zero carry.

    kappa_m fixes e(i, j, t) with zero carry exactly when
    m * B[i, j] + t = t, that is m * B[i, j] = 0.  So the pair is
    pseudo-free iff B[i, j] != 0 wherever A[i, j] > 0 (Exel-Pardo,
    Adv. Math. 306 (2017)); otherwise the first such (i, j) in row-major
    order gives the witness (1, e(i, j, 0)).
    """
    _validate_pair(a, b)
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x > 0 and y == 0:
                return PseudoFreeness(False, (1, Edge(i + 1, j + 1, 0)))
    return PseudoFreeness(True)


def _divide_along(a: IntMatrix, b: IntMatrix, value: int, edges: tuple[Edge, ...]) -> int | None:
    """value * B(edges) / A(edges), or None if some prefix leaves Z."""
    for e in edges:
        a_entry = _check_edge(a, e)
        num = value * b[e.source - 1, e.target - 1]
        if num % a_entry:
            return None
        value = num // a_entry
    return value


def fixes_path(a: IntMatrix, b: IntMatrix, m: int, x: EventuallyPeriodicPath) -> bool:
    """Whether kappa_m fixes the eventually periodic path x.

    That holds iff m * B(x|l) / A(x|l) is an integer for every prefix
    length l.  Write B(period) / A(period) = p/q in lowest terms.  Once a
    whole period passes with the running value v, q = 1 settles every later
    period (each of its prefixes gives p times an integer already seen).
    If q > 1, a passing period maps v to v * p/q with p prime to q, which
    lowers the valuation of v at every prime dividing q; a nonzero v thus
    fails within log2|v| + 1 periods.
    """
    ratio = Fraction(1)
    for e in x.period.edges:
        ratio *= Fraction(b[e.source - 1, e.target - 1], _check_edge(a, e))
    value = _divide_along(a, b, m, x.prefix.edges)
    while value:
        value = _divide_along(a, b, value, x.period.edges)
        if value is not None and ratio.denominator == 1:
            return True
    return value == 0


def phi_vertex_sum(a: IntMatrix, b: IntMatrix, m: int, v: int, w: int) -> int:
    """Sum of the carries phi(m, e) over all edges e from v to w.

    The residues permute {0, ..., A[v, w) - 1}, so the sum collapses to
    m * B[v, w] whenever the edge set is nonempty.
    """
    total = 0
    for t in range(a[v - 1, w - 1]):
        _, carry = kappa_edge(a, b, m, Edge(v, w, t))
        total += carry
    return total


_EDGE_RE = re.compile(r"e\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
_VERTEX_RE = re.compile(r"v\(\s*(\d+)\s*\)")


def parse_edge(text: str) -> Edge:
    """Parse the "e(i,j,n)" syntax."""
    match = _EDGE_RE.fullmatch(text.strip())
    if not match:
        raise InputValidationError("bad edge syntax", f"cannot parse edge {text!r}")
    return Edge(int(match.group(1)), int(match.group(2)), int(match.group(3)))


def parse_path(text: str) -> Path:
    """Parse dot-separated edges, e.g. "e(1,1,0).e(1,1,1)"; "v(i)" is the
    empty path at vertex i."""
    text = text.strip()
    vertex = _VERTEX_RE.fullmatch(text)
    if vertex:
        return Path.empty(int(vertex.group(1)))
    edges = [parse_edge(part) for part in text.split(".")]
    try:
        return Path(tuple(edges))
    except ValueError as exc:
        raise InputValidationError("path not composable", str(exc)) from exc


def validate_path(a: IntMatrix, p: Path) -> None:
    """Check every edge of p exists in the graph of A."""
    if p.edges:
        for e in p.edges:
            _check_edge(a, e)
    elif not 1 <= p.vertex <= a.rows:  # type: ignore[operator]
        raise InputValidationError("unknown edge", f"vertex {p.vertex} outside 1..{a.rows}")
