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
from random import Random
from typing import Iterable, NamedTuple

from .errors import InputValidationError, quote
from .intmat import IntMatrix


class Edge(NamedTuple):
    """Edge e(source, target, label) of the graph of A; vertices are 1-based."""

    source: int
    target: int
    label: int

    def __str__(self) -> str:
        return f"e({self.source},{self.target},{self.label})"


class _CheckedRecord:
    """Listed ahead of a checked record's NamedTuple fields (`Path`, `Slice`):
    `_replace`, copying and unpickling under every protocol call the class,
    so `__new__` runs its checks, which namedtuple's own `_make` skips."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields: Iterable):
        return cls(*fields)

    def __reduce__(self):
        return type(self), tuple(self)


class _PathFields(NamedTuple):
    edges: tuple[Edge, ...] = ()
    vertex: int | None = None


class Path(_CheckedRecord, _PathFields):
    """A composable sequence of edges; the empty path is anchored at a vertex.

    A path is the record (edges, vertex), a tuple like `Edge`: equality,
    hashing and `repr` are those of its field tuple, so a path also compares
    equal to the plain tuple (edges, vertex).  `len` counts edges, and the
    empty path is falsy; iterating or indexing reads the two fields.
    `__new__` stores any edge iterable as a tuple and checks the anchor
    rules and that consecutive edges compose, also on every rebuild.
    """

    __slots__ = ()

    def __new__(cls, edges: Iterable[Edge] = (), vertex: int | None = None) -> "Path":
        edges = tuple(edges)
        if edges:
            if vertex is not None:
                raise ValueError("nonempty paths carry no anchor vertex")
            for a, b in zip(edges, edges[1:]):
                if a.target != b.source:
                    raise ValueError(f"edges {a} and {b} are not composable")
        elif vertex is None:
            raise ValueError("the empty path needs an anchor vertex")
        return tuple.__new__(cls, (edges, vertex))

    @classmethod
    def empty(cls, vertex: int) -> "Path":
        return cls((), vertex)

    @classmethod
    def _composed(cls, edges: tuple[Edge, ...]) -> "Path":
        """A nonempty path from edges that are composable by construction,
        without the junction scan of `__new__`: the one builder that skips
        it, run for every path the slice algebra builds."""
        return tuple.__new__(cls, (edges, None))

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
        """This path followed by `other`, checked at the junction only: both
        paths are composable on their own."""
        if self.range != other.source:
            raise ValueError("paths are not composable")
        return Path._composed(self.edges + other.edges) if other.edges else self

    def tail_after(self, prefix: "Path") -> "Path | None":
        """The remainder of this path once `prefix` is stripped, or None
        when this path does not extend `prefix` (sources must agree)."""
        k = len(prefix.edges)
        if self.source != prefix.source or self.edges[:k] != prefix.edges:
            return None
        rest = self.edges[k:]
        return Path._composed(rest) if rest else Path.empty(self.range)

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

    def out_degree(self, vertex: int) -> int:
        return sum(self.a.row(vertex - 1))

    def edge_count(self) -> int:
        return sum(self.a.entries)

    def out_edge(self, vertex: int, index: int) -> Edge:
        """`out_edges(vertex)[index]`, found without listing the edges."""
        if index >= 0:
            for j, count in enumerate(self.a.row(vertex - 1), 1):
                if index < count:
                    return Edge(vertex, j, index)
                index -= count
        raise IndexError("edge index out of range")

    def edge(self, index: int) -> Edge:
        """`edges()[index]` (row-major order), found without listing the edges."""
        for vertex in self.vertices():
            degree = self.out_degree(vertex)
            if 0 <= index < degree:
                return self.out_edge(vertex, index)
            index -= degree
        raise IndexError("edge index out of range")


def _validate_pair(a: IntMatrix, b: IntMatrix) -> None:
    """The standing assumptions on the pair: A square, nonnegative and
    without zero rows, and B of A's shape."""
    if not a.is_square:
        raise InputValidationError("shape mismatch", "matrix must be square")
    for i, row in enumerate(a):
        if any(x < 0 for x in row):
            raise InputValidationError("negative entry", f"A row {i + 1} has a negative entry")
        if all(x == 0 for x in row):
            raise InputValidationError("zero row", f"A row {i + 1} is identically zero")
    if (b.rows, b.cols) != (a.rows, a.cols):
        raise InputValidationError("shape mismatch", "A and B must have the same shape")


def random_walk(graph: Graph, rng: Random, start: int, length: int) -> Path:
    """A path of the given length from `start`, each edge drawn uniformly
    from the out-edges of the current vertex.

    Each step draws `rng.choice(range(out_degree))`, the same draw as
    `rng.choice(graph.out_edges(v))`, without listing the edges.
    """
    if length == 0:
        return Path.empty(start)
    edges = []
    v = start
    for _ in range(length):
        e = graph.out_edge(v, rng.choice(range(graph.out_degree(v))))
        edges.append(e)
        v = e.target
    return Path._composed(tuple(edges))


def path_ending_at(graph: Graph, rng: Random, vertex: int, max_len: int) -> Path:
    """A random walk of length at most `max_len` with range `vertex`: up to
    32 draws, then the empty path at `vertex`."""
    for _ in range(32):
        start = rng.choice(list(graph.vertices()))
        p = random_walk(graph, rng, start, rng.randint(0, max_len))
        if p.range == vertex:
            return p
    return Path.empty(vertex)


def _check_vertex(a: IntMatrix, v: int) -> None:
    if not 1 <= v <= a.rows:
        raise InputValidationError("unknown edge", f"vertex {v} outside 1..{a.rows}")


def _check_edge(a: IntMatrix, e: Edge) -> int:
    """A[source, target] for an edge of the graph of A; raises on any other."""
    source, target, label = e
    n = a.rows
    if not (1 <= source <= n and 1 <= target <= n):
        raise InputValidationError("unknown edge", f"{e} has a vertex outside 1..{n}")
    bound = a.row(source - 1)[target - 1]
    if not 0 <= label < bound:
        raise InputValidationError("unknown edge", f"{e} does not exist (A entry is {bound})")
    return bound


def kappa_edge(a: IntMatrix, b: IntMatrix, m: int, e: Edge) -> tuple[Edge, int]:
    """Apply the action to one edge; returns (kappa_m(e), phi(m, e)).

    This is `_act` on the one-edge tuple, the step that `kappa_path` folds.
    """
    (image,), carry = _act(a, b, m, (e,))
    return image, carry


def _act(a: IntMatrix, b: IntMatrix, m: int, edges: tuple[Edge, ...]) -> tuple[tuple[Edge, ...], int]:
    """The carry fold of `kappa_path` on an edge tuple: (kappa_m(edges),
    phi(m, edges)), each edge checked against A.  No edges give ((), m).

    Floor division puts each residue in [0, A[i, j]), also when
    carry * B[i, j] + label is negative.
    """
    carry = m
    out = []
    for e in edges:
        a_entry = _check_edge(a, e)
        source, target, label = e
        carry, label = divmod(carry * b.row(source - 1)[target - 1] + label, a_entry)
        # The image edge is built as a plain tuple: Edge has no checks to run.
        out.append(tuple.__new__(Edge, (source, target, label)))
    return tuple(out), carry


def kappa_path(a: IntMatrix, b: IntMatrix, m: int, p: Path) -> tuple[Path, int]:
    """Extend the action along a path by folding the carry left to right.

    kappa_m(p q) = kappa_m(p) kappa_{phi(m, p)}(q) and
    phi(m, p q) = phi(phi(m, p), q).  Every edge is checked against A as
    the fold reaches it; the empty path returns (p, m) once its anchor
    vertex is checked to lie in 1..n.
    """
    if not p.edges:
        _check_vertex(a, p.vertex)  # type: ignore[arg-type]
        return p, m
    edges, carry = _act(a, b, m, p.edges)
    return Path._composed(edges), carry


def kappa_path_preimage(a: IntMatrix, b: IntMatrix, m: int, target: Path) -> tuple[Path, int]:
    """The unique path p with kappa_m(p) = target, and phi(m, p).

    kappa is an action of Z, so p = kappa_{-m}(target), and the cocycle law
    phi(m1 + m2, x) = phi(m1, kappa_{m2}(x)) + phi(m2, x) at (m, -m, target)
    gives 0 = phi(0, target) = phi(m, p) + phi(-m, target).  The empty path
    returns (target, m)."""
    preimage, carry = kappa_path(a, b, -m, target)
    return preimage, -carry


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
    whole period passes with the running value v, q = 1 (A(period) divides
    B(period)) settles every later period (each of its prefixes gives p
    times an integer already seen).
    If q > 1, a passing period maps v to v * p/q with p prime to q, which
    lowers the valuation of v at every prime dividing q; a nonzero v thus
    fails within log2|v| + 1 periods.
    """
    period_b, period_a = 1, 1
    for e in x.period.edges:
        period_b *= b[e.source - 1, e.target - 1]
        period_a *= _check_edge(a, e)
    value = _divide_along(a, b, m, x.prefix.edges)
    while value:
        value = _divide_along(a, b, value, x.period.edges)
        if value is not None and period_b % period_a == 0:
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


# Labels are ASCII decimal: `\d` would also match any Unicode digit.
_EDGE_RE = re.compile(r"e\(\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\)")
_VERTEX_RE = re.compile(r"v\(\s*([0-9]+)\s*\)")


def _labels(match: re.Match, text: str) -> list[int]:
    """The integers of an edge or vertex match.  A label longer than the
    interpreter's integer digit limit is bad syntax, not a crash."""
    try:
        return [int(group) for group in match.groups()]
    except ValueError:
        raise InputValidationError("bad edge syntax", f"label too long in {quote(text)}") from None


def parse_edge(text: str) -> Edge:
    """Parse the "e(i,j,n)" syntax."""
    match = _EDGE_RE.fullmatch(text.strip())
    if not match:
        raise InputValidationError("bad edge syntax", f"cannot parse edge {quote(text)}")
    return Edge(*_labels(match, text))


def parse_path(text: str) -> Path:
    """Parse dot-separated edges, e.g. "e(1,1,0).e(1,1,1)"; "v(i)" is the
    empty path at vertex i."""
    text = text.strip()
    vertex = _VERTEX_RE.fullmatch(text)
    if vertex:
        return Path.empty(*_labels(vertex, text))
    edges = [parse_edge(part) for part in text.split(".")]
    try:
        return Path(tuple(edges))
    except ValueError as exc:
        raise InputValidationError("path not composable", str(exc)) from exc
