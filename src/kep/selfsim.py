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

import functools
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
    `__new__` stores any edge iterable as a tuple and checks, also on every
    rebuild, that edges are `Edge`s of ints and the anchor an int (else
    TypeError), the anchor rules, and that consecutive edges compose.
    """

    __slots__ = ()

    def __new__(cls, edges: Iterable[Edge] = (), vertex: int | None = None) -> "Path":
        edges = tuple(edges)
        if edges:
            if vertex is not None:
                raise ValueError("nonempty paths carry no anchor vertex")
            for e in edges:
                _check_edge_record(e)
            for a, b in zip(edges, edges[1:]):
                if a.target != b.source:
                    raise ValueError(f"edges {a} and {b} are not composable")
        elif vertex is None:
            raise ValueError("the empty path needs an anchor vertex")
        elif not isinstance(vertex, int):
            raise TypeError(f"the anchor vertex must be int, got {type(vertex).__name__}")
        return tuple.__new__(cls, (edges, vertex))

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
        """This path followed by `other`, checked at the junction only: both
        paths are composable on their own."""
        if self.range != other.source:
            raise ValueError("paths are not composable")
        return _composed_path((self.edges + other.edges, None)) if other.edges else self

    def tail_after(self, prefix: "Path") -> "Path | None":
        """The remainder of this path once `prefix` is stripped, or None
        when this path does not extend `prefix` (sources must agree)."""
        k = len(prefix.edges)
        if self.source != prefix.source or self.edges[:k] != prefix.edges:
            return None
        rest = self.edges[k:]
        return _composed_path((rest, None)) if rest else Path.empty(self.range)

    def __str__(self) -> str:
        if not self.edges:
            return f"v({self.vertex})"
        return ".".join(str(e) for e in self.edges)


# A nonempty path from the field pair (edges, None), for edges composable by
# construction: the one builder that skips the junction scan of
# `Path.__new__`, run for every path the action and the slice algebra
# derive.  It is `tuple.__new__` bound to `Path`, so it costs no Python frame.
_composed_path = functools.partial(tuple.__new__, Path)


@dataclass(frozen=True)
class EventuallyPeriodicPath:
    """The infinite path prefix . period . period . ..."""

    prefix: Path
    period: Path

    def __post_init__(self):
        if type(self.prefix) is not Path or type(self.period) is not Path:
            raise TypeError("prefix and period must be Paths")
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
    """The graph of A: one vertex per row, A[i, j] edges from i to j.  A is
    checked where it enters (`_validate_a`), and a method that takes a
    vertex reads its row through `_vertex_row`."""

    a: IntMatrix

    def __post_init__(self):
        _validate_a(self.a)

    def vertices(self) -> range:
        return range(1, self.a.rows + 1)

    def out_edges(self, vertex: int) -> list[Edge]:
        row = _vertex_row(self.a, vertex)
        return [Edge(vertex, j, t) for j, count in enumerate(row, 1) for t in range(count)]

    def edges(self) -> list[Edge]:
        return [e for v in self.vertices() for e in self.out_edges(v)]

    def out_degree(self, vertex: int) -> int:
        return sum(_vertex_row(self.a, vertex))

    def edge_count(self) -> int:
        return sum(self.a.entries)

    def out_edge(self, vertex: int, index: int) -> Edge:
        """`out_edges(vertex)[index]`, found without listing the edges."""
        row = _vertex_row(self.a, vertex)
        if index >= 0:
            for j, count in enumerate(row, 1):
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


def _check_shapes(a: IntMatrix, b: IntMatrix) -> None:
    """A square and B of A's shape: the O(1) part of `_validate_pair`."""
    if a.rows != a.cols:
        raise InputValidationError("shape mismatch", "matrix must be square")
    if b.rows != a.rows or b.cols != a.cols:
        raise InputValidationError("shape mismatch", "A and B must have the same shape")


def _validate_a(a: IntMatrix) -> None:
    """The standing assumptions on A, which define its graph: square,
    nonnegative and without zero rows."""
    _check_shapes(a, a)
    # A square A has n > 0 entries in each of its rows, so `min` is defined.
    for i, row in enumerate(a):
        if min(row) < 0:
            raise InputValidationError("negative entry", f"A row {i + 1} has a negative entry")
        if not any(row):
            raise InputValidationError("zero row", f"A row {i + 1} is identically zero")


def _validate_pair(a: IntMatrix, b: IntMatrix) -> None:
    """The standing assumptions on the pair: A's (`_validate_a`), and B of
    A's shape."""
    _validate_a(a)
    _check_shapes(a, b)


def random_walk(graph: Graph, rng: Random, start: int, length: int) -> Path:
    """A path of the given length from `start`, each edge drawn uniformly
    from the out-edges of the current vertex.

    Each step draws `rng.choice(range(out_degree))`, the same draw as
    `rng.choice(graph.out_edges(v))`, without listing the edges.
    """
    if length < 0:
        raise ValueError(f"walk length must be nonnegative, got {length}")
    if length == 0:
        _vertex_row(graph.a, start)
        return Path.empty(start)
    edges = []
    v = start
    for _ in range(length):
        e = graph.out_edge(v, rng.choice(range(graph.out_degree(v))))
        edges.append(e)
        v = e.target
    return _composed_path((tuple(edges), None))


def path_ending_at(graph: Graph, rng: Random, vertex: int, max_len: int) -> Path:
    """A random walk of length at most `max_len` with range `vertex`: up to
    32 draws, then the empty path at `vertex`."""
    _vertex_row(graph.a, vertex)
    for _ in range(32):
        start = rng.choice(graph.vertices())
        p = random_walk(graph, rng, start, rng.randint(0, max_len))
        if p.range == vertex:
            return p
    return Path.empty(vertex)


def _vertex_row(a: IntMatrix, v: int) -> tuple[int, ...]:
    """A's row at vertex v, the one door through which a vertex reads A: a
    bare index would read vertex 0 as the last row."""
    if not 1 <= v <= a.rows:
        raise InputValidationError("unknown edge", f"vertex {v} outside 1..{a.rows}")
    return a.row(v - 1)


def _check_edge_record(e: Edge) -> None:
    """An edge that enters the library is an `Edge` of ints."""
    if not (type(e) is Edge and isinstance(e.source, int) and isinstance(e.target, int)
            and isinstance(e.label, int)):
        raise TypeError(f"an edge must be an Edge of ints, got {quote(repr(e))}")


def _check_m(m: int) -> None:
    if not isinstance(m, int):
        raise TypeError(f"m must be int, got {type(m).__name__}")


def kappa_edge(a: IntMatrix, b: IntMatrix, m: int, e: Edge) -> tuple[Edge, int]:
    """Apply the action to one edge; returns (kappa_m(e), phi(m, e)).

    This is `_act` on the one-edge tuple, the step that `kappa_path` folds.
    It takes an int m and an `Edge` of ints (else TypeError), and `_act`,
    the one reader of the pair at an edge, refuses A not square or B of
    another shape ("shape mismatch").
    """
    _check_m(m)
    _check_edge_record(e)
    (image,), carry = _act(a, b, m, (e,))
    return image, carry


def _act(a: IntMatrix, b: IntMatrix, m: int, edges: tuple[Edge, ...]) -> tuple[tuple[Edge, ...], int]:
    """The carry fold of `kappa_path` on an edge tuple: (kappa_m(edges),
    phi(m, edges)).  `_act` is the one reader of the pair at an edge: it
    compares the shapes once (A square, B of its shape; `_check_shapes`
    runs only to raise), then checks each edge's vertices against 1..n and
    its label against A[source, target] before it reads B there.  No edges
    give ((), m) and read no edge.

    Floor division puts each residue in [0, A[i, j]), also when
    carry * B[i, j] + label is negative.
    """
    n = a.rows
    if a.cols != n or b.rows != n or b.cols != n:
        _check_shapes(a, b)
    carry = m
    out = []
    for e in edges:
        source, target, label = e
        if not (1 <= source <= n and 1 <= target <= n):
            raise InputValidationError("unknown edge", f"{e} has a vertex outside 1..{n}")
        a_entry = a.row(source - 1)[target - 1]
        if not 0 <= label < a_entry:
            raise InputValidationError("unknown edge", f"{e} does not exist (A entry is {a_entry})")
        carry, label = divmod(carry * b.row(source - 1)[target - 1] + label, a_entry)
        # The image edge is built as a plain tuple: Edge has no checks to run.
        out.append(tuple.__new__(Edge, (source, target, label)))
    return tuple(out), carry


def kappa_path(a: IntMatrix, b: IntMatrix, m: int, p: Path) -> tuple[Path, int]:
    """Extend the action along a path by folding the carry left to right.

    kappa_m(p q) = kappa_m(p) kappa_{phi(m, p)}(q) and
    phi(m, p q) = phi(phi(m, p), q).  m is checked as in `kappa_edge`, p
    must be a `Path` (else TypeError), and `_act`, the one reader of the
    pair at an edge, checks the shapes and each edge, also the shapes of
    the empty path; that path reads no edge, checks its anchor
    (`_vertex_row`) and returns (p, m).
    """
    _check_m(m)
    if type(p) is not Path:
        raise TypeError("kappa_path takes a Path")
    edges, carry = _act(a, b, m, p.edges)
    if not edges:
        _vertex_row(a, p.vertex)  # type: ignore[arg-type]
        return p, carry
    return _composed_path((edges, None)), carry


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


def fixes_path(a: IntMatrix, b: IntMatrix, m: int, x: EventuallyPeriodicPath) -> bool:
    """Whether kappa_m fixes x (m an int, x an `EventuallyPeriodicPath`).

    The criterion is the action's own fixed point: under carry c, kappa_c
    fixes e(i, j, t) iff A[i, j] divides c * B[i, j], and the next carry is
    then c * B[i, j] / A[i, j].  So x is fixed iff `_act`, the one reader
    of the pair at an edge, gives back the prefix, then each period,
    unchanged.  The prefix is folded once, then the period
    max(1, v.bit_length()) times, v the carry that enters the period, and
    that many folds decide every later one.  Let the period's B/A product
    be p/q in lowest terms.

    - If q > 1, a passing period maps the carry c to c * p/q with p prime
      to q, so it lowers v_l(c) by at least 1 at every prime l | q.  Since
      v_l(v) <= v.bit_length() - 1, a nonzero v fails by period number
      v.bit_length().
    - If q = 1, one passing period settles every later one: each prefix of
      the next period gives p times a carry already seen.
    - A carry of 0 is fixed.

    The period is folded at least once, so each of its edges is checked
    against the pair also when the prefix already fails, and when v = 0.
    """
    _check_m(m)
    if type(x) is not EventuallyPeriodicPath:
        raise TypeError("fixes_path takes an EventuallyPeriodicPath")
    image, value = _act(a, b, m, x.prefix.edges)
    fixed = image == x.prefix.edges
    for _ in range(max(1, value.bit_length())):
        image, value = _act(a, b, value, x.period.edges)
        if not (fixed and image == x.period.edges):
            return False
    return True


def phi_vertex_sum(a: IntMatrix, b: IntMatrix, m: int, v: int, w: int) -> int:
    """Sum of the carries phi(m, e) over all edges e from v to w.

    The residues permute {0, ..., A[v, w) - 1}, so the sum collapses to
    m * B[v, w] whenever the edge set is nonempty.  m is checked once; then
    `_act` checks the shapes and each edge.
    """
    _check_m(m)
    _vertex_row(a, w)
    return sum(_act(a, b, m, (Edge(v, w, t),))[1] for t in range(_vertex_row(a, v)[w - 1]))


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
