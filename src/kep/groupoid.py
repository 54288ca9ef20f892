"""Finite-depth arithmetic of basic slices and the structural classifier.

A slice Z(alpha, m, beta) is the compact open bisection of groupoid elements
"[alpha, m, beta; x] for x in the cylinder of beta": it maps the source
cylinder Z(beta) homeomorphically onto the range cylinder Z(alpha), sending
beta.y to alpha.kappa_m(y).  Slices are kept in reduced form; a slice equals
the disjoint union of its refinements, so equality is a semantic notion
tested by refining both sides to a common depth, not field equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputValidationError
from .intmat import IntMatrix, is_irreducible, is_permutation
from .selfsim import (
    Graph,
    Path,
    PseudoFreeness,
    _validate_pair,
    build_graph,
    is_pseudo_free,
    kappa_path,
    kappa_path_preimage,
    parse_path,
)


@dataclass(frozen=True)
class Slice:
    """Basic bisection Z(alpha, m, beta) over the pair context (A, B)."""

    alpha: Path
    m: int
    beta: Path
    context: tuple[IntMatrix, IntMatrix]

    def __post_init__(self):
        if self.alpha.range != self.beta.range:
            raise ValueError("alpha and beta must end at the same vertex")

    def __str__(self) -> str:
        return f"Z({self.alpha}|{self.m}|{self.beta})"


def parse_slice(text: str, context: tuple[IntMatrix, IntMatrix]) -> Slice:
    """Parse the "Z(<path>|m|<path>)" syntax."""
    text = text.strip()
    if not (text.startswith("Z(") and text.endswith(")")):
        raise InputValidationError("bad slice syntax", f"cannot parse slice {text!r}")
    parts = text[2:-1].split("|")
    if len(parts) != 3:
        raise InputValidationError("bad slice syntax", f"cannot parse slice {text!r}")
    return Slice(parse_path(parts[0]), int(parts[1]), parse_path(parts[2]), context)


def refine_slice(s: Slice) -> list[Slice]:
    """Split a slice along the edges leaving range(beta).

    Z(alpha, m, beta) is the disjoint union over such edges g of
    Z(alpha.kappa_m(g), phi(m, g), beta.g); one child per edge, and the
    children's source cylinders partition the parent's.
    """
    a, b = s.context
    children = []
    for edge in build_graph(a).out_edges(s.beta.range):
        gamma = Path.of([edge])
        image, carry = kappa_path(a, b, s.m, gamma)
        children.append(Slice(s.alpha.concat(image), carry, s.beta.concat(gamma), s.context))
    return children


def _refine_to_depth(s: Slice, depth: int) -> list[Slice]:
    """All refinements of s whose beta side has length `depth`."""
    level = [s]
    while level and len(level[0].beta) < depth:
        level = [child for piece in level for child in refine_slice(piece)]
    return level


def compose_slices(s1: Slice, s2: Slice) -> Slice | None:
    """Product of two slices, or None when their middle cylinders miss.

    With matching middles, Z(a, m1, b) . Z(b, m2, c) = Z(a, m1 + m2, c).
    When one middle path properly extends the other, the shorter-sided
    operand is refined along the overhang until the middles match;
    incomparable middles give the empty product.
    """
    if s1.context != s2.context:
        raise ValueError("slices live over different pairs")
    a, b = s1.context
    if s1.beta == s2.alpha:
        return Slice(s1.alpha, s1.m + s2.m, s2.beta, s1.context)
    if s2.alpha.starts_with(s1.beta):
        overhang = s2.alpha.tail_after(s1.beta)
        image, carry = kappa_path(a, b, s1.m, overhang)
        return Slice(s1.alpha.concat(image), carry + s2.m, s2.beta, s1.context)
    if s1.beta.starts_with(s2.alpha):
        overhang = s1.beta.tail_after(s2.alpha)
        preimage = kappa_path_preimage(a, b, s2.m, overhang)
        _, carry = kappa_path(a, b, s2.m, preimage)
        return Slice(s1.alpha, s1.m + carry, s2.beta.concat(preimage), s1.context)
    return None


def invert_slice(s: Slice) -> Slice:
    """Z(alpha, m, beta)^(-1) = Z(beta, -m, alpha)."""
    return Slice(s.beta, -s.m, s.alpha, s.context)


def slice_image_cylinder(s: Slice, gamma: Path) -> Path:
    """Image of the source cylinder Z(beta.gamma) under the slice's partial
    homeomorphism: the cylinder of alpha.kappa_m(gamma)."""
    if gamma.source != s.beta.range:
        raise ValueError("gamma must start where beta ends")
    a, b = s.context
    image, _ = kappa_path(a, b, s.m, gamma)
    return s.alpha.concat(image)


def slices_equal(s1: Slice, s2: Slice) -> bool:
    """Semantic slice equality: refine both to a common beta depth and
    compare the resulting sets of pieces.  Exact for pseudo-free pairs."""
    if s1.context != s2.context:
        return False
    depth = max(len(s1.beta), len(s2.beta))
    return set(_refine_to_depth(s1, depth)) == set(_refine_to_depth(s2, depth))


@dataclass(frozen=True)
class PropertyReport:
    """Structural verdicts for the groupoid of a pair (A, B).

    ``pseudo_free`` is decided exactly; ``hausdorff`` uses None for
    "unknown".  The effectiveness and minimality fields are sufficient
    conditions: True asserts the property, False only means the witness was
    not found.
    """

    pseudo_free: bool
    hausdorff: bool | None
    effective_sufficient: bool
    minimal_pi_sufficient: bool
    condition_O: bool
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.pseudo_free is True and self.hausdorff is not True:
            raise ValueError("pseudo-freeness forces Hausdorffness")


def _every_cycle_has_exit(graph: Graph) -> bool:
    """A cycle with no exit must consist of vertices of total out-degree 1
    whose unique edges chain around the cycle; detect exactly that."""
    a = graph.a
    n = graph.n
    successor = {}
    for v in graph.vertices():
        row = a.row(v - 1)
        if sum(row) == 1:
            successor[v] = row.index(1) + 1
    for start in successor:
        seen = set()
        v = start
        while v in successor:
            if v in seen:
                return False
            seen.add(v)
            v = successor[v]
    return True


def _contraction_reachable_everywhere(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether every vertex reaches a closed walk with edge-ratio product
    |B|/A strictly below one (a witness that some infinite path from each
    vertex has B-to-A weight tending to zero)."""
    n = a.rows
    weight: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        for j in range(n):
            if a[i, j] > 0:
                weight[(i, j)] = Fraction(abs(b[i, j]), a[i, j])
    best = dict(weight)
    contracting = set()
    for _ in range(n):
        for i in range(n):
            if (i, i) in best and best[(i, i)] < 1:
                contracting.add(i)
        nxt: dict[tuple[int, int], Fraction] = {}
        for (i, t), w1 in best.items():
            for j in range(n):
                w2 = weight.get((t, j))
                if w2 is None:
                    continue
                candidate = w1 * w2
                if (i, j) not in nxt or candidate < nxt[(i, j)]:
                    nxt[(i, j)] = candidate
        best = nxt
    if not contracting:
        return False
    # Reverse reachability from the contracting set.
    reached = set(contracting)
    frontier = list(contracting)
    while frontier:
        j = frontier.pop()
        for i in range(n):
            if a[i, j] > 0 and i not in reached:
                reached.add(i)
                frontier.append(i)
    return len(reached) == n


def classify(a: IntMatrix, b: IntMatrix) -> PropertyReport:
    """Evaluate the structural conditions the pair (A, B) is known to control.

    Pseudo-freeness is decided exactly (B nonzero on the support of A);
    Hausdorffness is asserted only as its consequence.
    Effectiveness is certified by "every cycle has an exit" plus a
    contracting cycle reachable from every vertex.  Minimality and pure
    infiniteness are certified by A irreducible and not a permutation.
    """
    _validate_pair(a, b)
    graph = build_graph(a)
    notes = []

    pf: PseudoFreeness = is_pseudo_free(a, b)
    if not pf.verdict:
        notes.append(f"pseudo-freeness fails: m={pf.witness[0]} fixes {pf.witness[1]} with zero carry")
    hausdorff = True if pf.verdict else None

    exits = _every_cycle_has_exit(graph)
    contracting = _contraction_reachable_everywhere(a, b)

    condition_o = all(
        a[i, i] >= 2 and a[i, i] > abs(b[i, i]) for i in range(a.rows)
    )

    return PropertyReport(
        pseudo_free=pf.verdict,
        hausdorff=hausdorff,
        effective_sufficient=exits and contracting,
        minimal_pi_sufficient=is_irreducible(a) and not is_permutation(a),
        condition_O=condition_o,
        notes=tuple(notes),
    )
