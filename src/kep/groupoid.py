"""Finite-depth arithmetic of basic slices and the structural classifier.

A slice Z(alpha, m, beta) is the compact open bisection of groupoid elements
"[alpha, m, beta; x] for x in the cylinder of beta": it maps the source
cylinder Z(beta) homeomorphically onto the range cylinder Z(alpha), sending
beta.y to alpha.kappa_m(y).  A slice is the tuple record (alpha, m, beta),
as a `Path` is the record (edges, vertex) and an `Edge` the record (source,
target, label): each is built, compared and hashed as the tuple of its
fields.  The operations that read A and B take the pair as their leading
arguments, like `kappa_path`.  A slice is stored as built, never reduced.
It equals the disjoint union of its refinements, so two slices are compared
with `slices_equal`, which refines the shallower one toward the other's
beta depth, not by field equality; at equal depth field equality decides.

A product `compose_slices` reads the two middle paths once as their fields
(edges, vertex): it compares the edge tuples, and an anchor vertex only
where a middle is empty, folds the overhang of the longer one through the
action (`selfsim._act`, the one edge step behind `kappa_edge` and
`kappa_path`, and the one reader of the pair at an edge), and builds one
path and one slice.  Records are checked where they enter:
`Slice` and `Path` check every record built from outside, and every
operation here takes only `Slice`s; `refine_slice`, `compose_slices` and
`invert_slice` build what they derive as plain records, each path by
`selfsim._composed_path` and each slice by `tuple.__new__`, because their
construction proves the range and junction rules (the proof is in
`compose_slices`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .intmat import IntMatrix
from .selfsim import (
    Edge,
    Path,
    PseudoFreeness,
    _CheckedRecord,
    _act,
    _check_m,
    _composed_path,
    _validate_pair,
    _vertex_row,
    is_pseudo_free,
    kappa_path,
)


class _SliceFields(NamedTuple):
    alpha: Path
    m: int
    beta: Path


class Slice(_CheckedRecord, _SliceFields):
    """Basic bisection Z(alpha, m, beta); the pair (A, B) it lives over is
    an argument of every operation that reads it.

    A slice is the record (alpha, m, beta), a tuple like `Edge` and `Path`:
    equality, hashing and `repr` are those of its field tuple, so a slice
    also compares equal to the plain tuple (alpha, m, beta).  `__new__`
    checks that m is an int and alpha and beta `Path`s (else TypeError),
    and that they end at the same vertex, also on a rebuild
    (`selfsim._CheckedRecord`).  The slices the slice algebra derives skip
    it: they are built with `tuple.__new__`, since alpha and beta of a
    slice derived from valid ones end at the same vertex by construction.
    """

    __slots__ = ()

    def __new__(cls, alpha: Path, m: int, beta: Path) -> "Slice":
        _check_m(m)
        if type(alpha) is not Path or type(beta) is not Path:
            raise TypeError("alpha and beta must be Paths")
        if alpha.range != beta.range:
            raise ValueError("alpha and beta must end at the same vertex")
        return tuple.__new__(cls, (alpha, m, beta))

    def __str__(self) -> str:
        return f"Z({self.alpha}|{self.m}|{self.beta})"


def refine_slice(a: IntMatrix, b: IntMatrix, s: Slice) -> list[Slice]:
    """Split a slice over the pair (A, B) along the edges leaving range(beta).

    Z(alpha, m, beta) is the disjoint union over such edges g of
    Z(alpha.kappa_m(g), phi(m, g), beta.g); one child per edge, and the
    children's source cylinders partition the parent's.  Each child is read
    off the rows of A and B at range(beta): g = e(v, j, t) with
    m*B[v, j] + t = k*A[v, j] + l gives Z(alpha.e(v, j, l), k, beta.g).
    Both new edges leave v = range(beta) = range(alpha) and end at j, so
    each child is built as a plain record, without the checks of `Slice`.
    """
    if type(s) is not Slice:
        raise TypeError("refine_slice takes a Slice")
    _validate_pair(a, b)
    v = s.beta.range
    alpha_edges, m, beta_edges = s.alpha.edges, s.m, s.beta.edges
    children = []
    for j, (a_entry, b_entry) in enumerate(zip(_vertex_row(a, v), b.row(v - 1)), 1):
        shift = m * b_entry
        # t -> l permutes the labels, so both new edges come from one list.
        steps = [(tuple.__new__(Edge, (v, j, t)),) for t in range(a_entry)]
        for t, step in enumerate(steps):
            carry, label = divmod(shift + t, a_entry)
            alpha = _composed_path((alpha_edges + steps[label], None))
            beta = _composed_path((beta_edges + step, None))
            children.append(tuple.__new__(Slice, (alpha, carry, beta)))
    return children


def compose_slices(a: IntMatrix, b: IntMatrix, s1: Slice, s2: Slice) -> Slice | None:
    """Product of two slices over the pair (A, B), or None when their
    middle cylinders miss.

    With matching middles, Z(a, m1, b) . Z(b, m2, c) = Z(a, m1 + m2, c).
    When one middle path extends the other, the shorter-sided operand is
    refined along the overhang until the middles match; incomparable
    middles, or empty ones at different vertices, give the empty product.

    One pass over the middles' fields (edges, vertex): the shorter edge
    tuple as a prefix of the longer, then, only when the shorter is empty,
    its anchor vertex against the longer middle's first source, or against
    the other anchor when both are empty.  A nonempty prefix that matches
    starts with the same edge, so it already has the same source: the two
    rules give equal, forward, backward, empty-apart and incomparable
    middles exactly as comparing the sources first would.  A forward
    overhang (s2.alpha longer)
    extends s1.alpha by kappa_{m1}(overhang), with carry phi(m1, overhang)
    added to m2.  A backward one (s1.beta longer) extends s2.beta by the
    preimage kappa_{-m2}(overhang), and m1 gains -phi(-m2, overhang), the
    carry of that preimage under m2 (see `kappa_path_preimage`).

    The overhang is folded by `_act`, the one reader of the pair at an
    edge, which checks each of its edges against A.  The product is built
    as a plain record, without the checks of `Slice` and `Path` (its new
    path by `selfsim._composed_path`), because both operands are valid
    records.  `_act` maps e(i, j, t) to e(i, j, l), so an
    image composes exactly as its source path does.  The shorter middle is
    a prefix of the longer with the same source, so a forward overhang
    starts at range(beta1) = range(alpha1) and ends at range(alpha2) =
    range(beta2); the backward case is its mirror image.  Equal middles
    give range(alpha1) = range(beta2) directly.
    """
    if type(s1) is not Slice or type(s2) is not Slice:
        raise TypeError("compose_slices takes two Slices")
    alpha1, m1, (edges1, vertex1) = s1
    (edges2, vertex2), m2, beta2 = s2
    k1, k2 = len(edges1), len(edges2)
    if k1 <= k2:
        if edges2[:k1] != edges1:
            return None
        if not k1 and vertex1 != (edges2[0].source if k2 else vertex2):
            return None
        if k1 == k2:
            return tuple.__new__(Slice, (alpha1, m1 + m2, beta2))
        image, carry = _act(a, b, m1, edges2[k1:])
        return tuple.__new__(Slice, (_composed_path((alpha1.edges + image, None)), carry + m2, beta2))
    if edges1[:k2] != edges2:
        return None
    if not k2 and vertex2 != edges1[0].source:
        return None
    preimage, carry = _act(a, b, -m2, edges1[k2:])
    return tuple.__new__(Slice, (alpha1, m1 - carry, _composed_path((beta2.edges + preimage, None))))


def invert_slice(s: Slice) -> Slice:
    """Z(alpha, m, beta)^(-1) = Z(beta, -m, alpha), built as a plain record:
    swapping alpha and beta keeps their common range."""
    if type(s) is not Slice:
        raise TypeError("invert_slice takes a Slice")
    return tuple.__new__(Slice, (s.beta, -s.m, s.alpha))


def slice_image_cylinder(a: IntMatrix, b: IntMatrix, s: Slice, gamma: Path) -> Path:
    """Image of the source cylinder Z(beta.gamma) under the slice's partial
    homeomorphism over the pair (A, B): the cylinder of alpha.kappa_m(gamma)."""
    if type(s) is not Slice or type(gamma) is not Path:
        raise TypeError("slice_image_cylinder takes a Slice and a Path")
    if gamma.source != s.beta.range:
        raise ValueError("gamma must start where beta ends")
    image, _ = kappa_path(a, b, s.m, gamma)
    return s.alpha.concat(image)


def slices_equal(a: IntMatrix, b: IntMatrix, s1: Slice, s2: Slice) -> bool:
    """Semantic equality of two slices over the pair (A, B), exact for
    pseudo-free pairs: refined to a common beta depth, both give the same
    pieces.  The depths are read off the beta edge tuples; at equal depth
    field equality decides.  Otherwise the deeper slice is its own
    refinement to its depth, so the shallower one must refine to that one
    piece alone.  It is refined one level at a time along its one piece,
    and a level of more than one piece gives False: the pieces' betas are
    distinct paths of one length, whose cylinders are disjoint, and none
    is empty, since A has no zero rows, so every later level also has more
    than one piece."""
    if type(s1) is not Slice or type(s2) is not Slice:
        raise TypeError("slices_equal takes two Slices")
    k1, k2 = len(s1.beta.edges), len(s2.beta.edges)
    if k1 > k2:
        s1, s2, k1, k2 = s2, s1, k2, k1
    for _ in range(k2 - k1):
        pieces = refine_slice(a, b, s1)
        if len(pieces) != 1:
            return False
        (s1,) = pieces
    return s1 == s2


@dataclass(frozen=True)
class PropertyReport:
    """Structural verdicts for the groupoid of a pair (A, B).

    ``pseudo_free`` is decided exactly; ``hausdorff`` uses None for
    "unknown".  The effectiveness and minimality fields are sufficient
    conditions: True asserts the property, False only means the witness was
    not found.
    """

    pseudo_free: bool
    effective_sufficient: bool
    minimal_pi_sufficient: bool
    condition_O: bool
    notes: tuple[str, ...] = ()

    @property
    def hausdorff(self) -> bool | None:
        """Pseudo-freeness forces Hausdorffness; otherwise it is unknown."""
        return True if self.pseudo_free else None


def _reach(a: IntMatrix) -> list[int]:
    """reach[i] is a bitmask whose bit j is set iff a walk of one or more
    edges runs i -> j in the graph of A.

    Warshall's closure on int rows: pivot k adds row k to every row that
    reaches k, so the closure costs O(n^2) mask operations.
    """
    reach = [sum(1 << j for j, x in enumerate(row) if x) for row in a]
    for k in range(len(reach)):
        bit, row_k = 1 << k, reach[k]
        for i, row_i in enumerate(reach):
            if row_i & bit:
                reach[i] = row_i | row_k
    return reach


def _walk_rounds(a: IntMatrix, b: IntMatrix) -> Iterator[list[list[tuple[int, int] | None]]]:
    """Yield the one-edge table, then the table after each squaring round.

    The one-edge table holds walk[i][j] = (|B[i, j]|, A[i, j]) on each arc
    and None elsewhere.  Each of the r = (n - 1).bit_length() rounds
    walk <- min(walk, walk (x) walk) in the (min, *) semiring doubles the
    longest length covered, so the last table holds the least product p/q
    of |B[e]|/A[e] over walks i -> j of 1..L edges, L = 2**r >= n, or None
    when there is no such walk; each round costs O(n^3) exact products.

    The pairs are never reduced: a product is (p1*p2, q1*q2), and p/q < p'/q'
    is tested as p*q' < p'*q.  That is exact because every q is a product of
    entries A[e] > 0, so q > 0 and multiplying by it preserves order.  A pair
    stands for a walk of at most L = 2**ceil(log2 n) < 2n edges, so p and q
    have at most L times the bit length of the largest entry of |B| and A:
    the cost depends on n and bit length, not on the size of an entry.
    """
    walk = [[(abs(y), x) if x > 0 else None for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    yield walk
    for _ in range((a.rows - 1).bit_length()):
        squared = []
        for row in walk:
            best = list(row)
            for k, w1 in enumerate(row):
                if w1 is None:
                    continue
                p1, q1 = w1
                for j, w2 in enumerate(walk[k]):
                    if w2 is not None:
                        p, q = p1 * w2[0], q1 * w2[1]
                        least = best[j]
                        if least is None or p * least[1] < least[0] * q:
                            best[j] = (p, q)
            squared.append(best)
        walk = squared
        yield walk


def _contraction_everywhere(a: IntMatrix, b: IntMatrix, reach: list[int]) -> bool:
    """Whether every vertex reaches, by one or more edges, a vertex of a
    closed walk whose |B|/A product is below 1, read off the tables of
    `_walk_rounds` as they are made.

    A closed walk with product < 1 contains a simple cycle with product < 1
    that its vertices reach, so walks longer than n change nothing, and the
    last table decides.  The squaring stops early once the answer is True:
    a round never removes an entry and never raises one, and every finite
    entry is the product of a real walk, so a vertex found contracting stays
    contracting.  With `reach` exact, the verdict can only go from False to
    True, and stopping at True changes nothing.  False is decided only after
    the last round.
    """
    for walk in _walk_rounds(a, b):
        # walk[j][j] = (p, q) with q > 0: the product p/q is below 1 iff p < q.
        loops = (row[j] for j, row in enumerate(walk))
        contracting = sum(1 << j for j, w in enumerate(loops) if w is not None and w[0] < w[1])
        if all(row & contracting for row in reach):
            return True
    return False


def classify(a: IntMatrix, b: IntMatrix) -> PropertyReport:
    """Evaluate the structural conditions the pair (A, B) is known to control.

    Pseudo-freeness is decided exactly (B nonzero on the support of A);
    Hausdorffness is asserted only as its consequence.  The graph conditions
    read two facts.  Reachability comes from `_reach`, an exact bitset
    closure of O(n^2) mask operations: "every cycle has an exit" and "A
    irreducible" are read off it alone, and "not a permutation" off the
    out-degrees.  Effectiveness also needs a cycle whose |B|/A product is
    below one, reachable from every vertex; `_contraction_everywhere` finds
    it by (min, *) squaring of walk products, O(n^3) exact products a round,
    and stops at the first round that proves it (on a full support, the
    one-edge table already does).  It is not run when a cycle has no exit.
    Minimality and pure infiniteness are certified by A irreducible and not
    a permutation.
    """
    notes = []
    # is_pseudo_free validates the pair before it reads it.
    pf: PseudoFreeness = is_pseudo_free(a, b)
    if not pf.verdict:
        notes.append(f"pseudo-freeness fails: m={pf.witness[0]} fixes {pf.witness[1]} with zero carry")

    reach = _reach(a)
    every_vertex = (1 << a.rows) - 1
    single_edge = sum(1 << j for j, row in enumerate(a) if sum(row) == 1)
    # A cycle has no exit iff everything its vertices reach emits one edge.
    exitless_cycle = any(row >> i & 1 and not row & ~single_edge for i, row in enumerate(reach))
    irreducible = all(row | 1 << i == every_vertex for i, row in enumerate(reach))

    condition_o = all(ra[i] >= 2 and ra[i] > abs(rb[i]) for i, (ra, rb) in enumerate(zip(a, b)))

    return PropertyReport(
        pseudo_free=pf.verdict,
        effective_sufficient=not exitless_cycle and _contraction_everywhere(a, b, reach),
        # An irreducible A with every out-degree 1 is a single cycle through
        # all vertices, so each column also holds exactly one 1: A is then a
        # permutation matrix exactly when every row sums to 1.
        minimal_pi_sufficient=irreducible and single_edge != every_vertex,
        condition_O=condition_o,
        notes=tuple(notes),
    )
