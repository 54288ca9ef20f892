"""Homology, K-theory, two-route verification, comparison and realization.

For a valid pair (A, B) the groupoid invariants are
    H0 = coker(I - A),   H1 = ker(I - A) ⊕ coker(I - B),
    H2 = ker(I - B),     H_i = 0 for i >= 3,
    K0 = coker(I - A) ⊕ ker(I - B),   K1 = coker(I - B) ⊕ ker(I - A).
These formulas are what :func:`homology` and :func:`ktheory` compute through
Smith diagonals, one `det_smith_diagonal` per matrix, singular or not: its
Bareiss pass gives det, which is also reported, and minors whose gcd g with
det gives the leading Smith entries as ones when g = 1; otherwise a
Hermite elimination modulo g follows.  A singular matrix of rank r takes
that same path, with r-minors, and its other n - r entries are the zeros
of the cokernel's free part.  :func:`hk_check` also runs the
stationary-limit model of :mod:`kep.dirlimit` - a computation that never
touches the closed formulas.
Per limit it takes one `coker_one_minus_shift`, with T = A^t or B^t: one
Gauss-Jordan elimination of 1 - T gives det(1 - T) and the gcd of its
adjugate's entries, which certify a cyclic cokernel when the gcd is 1,
and `_smith`, the other Smith algorithm, gives it otherwise.  The kernel
is free of rank nullity(1 - T), the cokernel's free rank, with no rank,
no eventual kernel and no lattice basis.  Both routes build their
operator I - M with `intmat.one_minus`; they share that builder and, on
singular or non-cyclic inputs, `_smith`, and no other elimination.  Its
evidence confirms K0 = H0 ⊕ H2, K1 = H1 and the routes' agreement for
:func:`analyze` and ``kep check``.

All formulas assume A nonnegative with no zero rows.  They are evaluated
for any such pair, but when the matching-support criterion for
pseudo-freeness fails the report is flagged as formula-only, because the
identification of these groups with the groupoid's invariants is only
guaranteed under that hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abgroup import FGAbelianGroup, direct_sum
from .dirlimit import StationaryLimit, coker_one_minus_shift
from .errors import InputValidationError, InternalError
from .groupoid import PropertyReport, classify
from .intmat import IntMatrix, det_smith_diagonal, one_minus
from .selfsim import _validate_pair, supports_match

VALIDITY_OK = "ok"
VALIDITY_FORMULA_ONLY = "formula-only (theorem hypothesis unmet)"
VERDICT_DISTINGUISHED = "distinguished (not Kakutani equivalent)"
VERDICT_NOT_DISTINGUISHED = "not distinguished by these invariants"


@dataclass(frozen=True)
class HomologyTuple:
    """Homology in degrees 0..2; every higher degree vanishes.

    The formula route also keeps (det(I - A), det(I - B)), the moduli of its
    cokernels; the limit route has none.  They are not groups, so equality
    ignores them.  Its degree tuple and (H0 ⊕ H2, H1) are formed once, when
    it is built (so `dataclasses.replace` forms them again), for every reader."""

    h0: FGAbelianGroup
    h1: FGAbelianGroup
    h2: FGAbelianGroup
    dets: tuple[int, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.h2.is_free:
            raise InternalError("degree-2 homology must be free")
        object.__setattr__(self, "_degrees", (self.h0, self.h1, self.h2, FGAbelianGroup.trivial()))
        object.__setattr__(self, "_k", (direct_sum(self.h0, self.h2), self.h1))

    def degrees(self) -> tuple[FGAbelianGroup, ...]:
        """Degrees 0..3 explicitly; degree 3 is always trivial."""
        return self._degrees

    def k_groups(self) -> tuple[FGAbelianGroup, FGAbelianGroup]:
        """(H0 ⊕ H2, H1): the groups the (HK) identity equates with (K0, K1)."""
        return self._k


@dataclass(frozen=True)
class Operand:
    """A comparison operand: a full pair, or a shift-of-finite-type groupoid
    given by A alone (the B = 0 comparison object).  Construction checks the
    pair's standing assumptions, so every operand holds a valid pair."""

    mode: str  # "katsura" | "sft"
    a: IntMatrix
    b: IntMatrix | None = None

    def __post_init__(self):
        if self.mode not in ("katsura", "sft"):
            raise InputValidationError("unknown mode", f"mode must be katsura or sft, got {self.mode!r}")
        if self.mode == "katsura" and self.b is None:
            raise InputValidationError("missing B", "katsura mode needs both matrices")
        if self.mode == "sft" and self.b is not None:
            raise InputValidationError("unexpected B", "sft mode takes only A")
        _validate_pair(self.a, self.b_or_zero())

    def b_or_zero(self) -> IntMatrix:
        return self.b if self.b is not None else IntMatrix.zeros(self.a.rows, self.a.cols)


def homology(a: IntMatrix, b: IntMatrix) -> HomologyTuple:
    """Homology of the groupoid of (A, B) by the closed matrix formulas.

    One `det_smith_diagonal` per matrix, singular or not, which gives its
    determinant and Smith diagonal from one Bareiss pass and, unless the
    minors it holds have gcd 1 with the determinant, one elimination
    modulo that gcd.  For square M the kernel lattice is free of rank
    nullity(M), which is the free rank of coker(M).
    """
    _validate_pair(a, b)
    dets, diagonals = zip(*(det_smith_diagonal(one_minus(m)) for m in (a, b)))
    coker_ia, coker_ib = map(FGAbelianGroup.from_cyclic_orders, diagonals)
    return HomologyTuple(
        h0=coker_ia,
        h1=direct_sum(FGAbelianGroup.free(coker_ia.free_rank), coker_ib),
        h2=FGAbelianGroup.free(coker_ib.free_rank),
        dets=dets,
    )


def ktheory(a: IntMatrix, b: IntMatrix) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """K-theory (K0, K1) of the algebra of the pair."""
    return homology(a, b).k_groups()


def sft_homology(a: IntMatrix) -> HomologyTuple:
    """Homology of the shift-of-finite-type groupoid of A:
    (coker(I - A), ker(I - A), 0), the pair (A, 0)."""
    return homology(a, IntMatrix.zeros(a.rows, a.cols))


def limit_route_homology(a: IntMatrix, b: IntMatrix) -> HomologyTuple:
    """Homology recomputed through the stationary-limit model.

    The degree-0 group is the cokernel of (I - shift) on the limit over A,
    degree 2 the kernel of (I - shift) on the limit over B, and degree 1
    the sum of the two cross terms.  No closed cokernel/kernel formula for
    the pair enters this route.  Each cokernel is `coker_one_minus_shift`
    of the limit over T = A^t or B^t.  Each kernel is free of rank
    nullity(M), with M = I - T, which is the free rank of coker M.

    Why: the kernel, the subgroup the shift fixes, is L'/EK, with EK the eventual kernel and
    L' = {x : M x in EK}: L' surjects onto it with kernel exactly EK, and
    T EK lies in EK, so EK lies in L'.  T is nilpotent on EK, so M
    restricted to EK is I - N with N nilpotent, which has the integer
    inverse I + N + N^2 + ...: M maps EK onto EK.  So for x in L' some
    y in EK has M y = M x, and x - y lies in ker M; and EK meets ker M in
    0, since M is injective on EK.  Hence L' = EK ⊕ ker M, and L'/EK ≅
    ker M, free of rank nullity(M), the free rank of coker M.  Neither EK
    nor L' is computed; `dirlimit.ker_one_minus_shift` builds both.
    """
    _validate_pair(a, b)
    coker_a = coker_one_minus_shift(StationaryLimit.from_row_action(a))
    coker_b = coker_one_minus_shift(StationaryLimit.from_row_action(b))
    return HomologyTuple(
        h0=coker_a,
        h1=direct_sum(FGAbelianGroup.free(coker_a.free_rank), coker_b),
        h2=FGAbelianGroup.free(coker_b.free_rank),
    )


@dataclass(frozen=True)
class HkEvidence:
    """Both routes to the homology of one pair, each computed once.

    K is read off the formula route; ``ok`` is the (HK) identity K0 = H0 ⊕ H2,
    K1 = H1 against the limit route, each side's (H0 ⊕ H2, H1) read off its
    `HomologyTuple`.  Groups are canonical, so ``==`` on groups and tuples
    decides isomorphism.
    """

    formula: HomologyTuple
    limit: HomologyTuple

    def __post_init__(self):
        if self.k0.free_rank != self.k1.free_rank:
            raise InternalError("K0 and K1 must share their free rank for square pairs")

    @property
    def k0(self) -> FGAbelianGroup:
        return self.formula.k_groups()[0]

    @property
    def k1(self) -> FGAbelianGroup:
        return self.formula.k_groups()[1]

    @property
    def ok(self) -> bool:
        return self.formula.k_groups() == self.limit.k_groups()

    @property
    def routes_agree(self) -> bool:
        return self.formula == self.limit


def hk_check(a: IntMatrix, b: IntMatrix) -> HkEvidence:
    """Run both routes: K through Smith diagonals of I - A and I - B, H
    through the stationary-limit model, which reuses none of them."""
    return HkEvidence(homology(a, b), limit_route_homology(a, b))


@dataclass(frozen=True)
class InvariantReport:
    """Everything the analyzer knows about one pair; det(I - A) and
    det(I - B) are those the formula route computed."""

    properties: PropertyReport
    evidence: HkEvidence
    validity: str

    @property
    def det_ia(self) -> int:
        return self.evidence.formula.dets[0]

    @property
    def det_ib(self) -> int:
        return self.evidence.formula.dets[1]


def analyze(operand: Operand) -> InvariantReport:
    """Full invariant report for a pair or an SFT comparison object."""
    a = operand.a
    b = operand.b_or_zero()
    if operand.mode == "sft" or supports_match(a, b):
        validity = VALIDITY_OK
    else:
        validity = VALIDITY_FORMULA_ONLY
    return InvariantReport(
        properties=classify(a, b),
        evidence=hk_check(a, b),
        validity=validity,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Degreewise comparison of two operands off each side's formula-route
    homology, which carries (det(I - A), det(I - B)).  ker(I - A) is free of
    the rank of H0's free part and ker(I - B) is H2.  A differing homology
    degree (``distinguished``) rules out Kakutani equivalence; the converse
    is never claimed."""

    h_left: HomologyTuple
    h_right: HomologyTuple

    @property
    def det_left(self) -> tuple[int, int]:
        return self.h_left.dets

    @property
    def det_right(self) -> tuple[int, int]:
        return self.h_right.dets

    @property
    def homology_isomorphic(self) -> tuple[bool, ...]:
        return tuple(g == h for g, h in zip(self.h_left.degrees(), self.h_right.degrees()))

    @property
    def k0_equal(self) -> bool:
        return self.h_left.k_groups()[0] == self.h_right.k_groups()[0]

    @property
    def k1_equal(self) -> bool:
        return self.h_left.k_groups()[1] == self.h_right.k_groups()[1]

    @property
    def k_theory_equal(self) -> bool:
        return self.k0_equal and self.k1_equal

    @property
    def ker_ia_isomorphic(self) -> bool:
        return self.h_left.h0.free_rank == self.h_right.h0.free_rank

    @property
    def ker_ib_isomorphic(self) -> bool:
        return self.homology_isomorphic[2]

    @property
    def distinguished(self) -> bool:
        return not all(self.homology_isomorphic)

    @property
    def verdict(self) -> str:
        return VERDICT_DISTINGUISHED if self.distinguished else VERDICT_NOT_DISTINGUISHED


def compare(p1: Operand, p2: Operand) -> ComparisonReport:
    """Compare two operands degree by degree by the formula route alone: one
    `homology` per operand, which computes det(I - A), det(I - B).  Neither
    the classifier nor the limit route runs."""
    return ComparisonReport(*(homology(op.a, op.b_or_zero()) for op in (p1, p2)))


@dataclass(frozen=True)
class RealizeResult:
    """Outcome of a realization request; `report` is the analysis that verified it."""

    ok: bool
    a: IntMatrix | None = None
    b: IntMatrix | None = None
    report: InvariantReport | None = None
    reason: str | None = None


# The most diagonal blocks `realize` builds.  n blocks make an n x n pair,
# and its one `analyze` grows about as n^3.  `kep realize` on a 2-core
# x86-64 host (CPython 3.11): rank 128 took 0.29 s and 19 MB, rank 256
# 1.8 s and 28 MB, rank 512 15 s and 63 MB; 64 + 64 torsion factors near
# 10^30 took 2.4 s, and 128 + 128 of them 31 s.
REALIZE_MAX_BLOCKS = 128


def _refuse_oversized(blocks: int) -> None:
    """Refuse a target of more than REALIZE_MAX_BLOCKS blocks, counted as
    the free rank plus the K0 and K1 torsion factors, before any is built."""
    if blocks > REALIZE_MAX_BLOCKS:
        raise InputValidationError(
            "realize block bound",
            "realize builds one diagonal block per unit of free rank and per torsion "
            f"factor of K0 and K1, and at most {REALIZE_MAX_BLOCKS} blocks; this target needs more",
        )


def _rank_text(rank: int) -> str:
    """A free rank for a message: in decimal up to 64 bits, else by its bit
    length, so the message stays short and never meets the digit limit."""
    return str(rank) if rank.bit_length() <= 64 else f"a {rank.bit_length()}-bit rank"


def realize(target_k0: FGAbelianGroup, target_k1: FGAbelianGroup) -> RealizeResult:
    """Construct a pair (A, B) whose K-theory is the given pair of groups.

    The construction is a diagonal of 1x1 blocks: ((d+1), (2)) contributes
    Z/d to K0, ((2), (d+1)) contributes Z/d to K1, ((2), (1)) contributes
    Z to both, and the empty target falls back to ((2), (2)).  The result
    always satisfies the matching-support criterion.  One `analyze`, which
    the result carries, verifies it: a formula-route K off the target or a
    limit route that disagrees raises InternalError.  Classifier
    certificates are not required; block-diagonal pairs cannot meet them.

    For square integer matrices the free rank of coker(I - M) equals the
    nullity of I - M, so free_rank(K0) = nullity(I-A) + nullity(I-B)
    = free_rank(K1): targets with different free ranks are not realizable
    by finite matrices and are rejected.  A target of more than
    REALIZE_MAX_BLOCKS blocks (free rank plus torsion factors) raises
    InputValidationError("realize block bound") before anything is built.
    """
    if target_k0.free_rank != target_k1.free_rank:
        return RealizeResult(
            ok=False,
            reason=(
                "unrealizable at finite N: free_rank(K0) = nullity(I-A) + nullity(I-B) "
                "= free_rank(K1) for square matrices, so the two targets must share "
                f"their free rank (got {_rank_text(target_k0.free_rank)} and {_rank_text(target_k1.free_rank)})"
            ),
        )
    _refuse_oversized(target_k0.free_rank + len(target_k0.torsion) + len(target_k1.torsion))
    blocks: list[tuple[int, int]] = []
    blocks.extend([(2, 1)] * target_k0.free_rank)
    blocks.extend([(d + 1, 2) for d in target_k0.torsion])
    blocks.extend([(2, d + 1) for d in target_k1.torsion])
    if not blocks:
        blocks = [(2, 2)]
    n = len(blocks)
    a = IntMatrix([[blocks[i][0] if i == j else 0 for j in range(n)] for i in range(n)])
    b = IntMatrix([[blocks[i][1] if i == j else 0 for j in range(n)] for i in range(n)])
    report = analyze(Operand("katsura", a, b))
    if (report.evidence.k0, report.evidence.k1) != (target_k0, target_k1):
        raise InternalError("realized pair failed K-theory verification")
    if not report.evidence.routes_agree:
        raise InternalError("realized pair's limit route disagrees with its formula route")
    return RealizeResult(ok=True, a=a, b=b, report=report)


__all__ = [
    "HomologyTuple",
    "Operand",
    "HkEvidence",
    "InvariantReport",
    "ComparisonReport",
    "RealizeResult",
    "homology",
    "ktheory",
    "sft_homology",
    "limit_route_homology",
    "hk_check",
    "analyze",
    "compare",
    "realize",
    "VERDICT_DISTINGUISHED",
    "VERDICT_NOT_DISTINGUISHED",
    "VALIDITY_OK",
    "VALIDITY_FORMULA_ONLY",
]
