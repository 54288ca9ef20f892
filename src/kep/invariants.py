"""Homology, K-theory, two-route verification, comparison and realization.

For a valid pair (A, B) the groupoid invariants are
    H0 = coker(I - A),   H1 = ker(I - A) ⊕ coker(I - B),
    H2 = ker(I - B),     H_i = 0 for i >= 3,
    K0 = coker(I - A) ⊕ ker(I - B),   K1 = coker(I - B) ⊕ ker(I - A).
These formulas are what :func:`homology` and :func:`ktheory` compute through
Smith normal forms.  :func:`hk_check` recomputes the homology side through
the stationary-limit model of :mod:`kep.dirlimit` - a computation that never
touches the closed formulas - and confirms K0 = H0 ⊕ H2 and K1 = H1.

All formulas assume A nonnegative with no zero rows.  They are evaluated
for any such pair, but when the matching-support criterion for
pseudo-freeness fails the report is flagged as formula-only, because the
identification of these groups with the groupoid's invariants is only
guaranteed under that hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroup import FGAbelianGroup, direct_sum, from_cokernel, is_isomorphic
from .dirlimit import StationaryLimit, coker_one_minus_shift, ker_one_minus_shift
from .errors import InputValidationError, InternalError
from .groupoid import PropertyReport, classify
from .intmat import IntMatrix, det
from .selfsim import _validate_pair, supports_match

VALIDITY_OK = "ok"
VALIDITY_FORMULA_ONLY = "formula-only (theorem hypothesis unmet)"
VERDICT_DISTINGUISHED = "distinguished (not Kakutani equivalent)"
VERDICT_NOT_DISTINGUISHED = "not distinguished by these invariants"


@dataclass(frozen=True)
class HomologyTuple:
    """Homology in degrees 0..2; every higher degree vanishes."""

    h0: FGAbelianGroup
    h1: FGAbelianGroup
    h2: FGAbelianGroup

    def __post_init__(self):
        if not self.h2.is_free:
            raise InternalError("degree-2 homology must be free")

    def degrees(self) -> tuple[FGAbelianGroup, ...]:
        """Degrees 0..3 explicitly; degree 3 is always trivial."""
        return (self.h0, self.h1, self.h2, FGAbelianGroup.trivial())

    def isomorphic_to(self, other: "HomologyTuple") -> bool:
        return all(is_isomorphic(g, h) for g, h in zip(self.degrees(), other.degrees()))

    def k_groups(self) -> tuple[FGAbelianGroup, FGAbelianGroup]:
        """(H0 ⊕ H2, H1): the groups the (HK) identity equates with (K0, K1)."""
        return direct_sum(self.h0, self.h2), self.h1


@dataclass(frozen=True)
class Operand:
    """A comparison operand: a full pair, or a shift-of-finite-type groupoid
    given by A alone (the B = 0 comparison object)."""

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

    def b_or_zero(self) -> IntMatrix:
        return self.b if self.b is not None else IntMatrix.zeros(self.a.rows, self.a.cols)


def _one_minus(m: IntMatrix) -> IntMatrix:
    return IntMatrix.identity(m.rows) - m


def homology(a: IntMatrix, b: IntMatrix) -> HomologyTuple:
    """Homology of the groupoid of (A, B) by the closed matrix formulas.

    One Smith form per matrix: for square M the kernel lattice is free of
    rank nullity(M), which is the free rank of coker(M).
    """
    _validate_pair(a, b)
    coker_ia = from_cokernel(_one_minus(a))
    coker_ib = from_cokernel(_one_minus(b))
    return HomologyTuple(
        h0=coker_ia,
        h1=direct_sum(FGAbelianGroup.free(coker_ia.free_rank), coker_ib),
        h2=FGAbelianGroup.free(coker_ib.free_rank),
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
    the pair enters this route.
    """
    _validate_pair(a, b)
    lim_a = StationaryLimit.from_row_action(a)
    lim_b = StationaryLimit.from_row_action(b)
    return HomologyTuple(
        h0=coker_one_minus_shift(lim_a),
        h1=direct_sum(ker_one_minus_shift(lim_a), coker_one_minus_shift(lim_b)),
        h2=ker_one_minus_shift(lim_b),
    )


@dataclass(frozen=True)
class HkEvidence:
    """Outcome of the two-route identity check K_i = sum of H_(2n+i)."""

    k0: FGAbelianGroup
    k1: FGAbelianGroup
    homology: HomologyTuple  # the limit-route tuple

    @property
    def k0_expected(self) -> FGAbelianGroup:
        return self.homology.k_groups()[0]

    @property
    def k1_expected(self) -> FGAbelianGroup:
        return self.homology.k_groups()[1]

    @property
    def ok(self) -> bool:
        return is_isomorphic(self.k0, self.k0_expected) and is_isomorphic(self.k1, self.k1_expected)


def hk_check(a: IntMatrix, b: IntMatrix) -> HkEvidence:
    """Verify K0 = H0 ⊕ H2 and K1 = H1 with the two sides computed by
    genuinely different routes: K through Smith forms of I - A and I - B,
    H through the stationary-limit model."""
    k0, k1 = ktheory(a, b)
    return HkEvidence(k0, k1, limit_route_homology(a, b))


@dataclass(frozen=True)
class InvariantReport:
    """Everything the analyzer knows about one pair."""

    mode: str
    properties: PropertyReport
    homology: HomologyTuple
    k0: FGAbelianGroup
    k1: FGAbelianGroup
    det_ia: int
    det_ib: int
    hk_ok: bool
    oracle_ok: bool
    limit_homology: HomologyTuple
    validity: str

    def __post_init__(self):
        free0 = self.k0.free_rank
        free1 = self.k1.free_rank
        if free0 != free1:
            raise InternalError("K0 and K1 must share their free rank for square pairs")


def analyze(operand: Operand) -> InvariantReport:
    """Full invariant report for a pair or an SFT comparison object.

    The formula route runs once: K is read off its homology.  The limit
    route runs once and is checked against both.
    """
    a = operand.a
    b = operand.b_or_zero()
    _validate_pair(a, b)
    properties = classify(a, b)
    h = homology(a, b)
    if operand.mode == "sft" or supports_match(a, b):
        validity = VALIDITY_OK
    else:
        validity = VALIDITY_FORMULA_ONLY
    k0, k1 = h.k_groups()
    evidence = HkEvidence(k0, k1, limit_route_homology(a, b))
    return InvariantReport(
        mode=operand.mode,
        properties=properties,
        homology=h,
        k0=k0,
        k1=k1,
        det_ia=det(_one_minus(a)),
        det_ib=det(_one_minus(b)),
        hk_ok=evidence.ok,
        oracle_ok=h.isomorphic_to(evidence.homology),
        limit_homology=evidence.homology,
        validity=validity,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Degreewise comparison of two operands' invariants.

    ``distinguished`` is True when some homology degree differs, which
    rules out Kakutani equivalence; the converse is never claimed.
    """

    left: InvariantReport
    right: InvariantReport
    homology_isomorphic: tuple[bool, bool, bool, bool]
    k0_equal: bool
    k1_equal: bool
    ker_ia_isomorphic: bool
    ker_ib_isomorphic: bool
    distinguished: bool
    verdict: str

    @property
    def k_theory_equal(self) -> bool:
        return self.k0_equal and self.k1_equal


def compare(p1: Operand, p2: Operand) -> ComparisonReport:
    """Compare two operands degree by degree.

    Besides homology and K-theory the report carries the kernel groups
    ker(I - A) and ker(I - B), which are themselves invariants of Kakutani
    equivalence, and both determinants det(I - A), det(I - B).  Both
    kernels are read off the homology: ker(I - A) is free of the rank of
    H0's free part, and ker(I - B) is H2.
    """
    left = analyze(p1)
    right = analyze(p2)
    h_iso = tuple(
        is_isomorphic(g, h)
        for g, h in zip(left.homology.degrees(), right.homology.degrees())
    )
    distinguished = not all(h_iso)
    return ComparisonReport(
        left=left,
        right=right,
        homology_isomorphic=h_iso,  # type: ignore[arg-type]
        k0_equal=is_isomorphic(left.k0, right.k0),
        k1_equal=is_isomorphic(left.k1, right.k1),
        ker_ia_isomorphic=left.homology.h0.free_rank == right.homology.h0.free_rank,
        ker_ib_isomorphic=is_isomorphic(left.homology.h2, right.homology.h2),
        distinguished=distinguished,
        verdict=VERDICT_DISTINGUISHED if distinguished else VERDICT_NOT_DISTINGUISHED,
    )


@dataclass(frozen=True)
class RealizeResult:
    """Outcome of a realization request."""

    ok: bool
    a: IntMatrix | None = None
    b: IntMatrix | None = None
    k0: FGAbelianGroup | None = None
    k1: FGAbelianGroup | None = None
    reason: str | None = None


def realize(target_k0: FGAbelianGroup, target_k1: FGAbelianGroup) -> RealizeResult:
    """Construct a pair (A, B) whose K-theory is the given pair of groups.

    The construction is a diagonal of 1x1 blocks: ((d+1), (2)) contributes
    Z/d to K0, ((2), (d+1)) contributes Z/d to K1, ((2), (1)) contributes
    Z to both, and the empty target falls back to ((2), (2)).  The result
    always satisfies the matching-support criterion.

    For square integer matrices the free rank of coker(I - M) equals the
    nullity of I - M, so free_rank(K0) = nullity(I-A) + nullity(I-B)
    = free_rank(K1): targets with different free ranks are not realizable
    by finite matrices and are rejected.
    """
    if target_k0.free_rank != target_k1.free_rank:
        return RealizeResult(
            ok=False,
            reason=(
                "unrealizable at finite N: free_rank(K0) = nullity(I-A) + nullity(I-B) "
                "= free_rank(K1) for square matrices, so the two targets must share "
                f"their free rank (got {target_k0.free_rank} and {target_k1.free_rank})"
            ),
        )
    blocks: list[tuple[int, int]] = []
    blocks.extend([(2, 1)] * target_k0.free_rank)
    blocks.extend([(d + 1, 2) for d in target_k0.torsion])
    blocks.extend([(2, d + 1) for d in target_k1.torsion])
    if not blocks:
        blocks = [(2, 2)]
    n = len(blocks)
    a = IntMatrix([[blocks[i][0] if i == j else 0 for j in range(n)] for i in range(n)])
    b = IntMatrix([[blocks[i][1] if i == j else 0 for j in range(n)] for i in range(n)])
    k0, k1 = ktheory(a, b)
    if not (is_isomorphic(k0, target_k0) and is_isomorphic(k1, target_k1)):
        raise InternalError("realized pair failed K-theory verification")
    return RealizeResult(ok=True, a=a, b=b, k0=k0, k1=k1)


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
