import dataclasses
import random
import tracemalloc

import pytest

import kep.abgroup
import kep.dirlimit
import kep.intmat
import kep.invariants
from conftest import low_rank_pair, random_pseudo_free_pair, rational_nullity, seeded_pair
from kep import (
    FGAbelianGroup,
    InputValidationError,
    InternalError,
    IntMatrix,
    analyze,
    compare,
    det,
    hk_check,
    homology,
    ktheory,
    limit_route_homology,
    realize,
    sft_homology,
)
from kep.abgroup import direct_sum
from kep.intmat import one_minus
from kep.invariants import (
    REALIZE_MAX_BLOCKS,
    VALIDITY_FORMULA_ONLY,
    VALIDITY_OK,
    VERDICT_DISTINGUISHED,
    VERDICT_NOT_DISTINGUISHED,
    HkEvidence,
    HomologyTuple,
    Operand,
)

A1, B1 = IntMatrix([[2]]), IntMatrix([[1]])
A2 = IntMatrix([[2, 1], [1, 2]])
B2 = IntMatrix([[1, 1], [1, 1]])

Z = FGAbelianGroup(1, ())
ZERO = FGAbelianGroup.trivial()


def groups(*specs):
    return tuple(FGAbelianGroup.from_cyclic_orders(t, free_rank=r) for r, t in specs)


class TestHomology:
    def test_doubling_pair(self):
        h = homology(A1, B1)
        assert (h.h0, h.h1, h.h2) == (ZERO, Z, Z)

    def test_paper_style_2x2(self):
        h = homology(A2, B2)
        assert (h.h0, h.h1, h.h2) == (Z, Z, ZERO)

    def test_torsion_case(self):
        h = homology(IntMatrix([[3]]), IntMatrix([[2]]))
        assert (h.h0, h.h1, h.h2) == (FGAbelianGroup(0, (2,)), ZERO, ZERO)

    def test_degree_three_always_trivial(self):
        assert homology(A1, B1).degrees()[3] == ZERO

    def test_torsion_degree_two_raises(self):
        with pytest.raises(InternalError, match="degree-2 homology must be free"):
            HomologyTuple(ZERO, ZERO, FGAbelianGroup(0, (2,)))

    def test_derived_views_follow_replace(self):
        # The degree tuple and (H0 ⊕ H2, H1) are formed on construction, so
        # a replaced record forms its own.
        h = dataclasses.replace(homology(A1, B1), h0=FGAbelianGroup(0, (3,)))
        assert h.degrees() == (FGAbelianGroup(0, (3,)), Z, Z, ZERO)
        assert h.k_groups() == (FGAbelianGroup(1, (3,)), Z)

    def test_rejects_zero_row(self):
        with pytest.raises(InputValidationError):
            homology(IntMatrix([[0]]), IntMatrix([[0]]))


class TestKTheory:
    def test_doubling_pair(self):
        assert ktheory(A1, B1) == (Z, Z)

    def test_torsion_case(self):
        assert ktheory(IntMatrix([[3]]), IntMatrix([[2]])) == (FGAbelianGroup(0, (2,)), ZERO)

    def test_2x2(self):
        assert ktheory(A2, B2) == (Z, Z)


class TestHkCheck:
    def test_doubling_pair(self):
        ev = hk_check(A1, B1)
        assert ev.ok
        assert (ev.k0, ev.k1) == (Z, Z)
        assert (ev.limit.h0, ev.limit.h2) == (ZERO, Z)
        assert ev.limit.k_groups() == (Z, Z)

    def test_torsion_case(self):
        ev = hk_check(IntMatrix([[3]]), IntMatrix([[2]]))
        assert ev.ok
        assert ev.k0 == FGAbelianGroup(0, (2,))

    def test_k_free_ranks_must_agree(self):
        # K0 = Z ⊕ 0 and K1 = 0: no square pair has such homology.
        h = HomologyTuple(Z, ZERO, ZERO)
        with pytest.raises(InternalError, match="must share their free rank"):
            HkEvidence(h, h)

    def test_random_pairs(self):
        rng = random.Random(51)
        for _ in range(60):
            a, b = random_pseudo_free_pair(rng)
            assert hk_check(a, b).ok


def unit_row_sum_pair(seed: int) -> tuple[IntMatrix, IntMatrix]:
    """A seeded pair (`random_pseudo_free_pair`, n <= 6) whose B has its
    diagonal moved so that every row sums to 1: B fixes the all-ones
    vector, so I - B is singular."""
    a, b = random_pseudo_free_pair(random.Random(seed), max_n=6)
    rows = b.to_lists()
    for i, row in enumerate(rows):
        row[i] += 1 - sum(row)
    return a, IntMatrix(rows)


# Pairs with a singular I - A or I - B: B = I makes Bᵗ - I = 0, and
# `low_rank_pair` gives I - A a kernel of rank about n/2.
SINGULAR_PAIRS = [
    pytest.param(A2, IntMatrix.identity(2), id="identity-b"),
    *(pytest.param(*low_rank_pair(n), id=f"low-rank-{n}") for n in (4, 6, 8)),
    *(pytest.param(*unit_row_sum_pair(seed), id=f"unit-row-sum-b-{seed}") for seed in range(3)),
]


class TestRouteIndependence:
    # A, B, I - A and I - B all nonsingular, and coker(Aᵗ - I) = Z/2 and
    # coker(Bᵗ - I) = Z/10 cyclic: neither route may then call the other's
    # determinant or cokernel code.
    A = IntMatrix([[2, 1, 1], [1, 3, 1], [1, 1, 4]])
    B = IntMatrix([[1, 2, -1], [2, -1, 1], [1, 1, 3]])
    EXPECTED = groups((0, (2,)), (0, (10,)), (0, ()))

    def test_limit_route_matches_formulas(self):
        rng = random.Random(52)
        for _ in range(60):
            a, b = random_pseudo_free_pair(rng)
            assert homology(a, b) == limit_route_homology(a, b)

    @pytest.mark.parametrize(("n", "bits"), [(12, 0), (6, 512)], ids=["dense-12", "wide-6x512"])
    def test_seeded_pairs_match_det_and_limit_route(self, n, bits):
        # The formula route's determinants are `det`'s, and its groups the
        # limit route's, on a dense pair and on one with 512-bit entries.
        a, b = seeded_pair(n, bits)
        h = homology(a, b)
        assert h.dets == (det(one_minus(a)), det(one_minus(b)))
        assert h == limit_route_homology(a, b)

    @staticmethod
    def forbid(monkeypatch, name, modules=(kep.intmat, kep.abgroup, kep.dirlimit, kep.invariants)):
        def forbidden(*args):
            raise AssertionError(f"{name} called")

        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)

    def test_formula_route_runs_without_smith(self, monkeypatch):
        # Nor the limit route's adjugate.
        for name in ("_smith", "det_adjugate"):
            self.forbid(monkeypatch, name)
        h = homology(self.A, self.B)
        assert (h.h0, h.h1, h.h2) == self.EXPECTED
        assert h.dets == (-2, 10)

    def test_limit_route_runs_without_the_formula_diagonal(self, monkeypatch):
        # Nor `det`, nor `_smith`: both limit cokernels are cyclic, so the
        # adjugate alone certifies them.
        for name in ("_smith", "det_smith_diagonal", "_hermite_mod", "_bareiss", "det"):
            self.forbid(monkeypatch, name)
        h = limit_route_homology(self.A, self.B)
        assert (h.h0, h.h1, h.h2) == self.EXPECTED

    @pytest.mark.parametrize(("a", "b"), SINGULAR_PAIRS)
    def test_singular_limit_route_takes_no_formula_elimination(self, monkeypatch, a, b):
        # The kernel of 1 - shift is the free part of the route's own
        # cokernel, so a singular 1 - T runs `det_adjugate` and `_smith`,
        # and no Bareiss pass, determinant, rank or elimination modulo g.
        expected = homology(a, b)
        assert 0 in expected.dets
        for name in ("det", "_bareiss", "rank", "kernel_group", "det_smith_diagonal", "_hermite_mod"):
            self.forbid(monkeypatch, name)
        assert limit_route_homology(a, b) == expected

    @pytest.mark.parametrize(("a", "b"), SINGULAR_PAIRS)
    def test_singular_formula_route_takes_no_adjugate(self, monkeypatch, a, b):
        expected = limit_route_homology(a, b)
        self.forbid(monkeypatch, "det_adjugate")
        assert homology(a, b) == expected


class TestSftHomology:
    def test_2x2(self):
        h = sft_homology(A2)
        assert (h.h0, h.h1, h.h2) == (Z, Z, ZERO)

    def test_doubling(self):
        h = sft_homology(A1)
        assert (h.h0, h.h1, h.h2) == (ZERO, ZERO, ZERO)

    def test_identity(self):
        n = 3
        h = sft_homology(IntMatrix.identity(n))
        assert (h.h0, h.h1, h.h2) == (FGAbelianGroup(n, ()), FGAbelianGroup(n, ()), ZERO)


class TestOperand:
    """Every operand holds a valid pair: construction runs the one check."""

    @pytest.mark.parametrize(
        "mode, a, b, assumption",
        [
            ("katsura", [[1, 0], [-1, 1]], [[1, 0], [1, 1]], "negative entry"),
            ("katsura", [[0, 0], [1, 1]], [[0, 0], [1, 1]], "zero row"),
            ("sft", [[1, -1], [1, 1]], None, "negative entry"),
            ("sft", [[1, 1], [0, 0]], None, "zero row"),
            ("katsura", [[1, 1]], [[1, 1]], "shape mismatch"),
            ("katsura", [[2, 1], [1, 2]], [[1]], "shape mismatch"),
        ],
        ids=["negative", "zero-row", "sft-negative", "sft-zero-row", "non-square", "b-shape"],
    )
    def test_invalid_pair_raises(self, mode, a, b, assumption):
        with pytest.raises(InputValidationError) as info:
            Operand(mode, IntMatrix(a), None if b is None else IntMatrix(b))
        assert info.value.assumption == assumption

    def test_a_rows_checked_before_b_shape(self):
        with pytest.raises(InputValidationError) as info:
            Operand("katsura", IntMatrix([[0]]), IntMatrix([[1, 1]]))
        assert info.value.assumption == "zero row"


class TestAnalyze:
    def test_report_fields(self):
        rep = analyze(Operand("katsura", A1, B1))
        assert rep.evidence.ok and rep.evidence.routes_agree
        assert rep.det_ia == -1 and rep.det_ib == 0
        assert rep.validity == VALIDITY_OK

    def test_formula_only_flag(self):
        # B vanishing on part of the support: formulas still computed, but
        # the report says the theorem hypothesis is unmet.
        a = IntMatrix([[2, 1], [1, 2]])
        b = IntMatrix([[1, 0], [1, 1]])
        rep = analyze(Operand("katsura", a, b))
        assert rep.validity == VALIDITY_FORMULA_ONLY
        assert rep.properties.pseudo_free is False

    def test_sft_mode(self):
        rep = analyze(Operand("sft", A2))
        assert [str(g) for g in rep.evidence.formula.degrees()] == ["Z", "Z", "0", "0"]
        assert (rep.evidence.k0, rep.evidence.k1) == (Z, Z)
        assert rep.det_ib == 1
        assert rep.validity == VALIDITY_OK

    def test_rank_constraint_on_reports(self):
        rng = random.Random(53)
        for _ in range(60):
            a, b = random_pseudo_free_pair(rng)
            rep = analyze(Operand("katsura", a, b))
            one = IntMatrix.identity(a.rows)
            nullity = rational_nullity(one - a) + rational_nullity(one - b)
            assert rep.evidence.k0.free_rank == nullity == rep.evidence.k1.free_rank


class TestCompare:
    def test_headline_example(self):
        rep = compare(Operand("katsura", A1, B1), Operand("sft", A2))
        assert rep.k_theory_equal
        assert rep.homology_isomorphic == (False, True, False, True)
        assert rep.distinguished
        assert rep.verdict == VERDICT_DISTINGUISHED

    def test_self_compare(self):
        rep = compare(Operand("katsura", A1, B1), Operand("katsura", A1, B1))
        assert not rep.distinguished
        assert rep.verdict == VERDICT_NOT_DISTINGUISHED
        assert rep.homology_isomorphic == (True, True, True, True)

    def test_degree_one_difference(self):
        p1 = Operand("katsura", IntMatrix([[3]]), IntMatrix([[2]]))
        p2 = Operand("katsura", IntMatrix([[3]]), IntMatrix([[4]]))
        rep = compare(p1, p2)
        assert rep.homology_isomorphic == (True, False, True, True)
        assert rep.distinguished

    def test_symmetry(self):
        rng = random.Random(54)
        for _ in range(25):
            a1, b1 = random_pseudo_free_pair(rng, max_n=3)
            a2, b2 = random_pseudo_free_pair(rng, max_n=3)
            fwd = compare(Operand("katsura", a1, b1), Operand("katsura", a2, b2))
            bwd = compare(Operand("katsura", a2, b2), Operand("katsura", a1, b1))
            assert fwd.distinguished == bwd.distinguished
            assert fwd.homology_isomorphic == bwd.homology_isomorphic
            assert fwd.k_theory_equal == bwd.k_theory_equal
            assert fwd.ker_ia_isomorphic == bwd.ker_ia_isomorphic
            assert fwd.ker_ib_isomorphic == bwd.ker_ib_isomorphic

    def test_kernel_corollary_values(self):
        rep = compare(Operand("katsura", A1, B1), Operand("sft", A2))
        # ker(I-A): 0 on the left, Z on the right (nullity of [[-1,-1],[-1,-1]]
        # is 1); ker(I-B): Z on the left, 0 on the right.  Either mismatch
        # alone already rules out Kakutani equivalence.
        assert not rep.ker_ia_isomorphic
        assert not rep.ker_ib_isomorphic


class TestRealize:
    def test_free_rank_one(self):
        (k0, k1) = groups((1, []), (1, []))
        result = realize(k0, k1)
        assert result.ok
        assert result.a == IntMatrix([[2]])
        assert result.b == IntMatrix([[1]])
        assert (result.report.evidence.k0, result.report.evidence.k1) == (Z, Z)

    def test_torsion_k0(self):
        result = realize(*groups((0, [3]), (0, [])))
        assert result.a == IntMatrix([[4]])
        assert result.b == IntMatrix([[2]])

    def test_torsion_k1(self):
        result = realize(*groups((0, []), (0, [5])))
        assert result.a == IntMatrix([[2]])
        assert result.b == IntMatrix([[6]])
        assert (result.report.evidence.k0, result.report.evidence.k1) == (ZERO, FGAbelianGroup(0, (5,)))

    def test_empty_target(self):
        result = realize(ZERO, ZERO)
        assert result.ok
        assert result.a == IntMatrix([[2]])
        assert result.b == IntMatrix([[2]])
        assert (result.report.evidence.k0, result.report.evidence.k1) == (ZERO, ZERO)

    @pytest.mark.parametrize(
        ("route", "message"),
        [("homology", "K-theory verification"), ("limit_route_homology", "disagrees")],
    )
    def test_a_route_that_misses_raises(self, monkeypatch, route, message):
        # A formula route that misses the target, or a limit route that
        # disagrees with it, is a defect in kep: the pair is not returned.
        real = getattr(kep.invariants, route)

        def skewed(a, b):
            h = real(a, b)
            return dataclasses.replace(h, h0=direct_sum(h.h0, FGAbelianGroup(0, (2,))))

        monkeypatch.setattr(kep.invariants, route, skewed)
        with pytest.raises(InternalError, match=message):
            realize(*groups((1, [3]), (1, [])))

    def test_rank_mismatch_rejected(self):
        result = realize(FGAbelianGroup(2, ()), FGAbelianGroup(1, ()))
        assert not result.ok
        assert "unrealizable at finite N" in result.reason
        assert "free rank" in result.reason
        assert "(got 2 and 1)" in result.reason

    def test_rank_mismatch_past_the_digit_limit_rejected(self):
        # A rank of 5000 digits cannot be written in decimal; the reason
        # names its bit length instead and stays short.
        result = realize(FGAbelianGroup(10**5000, ()), FGAbelianGroup(0, ()))
        assert not result.ok
        assert "unrealizable at finite N" in result.reason
        assert f"(got a {(10**5000).bit_length()}-bit rank and 0)" in result.reason
        assert len(result.reason) < 300

    @pytest.mark.parametrize(
        ("rank", "k0_factors", "k1_factors"),
        [(REALIZE_MAX_BLOCKS + 1, 0, 0), (10**12, 0, 0), (1, REALIZE_MAX_BLOCKS // 2, REALIZE_MAX_BLOCKS // 2)],
        ids=["rank-over-bound", "rank-1e12", "factors-over-bound"],
    )
    def test_oversized_target_refused_before_building(self, monkeypatch, rank, k0_factors, k1_factors):
        # A rank of 10^12 would ask for a list of 10^12 blocks; neither
        # target's block list nor its pair is built, and no analysis runs.
        monkeypatch.setattr(kep.invariants, "analyze", None)
        k0, k1 = FGAbelianGroup(rank, (3,) * k0_factors), FGAbelianGroup(rank, (5,) * k1_factors)
        tracemalloc.start()
        try:
            with pytest.raises(InputValidationError) as info:
                realize(k0, k1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.assumption == "realize block bound"
        assert str(REALIZE_MAX_BLOCKS) in str(info.value)
        assert peak < 64 * 1024

    def test_target_at_the_bound_is_realized(self):
        k = FGAbelianGroup(REALIZE_MAX_BLOCKS, ())
        result = realize(k, k)
        assert result.ok and result.a.rows == REALIZE_MAX_BLOCKS
        assert (result.report.evidence.k0, result.report.evidence.k1) == (k, k)

    def test_round_trip_random(self):
        rng = random.Random(55)
        for _ in range(40):
            r = rng.randint(0, 3)
            t0 = [rng.randint(2, 12) for _ in range(rng.randint(0, 3))]
            t1 = [rng.randint(2, 12) for _ in range(rng.randint(0, 3))]
            k0 = FGAbelianGroup.from_cyclic_orders(t0, free_rank=r)
            k1 = FGAbelianGroup.from_cyclic_orders(t1, free_rank=r)
            result = realize(k0, k1)
            assert result.ok
            ev = result.report.evidence
            assert (ev.k0, ev.k1) == (k0, k1)
            assert ev.routes_agree
            # the construction always satisfies the matching-support criterion
            assert result.report.validity == VALIDITY_OK
