import random

import pytest

from conftest import random_pseudo_free_pair, rational_nullity
from kep import (
    FGAbelianGroup,
    InputValidationError,
    IntMatrix,
    analyze,
    compare,
    hk_check,
    homology,
    is_isomorphic,
    ktheory,
    limit_route_homology,
    realize,
    sft_homology,
)
from kep.invariants import (
    VALIDITY_FORMULA_ONLY,
    VALIDITY_OK,
    VERDICT_DISTINGUISHED,
    VERDICT_NOT_DISTINGUISHED,
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
        assert homology(A1, B1).degrees()[3].is_trivial

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
        assert (ev.homology.h0, ev.homology.h2) == (ZERO, Z)
        assert ev.k0_expected == Z and ev.k1_expected == Z

    def test_torsion_case(self):
        ev = hk_check(IntMatrix([[3]]), IntMatrix([[2]]))
        assert ev.ok
        assert ev.k0 == FGAbelianGroup(0, (2,))

    def test_random_pairs(self):
        rng = random.Random(51)
        for _ in range(60):
            a, b = random_pseudo_free_pair(rng)
            assert hk_check(a, b).ok


class TestRouteIndependence:
    def test_limit_route_matches_formulas(self):
        rng = random.Random(52)
        for _ in range(60):
            a, b = random_pseudo_free_pair(rng)
            assert homology(a, b).isomorphic_to(limit_route_homology(a, b))


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


class TestAnalyze:
    def test_report_fields(self):
        rep = analyze(Operand("katsura", A1, B1))
        assert rep.hk_ok and rep.oracle_ok
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
        assert [str(g) for g in rep.homology.degrees()] == ["Z", "Z", "0", "0"]
        assert (rep.k0, rep.k1) == (Z, Z)
        assert rep.det_ib == 1
        assert rep.validity == VALIDITY_OK

    def test_rank_constraint_on_reports(self):
        rng = random.Random(53)
        for _ in range(60):
            a, b = random_pseudo_free_pair(rng)
            rep = analyze(Operand("katsura", a, b))
            one = IntMatrix.identity(a.rows)
            nullity = rational_nullity(one - a) + rational_nullity(one - b)
            assert rep.k0.free_rank == nullity == rep.k1.free_rank


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
        assert (result.k0, result.k1) == (Z, Z)

    def test_torsion_k0(self):
        result = realize(*groups((0, [3]), (0, [])))
        assert result.a == IntMatrix([[4]])
        assert result.b == IntMatrix([[2]])

    def test_torsion_k1(self):
        result = realize(*groups((0, []), (0, [5])))
        assert result.a == IntMatrix([[2]])
        assert result.b == IntMatrix([[6]])
        assert (result.k0, result.k1) == (ZERO, FGAbelianGroup(0, (5,)))

    def test_empty_target(self):
        result = realize(ZERO, ZERO)
        assert result.ok
        assert result.a == IntMatrix([[2]])
        assert result.b == IntMatrix([[2]])
        assert (result.k0, result.k1) == (ZERO, ZERO)

    def test_rank_mismatch_rejected(self):
        result = realize(FGAbelianGroup(2, ()), FGAbelianGroup(1, ()))
        assert not result.ok
        assert "unrealizable at finite N" in result.reason
        assert "free rank" in result.reason

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
            achieved = ktheory(result.a, result.b)
            assert is_isomorphic(achieved[0], k0)
            assert is_isomorphic(achieved[1], k1)
            # the construction always satisfies the matching-support criterion
            rep = analyze(Operand("katsura", result.a, result.b))
            assert rep.validity == VALIDITY_OK
