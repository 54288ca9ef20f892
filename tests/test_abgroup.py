import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import element_order_multiset, random_matrix, rational_nullity
from kep import (
    FGAbelianGroup,
    IntMatrix,
    det,
    direct_sum,
    from_cokernel,
)
from kep.abgroup import kernel_group

torsion_sources = st.lists(st.integers(min_value=0, max_value=24), max_size=5)


def group_from_orders(orders):
    return FGAbelianGroup.from_cyclic_orders(orders)


class TestCanonicalForm:
    def test_rejects_non_chain(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 2))

    def test_rejects_unit_factor(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1, 2))

    def test_rendering(self):
        assert str(FGAbelianGroup(0, ())) == "0"
        assert str(FGAbelianGroup(1, ())) == "Z"
        assert str(FGAbelianGroup(3, ())) == "Z^3"
        assert str(FGAbelianGroup(0, (2, 4))) == "Z/2 ⊕ Z/4"
        assert str(FGAbelianGroup(2, (3,))) == "Z^2 ⊕ Z/3"


class TestFromCokernel:
    def test_zero_1x1(self):
        assert from_cokernel(IntMatrix([[0]])) == FGAbelianGroup(1, ())

    def test_all_minus_ones(self):
        assert from_cokernel(IntMatrix([[-1, -1], [-1, -1]])) == FGAbelianGroup(1, ())

    def test_diagonal(self):
        assert from_cokernel(IntMatrix([[2, 0], [0, 4]])) == FGAbelianGroup(0, (2, 4))

    def test_free_rank_is_nullity(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, n, -6, 6)
            assert from_cokernel(m).free_rank == rational_nullity(m)

    def test_torsion_order_is_abs_det(self):
        rng = random.Random(12)
        seen_nonzero = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, -5, 5)
            d = det(m)
            if d != 0:
                seen_nonzero += 1
                assert math.prod(from_cokernel(m).torsion) == abs(d)
        assert seen_nonzero > 100

    def test_transpose_invariance(self):
        # Equal Smith diagonals: identical groups for square M, and always
        # identical torsion.
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, -6, 6)
            assert from_cokernel(m) == from_cokernel(m.transpose())
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -6, 6)
            assert from_cokernel(m).torsion == from_cokernel(m.transpose()).torsion


class TestKernelGroup:
    def test_zero_1x1(self):
        assert kernel_group(IntMatrix([[0]])) == FGAbelianGroup(1, ())

    def test_identity(self):
        assert kernel_group(IntMatrix.identity(4)) == FGAbelianGroup.trivial()

    def test_all_minus_ones(self):
        assert kernel_group(IntMatrix([[-1, -1], [-1, -1]])) == FGAbelianGroup(1, ())

    def test_always_free(self):
        rng = random.Random(14)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -6, 6)
            g = kernel_group(m)
            assert g.is_free
            assert g.free_rank == rational_nullity(m)


class TestDirectSum:
    def test_crt_merge(self):
        total = direct_sum(FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (3,)))
        assert total == FGAbelianGroup(0, (6,))
        # Oracle: the element-order multisets of Z/2 x Z/3 and Z/6 agree.
        assert element_order_multiset((2, 3)) == element_order_multiset((6,))

    def test_identity_element(self):
        g = FGAbelianGroup(2, (2, 6))
        assert direct_sum(g, FGAbelianGroup.trivial()) == g

    def test_no_overmerge(self):
        total = direct_sum(FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (4,)))
        assert total.torsion == (2, 4)
        assert element_order_multiset((2, 4)) != element_order_multiset((8,))

    @given(torsion_sources, torsion_sources)
    @settings(max_examples=100, deadline=None)
    def test_commutative(self, xs, ys):
        g, h = group_from_orders(xs), group_from_orders(ys)
        assert direct_sum(g, h) == direct_sum(h, g)

    @given(torsion_sources, torsion_sources, torsion_sources)
    @settings(max_examples=100, deadline=None)
    def test_associative(self, xs, ys, zs):
        g, h, k = group_from_orders(xs), group_from_orders(ys), group_from_orders(zs)
        assert direct_sum(direct_sum(g, h), k) == direct_sum(g, direct_sum(h, k))

    @given(torsion_sources, torsion_sources)
    @settings(max_examples=60, deadline=None)
    def test_order_multiplicative(self, xs, ys):
        g, h = group_from_orders(xs), group_from_orders(ys)
        total = direct_sum(g, h)
        assert math.prod(total.torsion) == math.prod(g.torsion) * math.prod(h.torsion)
        assert total.free_rank == g.free_rank + h.free_rank


class TestFromCyclicOrders:
    # Lists on which exchanging only incomparable pairs needs more than one
    # sweep over the pairs.
    @pytest.mark.parametrize(
        ("orders", "torsion"),
        [([12, 18, 8], (2, 12, 72)), ([10, 5, 25], (5, 5, 50)), ([16, 3, 3, 22], (6, 528))],
    )
    def test_multi_sweep_examples(self, orders, torsion):
        assert FGAbelianGroup.from_cyclic_orders(orders).torsion == torsion
        assert element_order_multiset(torsion) == element_order_multiset(tuple(orders))

    def test_seeded_random_against_element_orders(self):
        rng = random.Random(16)
        checked = 0
        while checked < 200:
            orders = [rng.randint(0, 30) for _ in range(rng.randint(1, 5))]
            finite = tuple(d for d in orders if d)
            if math.prod(finite) > 3000:
                continue
            g = FGAbelianGroup.from_cyclic_orders(orders)
            assert g.free_rank == orders.count(0)
            assert element_order_multiset(g.torsion) == element_order_multiset(finite)
            checked += 1


class TestIsIsomorphic:
    def test_free(self):
        assert FGAbelianGroup(1, ()) == FGAbelianGroup(1, ())

    def test_z8_vs_z2_z4(self):
        assert group_from_orders([2, 4]) != group_from_orders([8])

    def test_crt(self):
        assert group_from_orders([6]) == group_from_orders([2, 3])
