import random

import pytest

from conftest import in_lattice, random_matrix
from kep import (
    FGAbelianGroup,
    IntMatrix,
    LimitElement,
    StationaryLimit,
    coker_one_minus_shift,
    eventual_kernel,
    from_cokernel,
    is_isomorphic,
    ker_one_minus_shift,
    kernel_group,
    limit_equal,
)
from kep.dirlimit import _fixed_sublattice, _power


def limit_of(entries) -> StationaryLimit:
    return StationaryLimit(IntMatrix(entries))


class TestLimitEqual:
    def test_defining_relation(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(1, 4)
            lim = StationaryLimit(random_matrix(rng, n, n, -4, 4))
            x = tuple(rng.randint(-5, 5) for _ in range(n))
            i = rng.randint(0, 3)
            pushed = LimitElement(i + 1, lim.matrix.apply(x))
            assert limit_equal(lim, LimitElement(i, x), pushed)

    def test_doubling_map_distinguishes_stages(self):
        lim = limit_of([[2]])
        assert not limit_equal(lim, LimitElement(0, (1,)), LimitElement(1, (1,)))

    def test_nilpotent_collapse(self):
        lim = limit_of([[0]])
        assert limit_equal(lim, LimitElement(0, (5,)), LimitElement(0, (0,)))

    def test_dimension_mismatch(self):
        lim = limit_of([[2]])
        with pytest.raises(ValueError):
            limit_equal(lim, LimitElement(0, (1, 2)), LimitElement(0, (1,)))


class TestEventualKernel:
    def test_injective(self):
        assert eventual_kernel(limit_of([[2]])) == []
        assert eventual_kernel(limit_of([[1]])) == []

    def test_nilpotent_full(self):
        basis = eventual_kernel(limit_of([[0, 1], [0, 0]]))
        assert len(basis) == 2
        assert in_lattice(basis, (1, 0)) and in_lattice(basis, (0, 1))

    def test_stabilized(self):
        rng = random.Random(22)
        for _ in range(150):
            n = rng.randint(1, 5)
            t = random_matrix(rng, n, n, -3, 3)
            lim = StationaryLimit(t)
            ek = eventual_kernel(lim)
            # ker(T^n) = ker(T^(n+1)): same sublattice both ways around.
            from kep import kernel_basis

            deeper = kernel_basis(_power(t, n + 1))
            assert all(in_lattice(deeper, v) for v in ek)
            assert all(in_lattice(ek, v) for v in deeper)

    def test_saturated(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(1, 4)
            lim = StationaryLimit(random_matrix(rng, n, n, -3, 3))
            ek = eventual_kernel(lim)
            if not ek:
                continue
            coeffs = [rng.randint(-3, 3) for _ in ek]
            x = tuple(sum(c * v[i] for c, v in zip(coeffs, ek)) for i in range(n))
            k = rng.randint(2, 5)
            kx = tuple(k * xi for xi in x)
            assert in_lattice(ek, kx)
            assert in_lattice(ek, x)


class TestFixedSublattice:
    def test_closure_properties(self):
        rng = random.Random(24)
        for _ in range(150):
            n = rng.randint(1, 4)
            t = random_matrix(rng, n, n, -3, 3)
            lim = StationaryLimit(t)
            ek = eventual_kernel(lim)
            fixed = _fixed_sublattice(lim, ek)
            t_minus_i = t - IntMatrix.identity(n)
            for v in fixed:
                image = t_minus_i.apply(v)
                if any(image):
                    assert in_lattice(ek, image)
                # T maps the sublattice into itself.
                tv = t.apply(v)
                if any(tv):
                    assert in_lattice(fixed, tv)
            for v in ek:
                assert in_lattice(fixed, v)


class TestShiftKernelCokernel:
    def test_doubling(self):
        lim = limit_of([[2]])
        assert ker_one_minus_shift(lim).is_trivial
        assert coker_one_minus_shift(lim).is_trivial

    def test_unit(self):
        lim = limit_of([[1]])
        assert ker_one_minus_shift(lim) == FGAbelianGroup(1, ())
        assert coker_one_minus_shift(lim) == FGAbelianGroup(1, ())

    def test_identity_2x2(self):
        lim = StationaryLimit(IntMatrix.identity(2))
        assert ker_one_minus_shift(lim) == FGAbelianGroup(2, ())

    def test_coker_all_minus_ones(self):
        t = IntMatrix([[-1, -1], [-1, -1]]) + IntMatrix.identity(2)
        assert coker_one_minus_shift(StationaryLimit(t)) == FGAbelianGroup(1, ())

    def test_oracle_agreement(self):
        # The module's reason to exist: the lattice-model groups agree with
        # the closed kernel/cokernel formulas on random connecting maps.
        rng = random.Random(25)
        for _ in range(200):
            n = rng.randint(1, 5)
            t = random_matrix(rng, n, n, -4, 6)
            lim = StationaryLimit(t)
            one = IntMatrix.identity(n)
            assert is_isomorphic(ker_one_minus_shift(lim), kernel_group(one - t))
            assert is_isomorphic(coker_one_minus_shift(lim), from_cokernel(one - t))

    def test_transpose_immaterial(self):
        rng = random.Random(26)
        for _ in range(100):
            n = rng.randint(1, 5)
            t = random_matrix(rng, n, n, -4, 6)
            one = IntMatrix.identity(n)
            assert is_isomorphic(kernel_group(one - t), kernel_group(one - t.transpose()))
            assert is_isomorphic(from_cokernel(one - t), from_cokernel(one - t.transpose()))
