import random

import pytest

from conftest import in_lattice, random_matrix, rational_nullity, solve_rational
from kep import (
    FGAbelianGroup,
    IntMatrix,
    InternalError,
    StationaryLimit,
    coker_one_minus_shift,
    eventual_kernel,
    from_cokernel,
    ker_one_minus_shift,
)
from kep.abgroup import kernel_group
from kep.dirlimit import _fixed_sublattice, _lattice_basis, _solve_exact


def limit_of(entries) -> StationaryLimit:
    return StationaryLimit(IntMatrix(entries))


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
            ek = eventual_kernel(StationaryLimit(t))
            t_n = IntMatrix.identity(n)
            for _ in range(n):
                t_n = t_n @ t
            # T^n kills the lattice, which has the rank of ker(T^n); being
            # saturated (test_saturated), it is all of ker(T^n).
            assert all(not any(t_n.apply(v)) for v in ek)
            assert len(ek) == rational_nullity(t_n)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_nilpotent_jordan_block(self, k):
        # T e_1 = 0 and T e_j = e_(j-1): ker T^j grows by one coordinate
        # per step, so the chain runs k steps before reaching Z^k.
        jordan = [[int(j == i + 1) for j in range(k)] for i in range(k)]
        units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        assert eventual_kernel(limit_of(jordan)) == units

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_jordan_block_beside_injective_part(self, k):
        # block-diag(J_k(0), (2)): the chain climbs k steps and then stops
        # at rank k, short of the whole lattice.
        t = [[int(j == i + 1) for j in range(k)] + [0] for i in range(k)]
        t.append([0] * k + [2])
        units = [tuple(int(i == j) for i in range(k + 1)) for j in range(k)]
        assert eventual_kernel(limit_of(t)) == units

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


class TestSolveExact:
    def test_recovers_coefficients(self):
        # Hermite bases of random lattices, some of lower rank than n, so
        # that rows off the pivots are checked by the final product too.
        rng = random.Random(27)
        for _ in range(200):
            n = rng.randint(1, 5)
            vectors = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(rng.randint(1, n + 1))]
            basis = _lattice_basis(vectors, n)
            if not basis:
                continue
            m = IntMatrix.from_columns(basis)
            coeffs = [tuple(rng.randint(-9, 9) for _ in basis) for _ in range(3)]
            targets = [m.apply(c) for c in coeffs]
            assert _solve_exact(m, targets) == coeffs
            for c, target in zip(coeffs, targets):
                assert solve_rational(basis, target) == list(c)

    def test_in_span_but_not_in_lattice(self):
        with pytest.raises(InternalError):
            _solve_exact(IntMatrix.from_columns([(2, 0)]), [(1, 0)])

    def test_outside_span(self):
        with pytest.raises(InternalError):
            _solve_exact(IntMatrix.from_columns([(2, 0)]), [(0, 1)])


class TestShiftKernelCokernel:
    def test_doubling(self):
        lim = limit_of([[2]])
        assert ker_one_minus_shift(lim) == FGAbelianGroup.trivial()
        assert coker_one_minus_shift(lim) == FGAbelianGroup.trivial()

    def test_unit(self):
        lim = limit_of([[1]])
        assert ker_one_minus_shift(lim) == FGAbelianGroup(1, ())
        assert coker_one_minus_shift(lim) == FGAbelianGroup(1, ())

    def test_identity_2x2(self):
        lim = StationaryLimit(IntMatrix.identity(2))
        assert ker_one_minus_shift(lim) == FGAbelianGroup(2, ())

    def test_coker_all_minus_ones(self):
        t = IntMatrix([[0, -1], [-1, 0]])  # [[-1, -1], [-1, -1]] + I
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
            assert ker_one_minus_shift(lim) == kernel_group(one - t)
            assert coker_one_minus_shift(lim) == from_cokernel(one - t)

    def test_transpose_immaterial(self):
        rng = random.Random(26)
        for _ in range(100):
            n = rng.randint(1, 5)
            t = random_matrix(rng, n, n, -4, 6)
            one = IntMatrix.identity(n)
            assert kernel_group(one - t) == kernel_group(one - t.transpose())
            assert from_cokernel(one - t) == from_cokernel(one - t.transpose())
