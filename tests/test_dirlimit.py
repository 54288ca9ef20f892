import random
from collections import Counter

import pytest

import kep.dirlimit
import kep.intmat
from conftest import (
    determinantal_divisors,
    in_lattice,
    low_rank_pair,
    random_matrix,
    rational_nullity,
    rational_rank,
    solve_rational,
)
from kep import (
    FGAbelianGroup,
    IntMatrix,
    InternalError,
    StationaryLimit,
    from_cokernel,
    homology,
    limit_route_homology,
    one_minus_shift,
)
from kep.abgroup import kernel_group
from kep.dirlimit import (
    _fixed_sublattice,
    _lattice_basis,
    _solve_exact,
    coker_one_minus_shift,
    eventual_kernel,
    ker_one_minus_shift,
)


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


def _unimodular(rng: random.Random, n: int) -> tuple[IntMatrix, IntMatrix]:
    """A random unimodular U of size n and its inverse, as products of
    elementary column and row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # U <- U (I + c e_ij) adds c times column i to column j;
        # U^-1 <- (I - c e_ij) U^-1 subtracts c times row j from row i.
        for row in u:
            row[j] += c * row[i]
        inverse[i] = [x - c * y for x, y in zip(inverse[i], inverse[j])]
    u, inverse = IntMatrix(u), IntMatrix(inverse)
    assert u @ inverse == IntMatrix.identity(n)
    return u, inverse


def _connecting_map(rng: random.Random, n: int, case: int) -> IntMatrix:
    """A T of size n for one of five kernel cases of the limit: 0 a nonzero
    nilpotent T (n >= 2), 1 an injective T with 1 - T singular, 2 a random
    T, 3 a T of rank n - 1 (nilpotent when n = 1), 4 a T with 1 - T
    singular and a proper nonzero eventual kernel (n >= 2): U diag(1, J) U^-1
    with J a nilpotent Jordan block and U unimodular."""
    if case == 0:
        n = max(n, 2)
        strict = [[rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
        strict[0][1] = rng.choice((-2, -1, 1, 2))
        perm = rng.sample(range(n), n)
        return IntMatrix([[strict[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    if case == 1:
        # T = I + u v^t with v^t u != -1 is injective, and 1 - T has rank 1.
        while True:
            u = [rng.randint(-3, 3) for _ in range(n)]
            v = [rng.randint(-3, 3) for _ in range(n)]
            if sum(x * y for x, y in zip(u, v)) != -1:
                return IntMatrix([[int(i == j) + u[i] * v[j] for j in range(n)] for i in range(n)])
    if case == 4:
        n = max(n, 2)
        # 1 in the corner, then J: ones just above the diagonal of the rest.
        block = [[int(i == j == 0 or (i >= 1 and j == i + 1)) for j in range(n)] for i in range(n)]
        u, inverse = _unimodular(rng, n)
        return u @ IntMatrix(block) @ inverse
    t = random_matrix(rng, n, n, -4, 6).to_lists()
    if case == 3:
        t[-1] = [sum(row[j] for row in t[:-1]) for j in range(n)]
    return IntMatrix(t)


def _kernel_case(t: IntMatrix, nullity: int) -> str:
    """Which of the five kernel cases of the limit T falls in, read off the
    rational ranks of T and T^n and the `nullity` of 1 - T."""
    n = t.rows
    power = t
    for _ in range(n - 1):
        power = power @ t
    if rational_rank(power) == 0:
        return "nilpotent"
    if rational_rank(t) == n:
        return "injective, singular 1 - T" if nullity else "injective, nonsingular 1 - T"
    return "proper, singular 1 - T" if nullity else "proper, nonsingular 1 - T"


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
        # The module's reason to exist: the route's groups agree with ker
        # and coker of 1 - T, read here off rational elimination and the
        # determinantal divisors, and its kernel with the lattice model's
        # L'/EK, on connecting maps drawn so that each kernel case (EK = 0,
        # EK = Z^n or in between, with d = 0 or not) is hit.
        rng = random.Random(25)
        cases = Counter()
        for draw in range(300):
            n = rng.randint(1, 5)
            t = _connecting_map(rng, n, draw % 5)
            lim = StationaryLimit(t)
            one_minus_t = IntMatrix.identity(t.rows) - t
            nullity = rational_nullity(one_minus_t)
            divisors = (1,) + tuple(x for x in determinantal_divisors(one_minus_t) if x)
            factors = tuple(x // y for x, y in zip(divisors[1:], divisors) if x != y)
            assert one_minus_shift(lim) == (FGAbelianGroup.free(nullity), FGAbelianGroup(nullity, factors))
            assert (ker_one_minus_shift(lim), coker_one_minus_shift(lim)) == one_minus_shift(lim)
            cases[_kernel_case(t, nullity)] += 1
        assert set(cases) == {
            "nilpotent",
            "injective, singular 1 - T",
            "injective, nonsingular 1 - T",
            "proper, singular 1 - T",
            "proper, nonsingular 1 - T",
        }

    def test_nonsingular_one_minus_t_takes_no_eventual_kernel(self, monkeypatch):
        # L' = EK ⊕ ker(T - I), so the route reads the kernel off its own
        # cokernel's free rank in every kernel case, the repeated-row maps'
        # nonzero eventual kernel with d = 0 too.
        rng = random.Random(28)
        maps = [IntMatrix([[0, 0], [0, 2]]), IntMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 3]])]
        for n in (4, 8, 12):
            a, _ = low_rank_pair(n, repeat_row=True)
            maps.append(a.transpose())
        for draw in range(40):
            maps.append(_connecting_map(rng, rng.randint(2, 5), draw % 5))
        cases = Counter()
        expected = []
        for t in maps:
            one_minus_t = IntMatrix.identity(t.rows) - t
            nullity = rational_nullity(one_minus_t)
            cases[_kernel_case(t, nullity)] += 1
            expected.append((FGAbelianGroup.free(nullity), from_cokernel(one_minus_t)))
        assert len(cases) == 5

        def barred(limit):
            raise AssertionError("eventual kernel taken by the route")

        monkeypatch.setattr(kep.dirlimit, "eventual_kernel", barred)
        assert [one_minus_shift(StationaryLimit(t)) for t in maps] == expected

    def test_transpose_immaterial(self):
        rng = random.Random(26)
        for _ in range(100):
            n = rng.randint(1, 5)
            t = random_matrix(rng, n, n, -4, 6)
            one = IntMatrix.identity(n)
            assert kernel_group(one - t) == kernel_group(one - t.transpose())
            assert from_cokernel(one - t) == from_cokernel(one - t.transpose())


class TestLowRankConstruction:
    """A = P Q + I with P n x (n/2) and Q (n/2) x n, B = ±1 (`low_rank_pair`):
    I - A has a kernel of rank about n/2, whose Hermite basis once took
    minutes at n = 64."""

    @pytest.mark.parametrize("repeat_row", [False, True])
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_routes_agree(self, n, repeat_row):
        a, b = low_rank_pair(n, repeat_row)
        assert limit_route_homology(a, b) == homology(a, b)

    @pytest.mark.parametrize("n", [8, 12])
    def test_no_lattice_transforms(self, monkeypatch, n):
        # A and B are injective at these sizes, so both eventual kernels are
        # 0, and the nonzero kernel of I - A is the free part of its
        # cokernel.
        a, b = low_rank_pair(n)
        assert rational_rank(a) == rational_rank(b) == n
        expected = homology(a, b)

        def barred(m):
            raise AssertionError("lattice transform on a zero eventual kernel")

        for module in (kep.intmat, kep.dirlimit):
            for name in ("hnf", "snf"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, barred)
        assert limit_route_homology(a, b) == expected

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_repeated_row_takes_the_fixed_sublattice(self, monkeypatch, n):
        # Row 1 = row 0 makes Aᵗ singular with an eventual kernel of rank 1,
        # so the lattice model builds L' once and takes the quotient L'/EK,
        # which the route reads off its cokernel's free rank.
        a, _ = low_rank_pair(n, repeat_row=True)
        lim = StationaryLimit.from_row_action(a)
        assert len(eventual_kernel(lim)) == 1
        calls = 0
        real = kep.dirlimit._fixed_sublattice

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(kep.dirlimit, "_fixed_sublattice", counted)
        kernel = ker_one_minus_shift(lim)
        assert calls == 1
        assert kernel == one_minus_shift(lim)[0] == FGAbelianGroup.free(rational_nullity(IntMatrix.identity(n) - a))
