import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cofactor_det, determinantal_divisors, random_matrix, rational_nullity, rational_rank
from kep import (
    IntMatrix,
    det,
    hnf,
    kernel_basis,
    snf,
)
from kep.intmat import rank, smith_diagonal

small_entries = st.integers(min_value=-30, max_value=30)


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(IntMatrix)
        )
    )


def assert_snf_sound(m):
    decomp = snf(m)
    assert decomp.U @ m @ decomp.V == decomp.D
    assert abs(det(decomp.U)) == 1
    assert abs(det(decomp.V)) == 1
    diag = decomp.diagonal()
    assert all(d >= 0 for d in diag)
    prev = None
    for d in diag:
        if prev not in (None, 0):
            assert d % prev == 0
        prev = d
    # off-diagonal of D vanishes
    for i in range(decomp.D.rows):
        for j in range(decomp.D.cols):
            if i != j:
                assert decomp.D[i, j] == 0
    return decomp


class TestSnf:
    def test_zero_1x1(self):
        decomp = snf(IntMatrix([[0]]))
        assert decomp.D == IntMatrix([[0]])
        assert decomp.U == IntMatrix([[1]])
        assert decomp.V == IntMatrix([[1]])

    def test_all_minus_ones(self):
        # d1 = gcd of entries = 1, d1*d2 = |det| = 0
        decomp = assert_snf_sound(IntMatrix([[-1, -1], [-1, -1]]))
        assert decomp.diagonal() == (1, 0)

    def test_2468(self):
        # d1 = gcd = 2, d1*d2 = |det| = 8
        decomp = assert_snf_sound(IntMatrix([[2, 4], [6, 8]]))
        assert decomp.diagonal() == (2, 4)

    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_snf_sound_random(self, m):
        assert_snf_sound(m)

    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_transpose_same_diagonal(self, m):
        assert snf(m).diagonal() == snf(m.transpose()).diagonal()

    def test_square_diag_product_is_abs_det(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n, -30, 30)
            diag = snf(m).diagonal()
            product = 1
            for d in diag:
                product *= d
            assert product == abs(det(m))

    def test_2x2_gcd_det_oracle(self):
        rng = random.Random(2)
        for _ in range(300):
            m = random_matrix(rng, 2, 2, -50, 50)
            d1, d2 = snf(m).diagonal()
            entries = [x for x in m.entries if x != 0]
            expected_d1 = 0
            for x in entries:
                expected_d1 = gcd(expected_d1, x)
            assert d1 == expected_d1
            assert d1 * d2 == abs(det(m))


class TestSmithDiagonal:
    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_snf(self, m):
        assert smith_diagonal(m) == snf(m).diagonal()

    def test_singular_and_non_square(self):
        assert smith_diagonal(IntMatrix([[0, 0, 0], [0, 0, 0]])) == (0, 0)
        assert smith_diagonal(IntMatrix([[6], [4], [0]])) == (2,)
        assert smith_diagonal(IntMatrix([[2, 4], [6, 8], [4, 8]])) == (2, 4)

    def test_large_entries_product_is_abs_det(self):
        # 512-bit entries: the transformed form is far slower here, and the
        # cofactor determinant shares no code with the Smith elimination.
        rng = random.Random(512)
        for _ in range(5):
            m = IntMatrix([[rng.getrandbits(512) - (1 << 511) for _ in range(4)] for _ in range(4)])
            product = 1
            for d in smith_diagonal(m):
                product *= d
            assert product == abs(cofactor_det(m))

    def test_determinantal_divisors(self):
        # d_1 ... d_k = D_k, the gcd of the k x k minors, for every k; this
        # fixes each d_k, zeros included.  Square and n x (n + 1), with
        # small entries, a share scaled by a common factor, and a
        # rank-deficient share (a row copied and scaled).
        rng = random.Random(61)
        ranks = set()
        for trial in range(240):
            n = rng.randint(1, 4)
            rows = random_matrix(rng, n, n + trial % 2, -6, 6).to_lists()
            scale = rng.choice((1, 1, 2, 6))
            if n > 1 and trial % 3 == 0:
                rows[-1] = [rng.randint(-2, 2) * x for x in rows[0]]
            m = IntMatrix([[scale * x for x in row] for row in rows])
            diagonal = smith_diagonal(m)
            product = 1
            for d, divisor in zip(diagonal, determinantal_divisors(m), strict=True):
                product *= d
                assert product == divisor, m
            ranks.add((n, rank(m) < n))
        assert {(4, True), (4, False)} <= ranks


class TestRank:
    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_rational_rank(self, m):
        assert rank(m) == rational_rank(m)

    def test_examples(self):
        assert rank(IntMatrix([[0]])) == 0
        assert rank(IntMatrix([[0, 0, 5]])) == 1
        assert rank(IntMatrix([[1, 2], [2, 4], [3, 7]])) == 2


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(2)) == 1

    def test_one_by_one(self):
        assert det(IntMatrix([[-1]])) == -1

    def test_singular(self):
        assert det(IntMatrix([[-1, -1], [-1, -1]])) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det(IntMatrix([[1, 2]]))

    @given(small_matrices(max_dim=4).filter(lambda m: m.is_square))
    @settings(max_examples=100, deadline=None)
    def test_matches_cofactor_expansion(self, m):
        assert det(m) == cofactor_det(m)


class TestKernel:
    def test_identity_injective(self):
        assert kernel_basis(IntMatrix.identity(3)) == []

    def test_zero_1x1(self):
        assert kernel_basis(IntMatrix([[0]])) == [(1,)]

    def test_all_minus_ones(self):
        basis = kernel_basis(IntMatrix([[-1, -1], [-1, -1]]))
        assert len(basis) == 1
        assert basis[0] in ((1, -1), (-1, 1))

    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_vectors_annihilated_and_count(self, m):
        basis = kernel_basis(m)
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        assert len(basis) == rational_nullity(m)

    @given(small_matrices())
    @settings(max_examples=150, deadline=None)
    def test_empty_exactly_when_injective(self, m):
        assert (kernel_basis(m) == []) == (rational_nullity(m) == 0)


class TestHnf:
    def test_identity(self):
        assert hnf(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_zero(self):
        assert hnf(IntMatrix([[0]])) == IntMatrix([[0]])

    def test_lattice_index_preserved(self):
        m = IntMatrix([[2, 4], [6, 8]])
        assert abs(det(hnf(m))) == abs(det(m)) == 8

    def test_idempotent_and_unimodular_invariant(self):
        # The Hermite form is a canonical basis of the column lattice, so it
        # cannot change under unimodular column operations.
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = random_matrix(rng, n, cols, -20, 20)
            h = hnf(m)
            assert hnf(h) == h
            shuffled = [list(row) for row in m]
            for _ in range(6):
                j, k = rng.randrange(cols), rng.randrange(cols)
                if j == k:
                    for row in shuffled:
                        row[j] = -row[j]
                else:
                    q = rng.randint(-3, 3)
                    for row in shuffled:
                        row[j] += q * row[k]
            assert hnf(IntMatrix(shuffled)) == h


def test_docstring_examples():
    import doctest

    import kep.abgroup
    import kep.intmat

    for module in (kep.intmat, kep.abgroup):
        failures, _ = doctest.testmod(module)
        assert failures == 0
