import hashlib
import random
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kep.intmat
from conftest import cofactor_adjugate, cofactor_det, determinantal_divisors, random_matrix, rational_nullity, rational_rank
from kep import (
    IntMatrix,
    det,
    hnf,
    snf,
)
from kep.intmat import _xgcd, det_adjugate_gcd, det_smith_diagonal, kernel_basis, rank, smith_diagonal

small_entries = st.integers(min_value=-30, max_value=30)


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(IntMatrix)
        )
    )


def square_matrices(max_dim):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(IntMatrix)


def random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    """A product of random elementary row additions: determinant 1."""
    rows = IntMatrix.identity(n).to_lists()
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


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


class TestFromColumns:
    def test_columns_become_columns(self):
        m = IntMatrix.from_columns([(1, 2, 3), (4, 5, 6)])
        assert m == IntMatrix([[1, 4], [2, 5], [3, 6]])
        assert [m.column(j) for j in range(m.cols)] == [(1, 2, 3), (4, 5, 6)]

    @pytest.mark.parametrize("columns", [[], [()], [(1, 2), (3,)]], ids=["none", "empty", "ragged"])
    def test_rejects_what_the_constructor_rejects(self, columns):
        with pytest.raises(ValueError):
            IntMatrix.from_columns(columns)


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


    # Exact U, D and V, recorded when `_smith` still replayed its operations
    # on separate U and V: the bordered elimination must take the same steps.
    @pytest.mark.parametrize(
        ("m", "u", "d", "v"),
        [
            (
                [[2, 4, 4], [-6, 6, 12]],
                [[1, 0], [3, 1]],
                [[2, 0, 0], [0, 6, 0]],
                [[1, 0, -2], [0, -1, 4], [0, 1, -3]],
            ),
            (
                [[1, 2], [3, 4], [5, 6]],
                [[1, 0, 0], [3, -1, 0], [1, -2, 1]],
                [[1, 0], [0, 2], [0, 0]],
                [[1, -2], [0, 1]],
            ),
            (
                [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                [[1, 0, 0], [4, -1, 0], [1, -2, 1]],
                [[1, 0, 0], [0, 3, 0], [0, 0, 0]],
                [[1, -2, 1], [0, 1, -2], [0, 0, 1]],
            ),
            (
                [[2, 0, 4], [0, 0, 0], [6, 0, 3]],
                [[-2, 0, 1], [-21, 0, 10], [0, 1, 0]],
                [[1, 0, 0], [0, 18, 0], [0, 0, 0]],
                [[3, -5, 0], [0, 0, 1], [1, -2, 0]],
            ),
        ],
        ids=["2x3", "3x2", "rank-deficient-3x3", "zero-row-and-column"],
    )
    def test_pinned_transforms(self, m, u, d, v):
        decomp = snf(IntMatrix(m))
        assert decomp.U.to_lists() == u
        assert decomp.D.to_lists() == d
        assert decomp.V.to_lists() == v

    def test_pinned_transforms_64_bit(self):
        # U and V run to 2482 bits here, so their digest is pinned.
        rng = random.Random(2024)
        m = IntMatrix([[rng.randint(-(2**63), 2**63) for _ in range(4)] for _ in range(4)])
        decomp = snf(m)
        assert decomp.diagonal() == (
            1,
            1,
            1,
            511577274420814333765865328807508153868270262114169447168744318561983567214,
        )
        transforms = repr((decomp.U.to_lists(), decomp.D.to_lists(), decomp.V.to_lists()))
        assert hashlib.sha256(transforms.encode()).hexdigest() == (
            "32585b20eb7a68959980f57cc61cf338d2fea86fe440c84d97d2d732b90af57f"
        )


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

    def test_determinantal_divisors(self, monkeypatch):
        # d_1 ... d_k = D_k, the gcd of the k x k minors, for every k; this
        # fixes each d_k, zeros included.  `smith_diagonal` answers on every
        # case, and `det_smith_diagonal` on every square one, with det M.
        # Cases: square and n x (n + 1) with small entries, a share scaled
        # by a common factor, and a rank-deficient share (a row copied and
        # scaled); 64- to 160-bit entries, plain and scaled by 6;
        # block-diagonal matrices and Z/p ⊕ Z/pq, both under a unimodular
        # conjugation; and |det| = 1.  On nonsingular squares with n >= 2,
        # `det_smith_diagonal` must take each of its three branches on some
        # case: g = 1 with no elimination after `_bareiss`, the pairwise-
        # coprime shortcut after the elimination modulo g (a cyclic
        # cokernel whose four minors share a factor with det), and `_smith`
        # on that elimination's triangular form.  On every nonsingular
        # square case the Gauss-Jordan certificate gives |det| = D_n and
        # gcd(adj) = D_(n-1), and both its outcomes occur: gcd 1 (a cyclic
        # cokernel) and gcd > 1.
        rng = random.Random(61)
        runs = {"_smith": 0, "_hermite_mod": 0}
        for name in runs:
            real = getattr(kep.intmat, name)

            def counted(*args, name=name, real=real):
                runs[name] += 1
                return real(*args)

            monkeypatch.setattr(kep.intmat, name, counted)
        branches, adjugate_branches = set(), set()

        def check(m):
            divisors = determinantal_divisors(m)
            diagonals = [smith_diagonal(m)]
            if m.is_square:
                before = dict(runs)
                d, diagonal = det_smith_diagonal(m)
                assert abs(d) == divisors[-1] and d == cofactor_det(m), m
                diagonals.append(diagonal)
                if d and m.rows > 1:
                    if runs["_hermite_mod"] == before["_hermite_mod"]:
                        branches.add("g = 1")
                    else:
                        branches.add("smith on H" if runs["_smith"] > before["_smith"] else "coprime")
            if m.is_square and divisors[-1]:
                d, minor_gcd = det_adjugate_gcd(m)
                assert (abs(d), minor_gcd) == (divisors[-1], divisors[-2] if m.rows > 1 else 1), m
                adjugate_branches.add("cyclic" if minor_gcd == 1 else "non-cyclic")
            for diagonal in diagonals:
                product = 1
                for d, divisor in zip(diagonal, divisors, strict=True):
                    product *= d
                    assert product == divisor, m

        def conjugated(rows):
            n = len(rows)
            return random_unimodular(rng, n) @ IntMatrix(rows) @ random_unimodular(rng, n)

        ranks = set()
        for trial in range(240):
            n = rng.randint(1, 4)
            rows = random_matrix(rng, n, n + trial % 2, -6, 6).to_lists()
            scale = rng.choice((1, 1, 2, 6))
            if n > 1 and trial % 3 == 0:
                rows[-1] = [rng.randint(-2, 2) * x for x in rows[0]]
            m = IntMatrix([[scale * x for x in row] for row in rows])
            check(m)
            ranks.add((n, rank(m) < n))
        assert {(4, True), (4, False)} <= ranks

        for trial in range(24):
            n, bits, scale = 1 + trial % 4, (64, 96, 160)[trial % 3], (1, 6)[trial // 12]
            check(IntMatrix([[scale * (rng.getrandbits(bits) - (1 << (bits - 1))) for _ in range(n)]
                             for _ in range(n)]))
        for _ in range(12):
            left, right = (random_matrix(rng, k, k, -6, 6).to_lists() for k in (rng.randint(1, 2), 2))
            check(conjugated([row + [0] * len(right) for row in left] + [[0] * len(left) + row for row in right]))
        for p, q in ((2, 3), (3, 5), (5, 5), (7, 2), ((1 << 61) - 1, 3)):
            for d in ((p, p * q), (1, p, p * q), (1, 1, p, p * q)):
                check(conjugated([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]))
        for n in range(1, 5):
            for _ in range(3):
                check(random_unimodular(rng, n))
        assert branches == {"g = 1", "coprime", "smith on H"}
        assert adjugate_branches == {"cyclic", "non-cyclic"}


class TestDetSmithDiagonal:
    """(det M, Smith diagonal) from one Bareiss pass and an elimination
    modulo g, the gcd of det M and the minors that pass leaves (four
    (n-1)-minors of a nonsingular M, r-minors of one of rank r < n),
    against the library-free determinantal divisors and cofactor
    determinant of `conftest`."""

    @staticmethod
    def moduli(monkeypatch):
        """The moduli g that `_hermite_mod` is called with, in order."""
        seen = []
        real = kep.intmat._hermite_mod

        def recorded(m, g):
            seen.append(g)
            return real(m, g)

        monkeypatch.setattr(kep.intmat, "_hermite_mod", recorded)
        return seen

    @staticmethod
    def assert_oracle(m, diagonal):
        divisors = determinantal_divisors(m)
        assert det_smith_diagonal(m) == (cofactor_det(m), diagonal), m
        product = 1
        for d, divisor in zip(diagonal, divisors, strict=True):
            product *= d
            assert product == divisor, m

    def test_planted_products(self):
        # P diag(c) Q with P, Q unimodular has the divisor chain c as its
        # diagonal; the chains include 1s, repeated and coprime-looking
        # factors that are not coprime, and one 64-bit factor.
        rng = random.Random(34)
        chains = [(2, 4), (1, 3, 6), (2, 2, 2), (1, 1, 5, 10), (3, 3, 6, 12), (1, 2, (1 << 64) + 2),
                  (6, 6), (1, 1, 1, 7)]
        for chain in chains * 4:
            n = len(chain)
            planted = IntMatrix([[chain[i] if i == j else 0 for j in range(n)] for i in range(n)])
            m = random_unimodular(rng, n) @ planted @ random_unimodular(rng, n)
            self.assert_oracle(m, chain)

    def test_cyclic_with_g_above_one(self, monkeypatch):
        # Cyclic cokernels (D_(n-1) = 1) whose four minors share a factor
        # with det, so the elimination modulo g runs.  Its pairwise-coprime
        # shortcut answers on most; a Hermite diagonal such as (2, 1, 2) is
        # not coprime though its quotient is cyclic, and `_smith` answers.
        moduli = self.moduli(monkeypatch)
        smith_runs = [0]
        real_smith = kep.intmat._smith

        def counted(*args):
            smith_runs[0] += 1
            return real_smith(*args)

        monkeypatch.setattr(kep.intmat, "_smith", counted)
        rng = random.Random(3)
        outcomes = []
        while len(outcomes) < 16:
            n = rng.randint(3, 4)
            m = random_matrix(rng, n, n, -4, 4)
            divisors = determinantal_divisors(m)
            if not divisors[-1] or divisors[-2] != 1:
                continue
            before = (len(moduli), smith_runs[0])
            self.assert_oracle(m, (1,) * (n - 1) + (divisors[-1],))
            if len(moduli) > before[0]:
                assert moduli[-1] > 1, m
                outcomes.append(smith_runs[0] > before[1])
        assert outcomes.count(False) > outcomes.count(True) > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_scalar_matrix(self, monkeypatch, n, k):
        # M = kI: the four minors are k^(n-1), 0, 0, k^(n-1), so
        # g = k^(n-1), and H = kI sends the diagonal through `_smith`.
        moduli = self.moduli(monkeypatch)
        m = IntMatrix([[k * (i == j) for j in range(n)] for i in range(n)])
        self.assert_oracle(m, (k,) * n)
        assert moduli == [k ** (n - 1)]

    @pytest.mark.parametrize("x", [1, -1, 2, -12, 0, (1 << 200) + 1])
    def test_one_by_one(self, monkeypatch, x):
        # No minor: the diagonal is (|x|) with no elimination modulo g.
        moduli = self.moduli(monkeypatch)
        assert det_smith_diagonal(IntMatrix([[x]])) == (x, (abs(x),))
        assert moduli == []

    @pytest.mark.parametrize(
        ("rows", "g"),
        [([[2, 4], [6, 8]], 2), ([[3, 1], [1, 3]], 1), ([[4, 6], [6, 4]], 2), ([[0, 3], [5, 0]], 1), ([[1, 2], [2, 4]], None)],
    )
    def test_two_by_two(self, monkeypatch, rows, g):
        # The four minors are M's entries: g = gcd(det M, entries).
        moduli = self.moduli(monkeypatch)
        m = IntMatrix(rows)
        divisors = determinantal_divisors(m)
        self.assert_oracle(m, (divisors[0], divisors[1] // divisors[0] if divisors[0] else 0))
        assert moduli == ([g] if g not in (None, 1) else [])

    @staticmethod
    def forbid_smith_diagonal(monkeypatch):
        def forbidden(*args):
            raise AssertionError("smith_diagonal called")

        monkeypatch.setattr(kep.intmat, "smith_diagonal", forbidden)

    def test_planted_products_of_every_rank(self, monkeypatch):
        # P diag(c, 0, ..., 0) Q of rank r = 0..n for n <= 6, c a divisor
        # chain of r factors: a singular M takes the same Bareiss pass and
        # elimination modulo g as a nonsingular one, never the whole-matrix
        # `smith_diagonal`.
        self.forbid_smith_diagonal(monkeypatch)
        rng = random.Random(7)
        for n in range(1, 7):
            for r in range(n + 1):
                for _ in range(3):
                    chain = []
                    for _ in range(r):
                        chain.append((chain[-1] if chain else 1) * rng.choice((1, 1, 2, 3, 6)))
                    chain += [0] * (n - r)
                    planted = IntMatrix([[chain[i] if i == j else 0 for j in range(n)] for i in range(n)])
                    m = random_unimodular(rng, n) @ planted @ random_unimodular(rng, n)
                    self.assert_oracle(m, tuple(chain))

    @pytest.mark.parametrize(
        ("rows", "diagonal", "moduli"),
        [
            ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], (1, 1, 0), []),
            ([[2, 0, 2], [0, 2, 2], [2, 2, 4]], (2, 2, 0), [4]),
            ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], (0, 0, 0), []),
            ([[0]], (0,), []),
        ],
        ids=["rank-n-1-g-1", "rank-n-1-non-cyclic-head", "zero-matrix", "zero-1x1"],
    )
    def test_singular(self, monkeypatch, rows, diagonal, moduli):
        # Rank n - 1 with g = 1 needs no elimination after `_bareiss`; with
        # g = 4 = D_2 and head (2, 2), the elimination modulo g and `_smith`
        # on its Hermite form give the head.  Rank 0 has no minor and no
        # elimination.
        self.forbid_smith_diagonal(monkeypatch)
        seen = self.moduli(monkeypatch)
        self.assert_oracle(IntMatrix(rows), diagonal)
        assert seen == moduli

    @given(square_matrices(6), st.sampled_from((1, 2, 6)))
    @settings(max_examples=150, deadline=None)
    @example(IntMatrix([[0]]), 1)
    def test_matches_det_and_smith_diagonal(self, m, scale):
        m = IntMatrix([[scale * x for x in row] for row in m])
        assert det_smith_diagonal(m) == (det(m), smith_diagonal(m))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_smith_diagonal(IntMatrix([[1, 2]]))
        with pytest.raises(ValueError):
            det_smith_diagonal(IntMatrix([[1], [2]]))


class TestDetAdjugate:
    """(det M, gcd of adj M's entries) by in-place Gauss-Jordan against
    cofactor expansion: the determinant and the gcd of the cofactor
    adjugate's entries, D_(n-1)."""

    @staticmethod
    def check(m):
        d, minor_gcd = det_adjugate_gcd(m)
        assert d == cofactor_det(m), m
        assert minor_gcd == (gcd(*cofactor_adjugate(m).entries) if d else 0), m
        return d

    def test_one_by_one(self):
        assert det_adjugate_gcd(IntMatrix([[-7]])) == (-7, 1)
        assert det_adjugate_gcd(IntMatrix([[0]])) == (0, 0)
        assert self.check(IntMatrix([[12]])) == 12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_adjugate_gcd(IntMatrix([[1, 2]]))

    def test_random_small(self):
        rng = random.Random(71)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            singular += self.check(random_matrix(rng, n, n, -9, 9)) == 0
        assert singular

    def test_zero_leading_entries(self):
        # Zero pivots force row swaps: a zero first column above the last
        # row, a zero leading 2 x 2 block, and row-rotated triangular
        # matrices, whose every pivot position starts at zero.
        rng = random.Random(72)
        nonsingular = 0
        for trial in range(150):
            n = rng.randint(2, 5)
            rows = random_matrix(rng, n, n, -9, 9).to_lists()
            if trial % 3 == 0:
                for i in range(n - 1):
                    rows[i][0] = 0
            elif trial % 3 == 1:
                rows[0][0] = rows[0][1] = rows[1][0] = 0
                rows[1][1] = rng.randint(-1, 1)
            else:
                rows = [[rows[i][j] if j >= i else 0 for j in range(n)] for i in range(n)]
                for i in range(n):
                    rows[i][i] = rng.choice((-3, -1, 1, 2))
                rows = rows[1:] + rows[:1]
            nonsingular += self.check(IntMatrix(rows)) != 0
        assert nonsingular > 100

    def test_singular(self):
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(2, 5)
            rows = random_matrix(rng, n, n, -9, 9).to_lists()
            i, j = rng.sample(range(n), 2)
            q = rng.randint(-3, 3)
            rows[i] = [q * x for x in rows[j]]
            assert det_adjugate_gcd(IntMatrix(rows)) == (0, 0)
        assert det_adjugate_gcd(IntMatrix([[0, 0], [0, 5]])) == (0, 0)

    def test_wide_entries(self):
        rng = random.Random(74)
        for trial in range(30):
            n, bits = 1 + trial % 5, (64, 96, 160)[trial % 3]
            m = IntMatrix([[rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)] for _ in range(n)])
            assert self.check(m) != 0


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


# Zero, small and 600-bit operands of either sign.
xgcd_operands = st.one_of(
    st.just(0),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-(1 << 600), max_value=1 << 600),
)


class TestXgcd:
    @given(xgcd_operands, xgcd_operands)
    @example(0, 0)
    @example(5, 0)
    @example(-5, 0)
    @example(0, -7)
    @example(1 << 600, -(1 << 599))
    @settings(max_examples=300, deadline=None)
    def test_bezout_against_math_gcd(self, a, b):
        g, x, y = _xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g
        if g:
            # |x| <= max(1, |b|/g) and |y| <= max(1, |a|/g), cleared of g.
            assert abs(x) * g <= max(g, abs(b))
            assert abs(y) * g <= max(g, abs(a))
        else:
            assert (x, y) == (0, 0)


def test_docstring_examples():
    import doctest

    import kep.abgroup
    import kep.intmat

    for module in (kep.intmat, kep.abgroup):
        failures, _ = doctest.testmod(module)
        assert failures == 0
