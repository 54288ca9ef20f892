"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Every check is exact equality or exact group isomorphism; there are no
tolerances to tune.  Each test prints a single pass/fail line (visible with
pytest -s or on failure).
"""

import json
import random
from contextlib import contextmanager
from math import gcd

from conftest import random_matrix, random_path, random_pseudo_free_pair
from kep import (
    Edge,
    EventuallyPeriodicPath,
    FGAbelianGroup,
    IntMatrix,
    Path,
    Slice,
    analyze,
    build_graph,
    compare,
    compose_slices,
    det,
    fixes_path,
    hk_check,
    hnf,
    homology,
    invert_slice,
    is_isomorphic,
    kappa_edge,
    kappa_path,
    ktheory,
    limit_route_homology,
    phi_vertex_sum,
    realize,
    refine_slice,
    sft_homology,
    slices_equal,
    snf,
)
from kep.cli import main
from kep.invariants import VERDICT_DISTINGUISHED, Operand
from kep.selfsim import path_ending_at


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_worked_example(capsys, tmp_path):
    with criterion(1, "1x1 pair vs 2x2 SFT worked example"):
        a1, b1 = IntMatrix([[2]]), IntMatrix([[1]])
        a2 = IntMatrix([[2, 1], [1, 2]])
        z = FGAbelianGroup(1, ())
        zero = FGAbelianGroup.trivial()

        h = homology(a1, b1)
        assert (h.h0, h.h1, h.h2) == (zero, z, z)
        assert ktheory(a1, b1) == (z, z)

        sft = sft_homology(a2)
        assert (sft.h0, sft.h1, sft.h2) == (z, z, zero)

        rep = compare(Operand("katsura", a1, b1), Operand("sft", a2))
        assert rep.k_theory_equal
        assert rep.homology_isomorphic == (False, True, False, True)
        assert rep.distinguished
        assert rep.verdict == VERDICT_DISTINGUISHED

        # Same values through the CLI surface.
        path = tmp_path / "pair.json"
        path.write_text('{"mode":"katsura","n":1,"A":[[2]],"B":[[1]]}')
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["H"] == ["0", "Z", "Z", "0"]
        assert doc["K"] == ["Z", "Z"]
        assert doc["hk_ok"] is True


def test_criterion_2_route_independence():
    with criterion(2, "route independence on 200 seeded pseudo-free pairs"):
        rng = random.Random(2024)
        failures = 0
        for _ in range(200):
            a, b = random_pseudo_free_pair(
                rng, max_n=5, a_range=(1, 9), b_range=(-4, 6)
            )
            formula = homology(a, b)
            limit = limit_route_homology(a, b)
            if not formula.isomorphic_to(limit):
                failures += 1
            if not hk_check(a, b).ok:
                failures += 1
        assert failures == 0


def test_criterion_3_action_laws():
    with criterion(3, "cocycle, action and carry-sum laws"):
        span = 20
        rng = random.Random(3033)
        for _ in range(50):
            a, b = random_pseudo_free_pair(rng, max_n=3, a_range=(1, 3))
            graph = build_graph(a)
            edges = graph.edges()
            table = {
                (m, e): kappa_edge(a, b, m, e)
                for m in range(-2 * span, 2 * span + 1)
                for e in edges
            }
            for e in edges:
                for m2 in range(-span, span + 1):
                    e2, p2 = table[(m2, e)]
                    for m1 in range(-span, span + 1):
                        e12, p12 = table[(m1 + m2, e)]
                        e1, p1 = table[(m1, e2)]
                        assert e12 == e1, "action law failed"
                        assert p12 == p1 + p2, "cocycle law failed"
            for m in range(-span, span + 1):
                for v in graph.vertices():
                    for w in graph.vertices():
                        expected = m * b[v - 1, w - 1] if a[v - 1, w - 1] else 0
                        assert phi_vertex_sum(a, b, m, v, w) == expected
            for _ in range(12):
                p = random_path(graph, rng, rng.randint(1, 6))
                m1 = rng.randint(-span, span)
                m2 = rng.randint(-span, span)
                pm2, c2 = kappa_path(a, b, m2, p)
                pm12, c12 = kappa_path(a, b, m1 + m2, p)
                pm1, c1 = kappa_path(a, b, m1, pm2)
                assert pm12 == pm1 and c12 == c1 + c2


def test_criterion_4_slice_algebra():
    with criterion(4, "slice algebra laws"):
        rng = random.Random(4044)
        defined_products = 0
        for _ in range(150):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            graph = build_graph(a)
            ctx = (a, b)
            beta = random_path(graph, rng, rng.randint(0, 3))
            alpha = path_ending_at(graph, rng, beta.range, 3)
            s1 = Slice(alpha, rng.randint(-3, 3), beta, ctx)

            assert invert_slice(invert_slice(s1)) == s1
            assert compose_slices(invert_slice(s1), s1) == Slice(beta, 0, beta, ctx)

            gamma = path_ending_at(graph, rng, beta.range, 3)
            s2 = Slice(beta, rng.randint(-3, 3), gamma, ctx)
            direct = compose_slices(s1, s2)
            piecewise = {compose_slices(s1, child) for child in refine_slice(s2)}
            assert piecewise == set(refine_slice(direct))

            delta = path_ending_at(graph, rng, gamma.range, 3)
            s3 = Slice(gamma, rng.randint(-3, 3), delta, ctx)
            for middle in refine_slice(s2):
                s12 = compose_slices(s1, middle)
                s23 = compose_slices(middle, s3)
                lhs = compose_slices(s12, s3) if s12 is not None else None
                rhs = compose_slices(s1, s23) if s23 is not None else None
                assert (lhs is None) == (rhs is None)
                if lhs is not None:
                    defined_products += 1
                    assert slices_equal(lhs, rhs)
        assert defined_products >= 150


def test_criterion_5_normal_form_soundness():
    with criterion(5, "SNF/HNF soundness on 2000 random matrices"):
        rng = random.Random(5055)

        def check(m):
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
            if m.is_square:
                product = 1
                for d in diag:
                    product *= d
                assert product == abs(det(m))
                assert abs(det(hnf(m))) == abs(det(m))
            h = hnf(m)
            assert hnf(h) == h
            return diag

        for _ in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            check(random_matrix(rng, rows, cols, -50, 50))

        for _ in range(1000):
            m = random_matrix(rng, 2, 2, -50, 50)
            d1, d2 = check(m)
            expected = 0
            for x in m.entries:
                expected = gcd(expected, x)
            assert d1 == expected
            assert d1 * d2 == abs(det(m))


def test_criterion_6_realize_round_trip():
    with criterion(6, "realization round trip and rank rejection"):
        rng = random.Random(6066)

        def random_chain():
            chain = []
            d = rng.randint(2, 12)
            for _ in range(rng.randint(0, 3)):
                chain.append(d)
                multiples = [k for k in range(d, 13) if k % d == 0]
                d = rng.choice(multiples)
            return tuple(chain)

        for _ in range(100):
            rank = rng.randint(0, 3)
            k0 = FGAbelianGroup(rank, random_chain())
            k1 = FGAbelianGroup(rank, random_chain())
            result = realize(k0, k1)
            assert result.ok
            achieved = ktheory(result.a, result.b)
            assert is_isomorphic(achieved[0], k0)
            assert is_isomorphic(achieved[1], k1)
            rep = analyze(Operand("katsura", result.a, result.b))
            assert rep.properties.pseudo_free is True

        for _ in range(20):
            r0, r1 = rng.randint(0, 4), rng.randint(0, 4)
            if r0 == r1:
                r1 += 1
            rejected = realize(FGAbelianGroup(r0, ()), FGAbelianGroup(r1, ()))
            assert not rejected.ok
            assert "unrealizable at finite N" in rejected.reason
            assert "free rank" in rejected.reason


def test_criterion_7_fixed_path_criterion():
    with criterion(7, "fixed-path divisibility criterion"):
        a = IntMatrix([[2]])
        loop = EventuallyPeriodicPath(Path.empty(1), Path.of([Edge(1, 1, 0)]))

        b_half = IntMatrix([[1]])
        for m in range(-10, 11):
            assert fixes_path(a, b_half, m, loop) == (m == 0)

        b_equal = IntMatrix([[2]])
        for m in range(-10, 11):
            assert fixes_path(a, b_equal, m, loop)
