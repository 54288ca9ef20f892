import random

import pytest

from conftest import random_path, random_pseudo_free_pair
from kep import (
    Edge,
    EventuallyPeriodicPath,
    InputValidationError,
    IntMatrix,
    Path,
    build_graph,
    fixes_path,
    is_pseudo_free,
    kappa_edge,
    kappa_path,
    kappa_path_preimage,
    parse_edge,
    parse_path,
    phi_vertex_sum,
)
from kep.selfsim import path_ending_at

A1 = IntMatrix([[2]])
B1 = IntMatrix([[1]])
E0 = Edge(1, 1, 0)
E1 = Edge(1, 1, 1)


class TestGraph:
    def test_single_vertex_two_loops(self):
        g = build_graph(A1)
        assert g.edges() == [E0, E1]

    def test_two_by_two(self):
        g = build_graph(IntMatrix([[2, 1], [1, 2]]))
        assert g.edge_count() == 6
        assert len(g.out_edges(1)) == 3

    def test_cycle_graph(self):
        g = build_graph(IntMatrix([[0, 1], [1, 0]]))
        assert g.edges() == [Edge(1, 2, 0), Edge(2, 1, 0)]

    def test_rejects_zero_row(self):
        with pytest.raises(InputValidationError):
            build_graph(IntMatrix([[0, 0], [1, 1]]))

    def test_rejects_negative(self):
        with pytest.raises(InputValidationError):
            build_graph(IntMatrix([[1, -1], [1, 1]]))


class TestKappaEdge:
    def test_basic_division(self):
        # 1*1 + 0 = 0*2 + 1
        assert kappa_edge(A1, B1, 1, E0) == (E1, 0)

    def test_m_zero_is_identity(self):
        for e in (E0, E1):
            assert kappa_edge(A1, B1, 0, e) == (e, 0)

    def test_negative_m_floor_division(self):
        # -1 = (-1)*2 + 1: the residue must stay in [0, 2)
        assert kappa_edge(A1, B1, -1, E0) == (E1, -1)

    def test_rejects_missing_edge(self):
        with pytest.raises(InputValidationError):
            kappa_edge(A1, B1, 1, Edge(1, 1, 2))

    def test_label_bijection(self):
        rng = random.Random(31)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3, a_range=(1, 5))
            g = build_graph(a)
            m = rng.randint(-20, 20)
            for v in g.vertices():
                for w in g.vertices():
                    fiber = [Edge(v, w, t) for t in range(a[v - 1, w - 1])]
                    images = {kappa_edge(a, b, m, e)[0] for e in fiber}
                    assert images == set(fiber)


class TestKappaPath:
    def test_fold_example(self):
        path = Path.of([E1, E1])
        image, carry = kappa_path(A1, B1, 1, path)
        assert image == Path.of([E0, E0])
        assert carry == 1

    def test_m_zero(self):
        path = Path.of([E0, E1])
        assert kappa_path(A1, B1, 0, path) == (path, 0)

    def test_single_edge_carry(self):
        # 2*1 + 0 = 1*2 + 0
        image, carry = kappa_path(A1, B1, 2, Path.of([E0]))
        assert image == Path.of([E0])
        assert carry == 1

    def test_empty_path_returns_m(self):
        p = Path.empty(1)
        assert kappa_path(A1, B1, 7, p) == (p, 7)

    def test_preimage_inverts(self):
        rng = random.Random(32)
        for _ in range(200):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            p = random_path(g, rng, rng.randint(1, 6))
            m = rng.randint(-10, 10)
            image, _ = kappa_path(a, b, m, p)
            assert kappa_path_preimage(a, b, m, image) == p

    def test_grouping_independence(self):
        # Folding the whole path equals folding a prefix and feeding its
        # carry into the suffix, for every split point.
        rng = random.Random(33)
        for _ in range(150):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            p = random_path(g, rng, rng.randint(2, 6))
            m = rng.randint(-15, 15)
            image, carry = kappa_path(a, b, m, p)
            for cut in range(1, len(p)):
                left, right = Path(p.edges[:cut]), Path(p.edges[cut:])
                left_img, left_carry = kappa_path(a, b, m, left)
                right_img, right_carry = kappa_path(a, b, left_carry, right)
                assert left_img.concat(right_img) == image
                assert right_carry == carry


class TestCocycleLaws:
    def test_edge_laws_small_sweep(self):
        rng = random.Random(34)
        for _ in range(30):
            a, b = random_pseudo_free_pair(rng, max_n=3, a_range=(1, 4))
            g = build_graph(a)
            for e in g.edges():
                for m1 in range(-6, 7):
                    for m2 in range(-6, 7):
                        em2, p2 = kappa_edge(a, b, m2, e)
                        em12, p12 = kappa_edge(a, b, m1 + m2, e)
                        em1, p1 = kappa_edge(a, b, m1, em2)
                        assert em12 == em1
                        assert p12 == p1 + p2

    def test_path_laws_small_sweep(self):
        rng = random.Random(35)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            p = random_path(g, rng, rng.randint(1, 6))
            m1, m2 = rng.randint(-20, 20), rng.randint(-20, 20)
            pm2, c2 = kappa_path(a, b, m2, p)
            pm12, c12 = kappa_path(a, b, m1 + m2, p)
            pm1, c1 = kappa_path(a, b, m1, pm2)
            assert pm12 == pm1
            assert c12 == c1 + c2


class TestPseudoFree:
    def test_criterion_holds(self):
        result = is_pseudo_free(A1, B1)
        assert result.verdict is True
        assert result.witness is None

    def test_zero_b_refuted(self):
        result = is_pseudo_free(A1, IntMatrix([[0]]))
        assert result.verdict is False
        assert result.witness == (1, E0)
        image, carry = kappa_edge(A1, IntMatrix([[0]]), 1, E0)
        assert image == E0 and carry == 0

    def test_paper_style_2x2(self):
        a = IntMatrix([[2, 1], [1, 2]])
        b = IntMatrix([[1, 1], [1, 1]])
        assert is_pseudo_free(a, b).verdict is True

    def test_matches_brute_search(self):
        # Closed form against the definition: search 0 < |m| <= 6 over all
        # edges for a zero-carry fixed point, in the same order.
        rng = random.Random(61)
        for _ in range(200):
            n = rng.randint(1, 3)
            a = IntMatrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            if not all(any(row) for row in a):
                continue
            b = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            edges = build_graph(a).edges()
            found = None
            for mag in range(1, 7):
                for m in (mag, -mag):
                    for e in edges:
                        if found is None and kappa_edge(a, b, m, e) == (e, 0):
                            found = (m, e)
            result = is_pseudo_free(a, b)
            assert result.verdict is (found is None)
            assert result.witness == found

    def test_b_off_support_is_pseudo_free(self):
        # B nonzero where A vanishes: supports differ, but B is nonzero on
        # every edge, so no m != 0 fixes an edge with zero carry.
        a = IntMatrix([[1, 0], [1, 1]])
        b = IntMatrix([[1, 5], [1, 1]])
        result = is_pseudo_free(a, b)
        assert result.verdict is True
        assert result.witness is None


class TestFixesPath:
    def test_m_zero_always_fixes(self):
        x = EventuallyPeriodicPath(Path.empty(1), Path.of([E0]))
        assert fixes_path(A1, B1, 0, x)

    def test_halving_ratio_escapes(self):
        # ratio B/A = 1/2 per loop: 2*(1/2) is integral, 2*(1/4) is not
        x = EventuallyPeriodicPath(Path.empty(1), Path.of([E0]))
        assert not fixes_path(A1, B1, 2, x)

    def test_balanced_ratio_cycles(self):
        x = EventuallyPeriodicPath(Path.empty(1), Path.of([E0]))
        assert fixes_path(A1, IntMatrix([[2]]), 1, x)

    def test_halving_ratio_escapes_past_many_periods(self):
        # m * 2^-l stays integral for l <= 20 and leaves Z at l = 21.
        x = EventuallyPeriodicPath(Path.empty(1), Path.of([E0]))
        assert not fixes_path(A1, B1, 2**20, x)
        assert not fixes_path(A1, B1, -(2**40), x)

    def test_matches_long_prefix_evaluation(self):
        # With |m| <= 50, |B| <= 3 and a prefix of at most 2 edges the value
        # entering the period has |v| <= 450, so a failure comes within
        # log2(450) + 1 < 10 periods of at most 3 edges: 40 prefixes decide.
        rng = random.Random(62)
        verdicts = set()
        for _ in range(400):
            a, b = random_pseudo_free_pair(rng, max_n=3, a_range=(1, 4), b_range=(-3, 3))
            g = build_graph(a)
            period = path_ending_at(g, rng, 1, 3)
            if not period.edges or period.source != 1:
                continue
            prefix = path_ending_at(g, rng, 1, 2)
            m = rng.randint(-50, 50)
            value, integral = m, True
            for e in (list(prefix.edges) + list(period.edges) * 40)[:40]:
                num = value * b[e.source - 1, e.target - 1]
                integral = integral and num % a[e.source - 1, e.target - 1] == 0
                value = num // a[e.source - 1, e.target - 1]
            assert fixes_path(a, b, m, EventuallyPeriodicPath(prefix, period)) == integral
            verdicts.add(integral)
        assert verdicts == {True, False}

    def test_prefix_failure(self):
        # prefix edge already breaks divisibility for odd m
        x = EventuallyPeriodicPath(Path.of([E0]), Path.of([Edge(1, 1, 0)]))
        assert not fixes_path(A1, B1, 1, x)


class TestPhiVertexSum:
    def test_example(self):
        assert phi_vertex_sum(A1, B1, 1, 1, 1) == 1

    def test_m_zero(self):
        assert phi_vertex_sum(A1, B1, 0, 1, 1) == 0

    def test_negative(self):
        assert phi_vertex_sum(A1, B1, -1, 1, 1) == -1

    def test_equals_m_times_b(self):
        rng = random.Random(36)
        for _ in range(60):
            a, b = random_pseudo_free_pair(rng, max_n=4)
            for m in range(-20, 21):
                for v in range(1, a.rows + 1):
                    for w in range(1, a.rows + 1):
                        expected = m * b[v - 1, w - 1] if a[v - 1, w - 1] else 0
                        assert phi_vertex_sum(a, b, m, v, w) == expected


class TestParsing:
    def test_edge_round_trip(self):
        assert parse_edge("e(1,2,3)") == Edge(1, 2, 3)
        assert str(Edge(1, 2, 3)) == "e(1,2,3)"

    def test_path_round_trip(self):
        p = parse_path("e(1,1,0).e(1,1,1)")
        assert p == Path.of([E0, E1])
        assert parse_path(str(p)) == p

    def test_empty_path(self):
        assert parse_path("v(2)") == Path.empty(2)

    def test_rejects_garbage(self):
        with pytest.raises(InputValidationError):
            parse_path("e(1,1)")

    def test_rejects_non_composable(self):
        with pytest.raises(InputValidationError):
            parse_path("e(1,2,0).e(1,2,0)")
