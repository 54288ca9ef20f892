import copy
import pickle
import random

import pytest

from conftest import random_path, random_pseudo_free_pair
from kep import (
    Edge,
    EventuallyPeriodicPath,
    Graph,
    InputValidationError,
    IntMatrix,
    Path,
    Slice,
    fixes_path,
    is_pseudo_free,
    kappa_edge,
    kappa_path,
    phi_vertex_sum,
    refine_slice,
    slice_image_cylinder,
)
from kep.selfsim import kappa_path_preimage, parse_edge, parse_path, path_ending_at, random_walk

A1 = IntMatrix([[2]])
B1 = IntMatrix([[1]])
E0 = Edge(1, 1, 0)
E1 = Edge(1, 1, 1)


class TestGraph:
    def test_single_vertex_two_loops(self):
        g = Graph(A1)
        assert g.edges() == [E0, E1]

    def test_two_by_two(self):
        g = Graph(IntMatrix([[2, 1], [1, 2]]))
        assert g.edge_count() == 6
        assert len(g.out_edges(1)) == 3

    def test_cycle_graph(self):
        g = Graph(IntMatrix([[0, 1], [1, 0]]))
        assert g.edges() == [Edge(1, 2, 0), Edge(2, 1, 0)]


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
            g = Graph(a)
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
        assert kappa_path_preimage(A1, B1, 7, p) == (p, 7)

    @pytest.mark.parametrize("act", [kappa_path, kappa_path_preimage], ids=["forward", "preimage"])
    def test_empty_path_anchor_checked(self, act):
        # The anchor of an empty path is checked like the edges of a nonempty one.
        with pytest.raises(InputValidationError) as info:
            act(A1, B1, 3, Path.empty(5))
        assert (info.value.assumption, str(info.value)) == ("unknown edge", "vertex 5 outside 1..1")

    def test_preimage_inverts(self):
        rng = random.Random(32)
        for _ in range(200):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            p = random_path(g, rng, rng.randint(1, 6))
            m = rng.randint(-10, 10)
            image, carry = kappa_path(a, b, m, p)
            assert kappa_path_preimage(a, b, m, image) == (p, carry)

    def test_grouping_independence(self):
        # Folding the whole path equals folding a prefix and feeding its
        # carry into the suffix, for every split point.
        rng = random.Random(33)
        for _ in range(150):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            p = random_path(g, rng, rng.randint(2, 6))
            m = rng.randint(-15, 15)
            image, carry = kappa_path(a, b, m, p)
            for cut in range(1, len(p)):
                left, right = Path(p.edges[:cut]), Path(p.edges[cut:])
                left_img, left_carry = kappa_path(a, b, m, left)
                right_img, right_carry = kappa_path(a, b, left_carry, right)
                assert left_img.concat(right_img) == image
                assert right_carry == carry


class TestPathInvariants:
    """Paths built without the junction scan equal their validated rebuilds."""

    def test_internal_paths_validate(self):
        rng = random.Random(35)
        for _ in range(200):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            p = random_path(g, rng, rng.randint(0, 4))
            q = random_walk(g, rng, p.range, rng.randint(0, 4))
            for walk in (p, q):
                assert walk == (Path(walk.edges) if walk.edges else Path.empty(walk.range))
            pq = p.concat(q)
            assert pq == (Path(p.edges + q.edges) if pq.edges else Path.empty(p.range))
            rest = pq.tail_after(p)
            assert rest == q
            assert rest == (Path(rest.edges) if rest.edges else Path.empty(pq.range))
            m = rng.randint(-20, 20)
            image, carry = kappa_path(a, b, m, pq)
            preimage, pre_carry = kappa_path_preimage(a, b, m, image)
            assert (preimage, pre_carry) == (pq, carry)
            if pq.edges:
                assert image == Path(image.edges) and preimage == Path(preimage.edges)

    def test_edges_from_any_iterable(self):
        # A list or a generator is stored as a tuple: the path hashes like
        # the tuple-built one, and the slice algebra extends it.
        built = Path((E0,))
        for edges in ([E0], (e for e in [E0])):
            p = Path(edges)
            assert type(p.edges) is tuple
            assert p == built and hash(p) == hash(built)
        p = Path([E0])
        children = refine_slice(A1, B1, Slice(p, 0, p))
        assert children == [Slice(Path((E0, e)), 0, Path((E0, e))) for e in (E0, E1)]

    def test_non_composable_junction_raises(self):
        e12, e11 = Edge(1, 2, 0), Edge(1, 1, 0)
        with pytest.raises(ValueError):
            Path((e12, e11))
        with pytest.raises(ValueError):
            Path.of([e12, e11])
        with pytest.raises(InputValidationError) as info:
            parse_path("e(1,2,0).e(1,1,0)")
        assert info.value.assumption == "path not composable"
        with pytest.raises(ValueError):
            Path.of([e12]).concat(Path.of([e11]))
        with pytest.raises(ValueError):
            Path.empty(2).concat(Path.of([e11]))
        with pytest.raises(ValueError):
            Path.of([e12]).concat(Path.empty(1))

    @pytest.mark.parametrize("edge", [Edge(1, 1, 2), Edge(1, 3, 0), Edge(0, 1, 0), Edge(1, 2, 0)])
    def test_unknown_edge_raises(self, edge):
        a, b = IntMatrix([[2, 0], [1, 1]]), IntMatrix([[1, 0], [1, 1]])
        for fold in (kappa_path, kappa_path_preimage):
            with pytest.raises(InputValidationError) as info:
                fold(a, b, 1, Path.of([edge]))
            assert info.value.assumption == "unknown edge"

    def test_edge_by_index(self):
        g = Graph(IntMatrix([[2, 0, 3], [0, 1, 0], [4, 1, 0]]))
        assert [g.edge(i) for i in range(g.edge_count())] == g.edges()
        for v in g.vertices():
            assert g.out_degree(v) == len(g.out_edges(v))
            assert [g.out_edge(v, i) for i in range(g.out_degree(v))] == g.out_edges(v)
            for index in (-1, g.out_degree(v)):
                with pytest.raises(IndexError):
                    g.out_edge(v, index)
        for index in (-1, g.edge_count()):
            with pytest.raises(IndexError):
                g.edge(index)


class TestPathRecord:
    """A path is the tuple record (edges, vertex): its checks, messages,
    immutability, repr, hash and copies match the frozen dataclass it
    replaced."""

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: Path((E0,), 1), "nonempty paths carry no anchor vertex"),
            (lambda: Path(), "the empty path needs an anchor vertex"),
            (lambda: Path(()), "the empty path needs an anchor vertex"),
            (lambda: Path((Edge(1, 2, 0), E0)), "edges e(1,2,0) and e(1,1,0) are not composable"),
            (lambda: Path.of([]), "use Path.empty for length-zero paths"),
            (lambda: Path.empty(1)._replace(vertex=None), "the empty path needs an anchor vertex"),
            (lambda: Path.of([E0])._replace(vertex=1), "nonempty paths carry no anchor vertex"),
        ],
    )
    def test_constructor_messages(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert info.value.args == (message,)

    @pytest.mark.parametrize(
        ("edge", "message"),
        [
            (Edge(1, 3, 0), "e(1,3,0) has a vertex outside 1..2"),
            (Edge(0, 1, 0), "e(0,1,0) has a vertex outside 1..2"),
            (Edge(1, 1, 2), "e(1,1,2) does not exist (A entry is 2)"),
            (Edge(1, 2, 0), "e(1,2,0) does not exist (A entry is 0)"),
        ],
    )
    def test_edge_check_messages(self, edge, message):
        a, b = IntMatrix([[2, 0], [1, 1]]), IntMatrix([[1, 0], [1, 1]])
        with pytest.raises(InputValidationError) as info:
            kappa_edge(a, b, 1, edge)
        assert str(info.value) == message

    def test_fields_are_read_only(self):
        p = Path.of([E0, E1])
        for name, value in (("edges", ()), ("vertex", 1), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(p, name, value)
        assert p == Path.of([E0, E1])

    def test_repr_hash_and_tuple_equality(self):
        p = Path.of([E0])
        assert repr(p) == "Path(edges=(Edge(source=1, target=1, label=0),), vertex=None)"
        assert repr(Path.empty(3)) == "Path(edges=(), vertex=3)"
        assert hash(p) == hash((p.edges, p.vertex))
        # Like Edge, a path equals the plain tuple of its fields.
        assert p == ((E0,), None) and Path.empty(2) == ((), 2)
        assert p != Path.of([E1]) and Path.empty(1) != Path.empty(2)

    def test_length_counts_edges(self):
        assert len(Path.empty(2)) == 0 and not Path.empty(2)
        assert len(Path.of([E0, E1, E0])) == 3 and Path.of([E0])

    def test_pickle_and_deepcopy_round_trip(self):
        for p in (Path.empty(2), Path.of([E0, E1])):
            pickled = [pickle.loads(pickle.dumps(p, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for copied in [*pickled, copy.deepcopy(p), copy.copy(p)]:
                assert copied == p and type(copied) is Path and hash(copied) == hash(p)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_validates(self, protocol):
        # A record built past the checks pickles, but does not load.
        forged = tuple.__new__(Path, ((Edge(1, 2, 0), E0), None))
        with pytest.raises(ValueError, match="not composable"):
            pickle.loads(pickle.dumps(forged, protocol))


class TestTailAfter:
    """`tail_after` returns the remainder past a prefix, or None when the
    path does not extend it."""

    E12, E21 = Edge(1, 2, 0), Edge(2, 1, 0)

    def test_remainder(self):
        path = Path.of([E0, self.E12, self.E21])
        assert path.tail_after(Path.of([E0])) == Path.of([self.E12, self.E21])
        assert path.tail_after(Path.empty(1)) == path

    def test_equal_paths_leave_the_empty_path_at_the_range(self):
        path = Path.of([E0, self.E12])
        assert path.tail_after(path) == Path.empty(2)
        assert Path.empty(2).tail_after(Path.empty(2)) == Path.empty(2)

    def test_different_source(self):
        assert Path.of([self.E21]).tail_after(Path.empty(1)) is None
        assert Path.empty(2).tail_after(Path.empty(1)) is None

    def test_diverging_edge(self):
        assert Path.of([E0, E1]).tail_after(Path.of([E1])) is None
        assert Path.of([E0, E1]).tail_after(Path.of([E0, E0])) is None

    def test_prefix_longer_than_path(self):
        assert Path.of([E0]).tail_after(Path.of([E0, E1])) is None
        assert Path.empty(1).tail_after(Path.of([E0])) is None


class TestCocycleLaws:
    def test_edge_laws_small_sweep(self):
        rng = random.Random(34)
        for _ in range(30):
            a, b = random_pseudo_free_pair(rng, max_n=3, a_range=(1, 4))
            g = Graph(a)
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
            g = Graph(a)
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
            edges = Graph(a).edges()
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
            g = Graph(a)
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

    def test_every_edge_checked_past_the_first_unfixed(self):
        # kappa_1 moves e(1,1,0), so the fold already knows the answer, but
        # e(1,2,5) is no edge of A (A[1,2] = 1) and must not pass unread.
        a, b = IntMatrix([[2, 1], [1, 2]]), IntMatrix([[1, 1], [1, 1]])
        x = EventuallyPeriodicPath(Path.of([E0, Edge(1, 2, 5)]), Path.of([Edge(2, 2, 0)]))
        with pytest.raises(InputValidationError) as info:
            fixes_path(a, b, 1, x)
        assert info.value.assumption == "unknown edge"


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


A2 = IntMatrix([[2, 1], [0, 3]])
B2 = IntMatrix([[1, 1], [1, 1]])
G2 = Graph(A2)
VERTEX_ENTRIES = {
    "out_edges": lambda v: G2.out_edges(v),
    "out_degree": lambda v: G2.out_degree(v),
    "out_edge": lambda v: G2.out_edge(v, 0),
    "refine_slice": lambda v: refine_slice(A2, B2, Slice(Path.empty(v), 0, Path.empty(v))),
    "phi_vertex_sum-v": lambda v: phi_vertex_sum(A2, B2, 1, v, 2),
    "phi_vertex_sum-w": lambda v: phi_vertex_sum(A2, B2, 1, 2, v),
    "kappa_path-empty": lambda v: kappa_path(A2, B2, 1, Path.empty(v)),
    "random_walk": lambda v: random_walk(G2, random.Random(1), v, 2),
    "random_walk-length-0": lambda v: random_walk(G2, random.Random(1), v, 0),
    "path_ending_at": lambda v: path_ending_at(G2, random.Random(1), v, 2),
}


class TestVertexDoor:
    """Every entry that takes a vertex reads its row of A through one
    checked door: vertex 0 does not read A's last row through a negative
    index, and n + 1 raises no bare IndexError."""

    @pytest.mark.parametrize("vertex", [0, 3])
    @pytest.mark.parametrize("entry", sorted(VERTEX_ENTRIES))
    def test_vertex_outside_raises(self, entry, vertex):
        with pytest.raises(InputValidationError) as info:
            VERTEX_ENTRIES[entry](vertex)
        assert info.value.assumption == "unknown edge"
        assert str(info.value) == f"vertex {vertex} outside 1..2"


class TestIntegerFields:
    """Records and the action take ints, and the records they name, where
    they enter, as `IntMatrix` does for its entries: no float reaches a
    label or a carry, and no bare tuple or list an attribute read."""

    A = IntMatrix([[2, 1], [1, 2]])
    B = IntMatrix([[1, 1], [1, 1]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Path([(1, 1, 0)]),
            lambda: Path([(1, 1, 0), (1, 1, 1)]),
            lambda: Path([Edge(1, 1, 0.5)]),
            lambda: Path.of([E0])._replace(edges=((1, 1, 0),)),
            lambda: Path.empty(1.0),
            lambda: Path.empty("1"),
        ],
        ids=["plain-tuple", "two-plain-tuples", "float-label", "replace", "float-anchor", "str-anchor"],
    )
    def test_path_takes_edges_of_ints_and_an_int_anchor(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "run",
        [
            lambda a, b: kappa_edge(a, b, 1.5, E0),
            lambda a, b: kappa_path(a, b, 1.5, Path.of([E0, Edge(1, 2, 0)])),
            lambda a, b: kappa_path(a, b, 1.5, Path.empty(1)),
            lambda a, b: kappa_path_preimage(a, b, 1.5, Path.of([E0])),
            lambda a, b: phi_vertex_sum(a, b, 1.5, 1, 1),
            lambda a, b: fixes_path(a, b, 1.5, EventuallyPeriodicPath(Path.empty(1), Path.of([E0]))),
        ],
        ids=["kappa_edge", "kappa_path", "kappa_path-empty", "kappa_path_preimage", "phi_vertex_sum", "fixes_path"],
    )
    def test_action_takes_an_int_m(self, run):
        with pytest.raises(TypeError, match="m must be int"):
            run(self.A, self.B)

    @pytest.mark.parametrize("edge", [Edge(1, 1, 0.5), (1, 1, 0)], ids=["float-label", "plain-tuple"])
    def test_kappa_edge_takes_an_edge_of_ints(self, edge):
        with pytest.raises(TypeError, match="Edge of ints"):
            kappa_edge(self.A, self.B, 1, edge)

    @pytest.mark.parametrize(
        ("run", "message"),
        [
            (lambda a, b: kappa_path(a, b, 1, [E0]), "kappa_path takes a Path"),
            (lambda a, b: kappa_path_preimage(a, b, 1, (E0,)), "kappa_path takes a Path"),
            (
                lambda a, b: slice_image_cylinder(a, b, Slice(Path.empty(1), 1, Path.empty(1)), [E0]),
                "takes a Slice and a Path",
            ),
            (lambda a, b: EventuallyPeriodicPath((), Path.of([E0])), "prefix and period must be Paths"),
            (lambda a, b: EventuallyPeriodicPath(Path.empty(1), [E0]), "prefix and period must be Paths"),
            (lambda a, b: fixes_path(a, b, 1, (Path.empty(1), Path.of([E0]))), "takes an EventuallyPeriodicPath"),
        ],
        ids=["kappa_path", "kappa_path_preimage", "slice_image_cylinder", "prefix", "period", "fixes_path"],
    )
    def test_action_takes_its_records(self, run, message):
        with pytest.raises(TypeError, match=message):
            run(self.A, self.B)


class TestActionShapes:
    """The action's entries compare shapes in O(1): a B of another shape
    is refused, not read past or short of A's rows."""

    A = IntMatrix([[2, 1], [1, 2]])

    @pytest.mark.parametrize(
        ("b", "edge"),
        [(IntMatrix([[1] * 3] * 3), Edge(1, 1, 0)), (IntMatrix([[1]]), Edge(2, 2, 0))],
        ids=["b-larger", "b-smaller"],
    )
    def test_b_of_another_shape_raises(self, b, edge):
        for run in (lambda: kappa_edge(self.A, b, 1, edge), lambda: kappa_path(self.A, b, 1, Path.of([edge]))):
            with pytest.raises(InputValidationError) as info:
                run()
            assert info.value.assumption == "shape mismatch"
