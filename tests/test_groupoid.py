import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    classifier_oracle,
    random_matrix,
    random_pseudo_free_pair,
    reach_oracle,
    reference_compose,
    reference_random_walk,
    reference_refine,
)
from kep import (
    Edge,
    Graph,
    InputValidationError,
    IntMatrix,
    Path,
    Slice,
    classify,
    compose_slices,
    invert_slice,
    kappa_path,
    refine_slice,
    slice_image_cylinder,
    slices_equal,
)
from kep import groupoid
from kep.groupoid import _reach, _walk_rounds
from kep.selfsim import path_ending_at, random_walk

A1 = IntMatrix([[2]])
B1 = IntMatrix([[1]])
V = Path.empty(1)
E0 = Edge(1, 1, 0)
E1 = Edge(1, 1, 1)
P0 = Path.of([E0])
P1 = Path.of([E1])
# A plain tuple whose ends differ: not a slice, though it unpacks like one.
A_PLAIN = IntMatrix([[2, 1], [1, 2]])
PLAIN = (Path.empty(1), 0, Path.empty(2))


def random_sparse_pair(rng, max_n=5):
    """A with no zero rows on a sparse, often reducible support with many
    single-edge rows; B in -3..3 everywhere, so B vanishes on some edges."""
    n = rng.randint(1, max_n)
    density = rng.choice((0.25, 0.5, 0.8))
    cut = rng.randint(1, n) if rng.random() < 0.4 else n
    while True:
        # rows at or past `cut` have no arc back below it
        a = [
            [rng.choice((1, 1, 2, 3)) if rng.random() < density and not i >= cut > j else 0 for j in range(n)]
            for i in range(n)
        ]
        if all(any(row) for row in a):
            break
    return IntMatrix(a), IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


@pytest.fixture
def tables_read(monkeypatch):
    """The walk tables `classify` takes from `_walk_rounds`, in order."""
    read = []
    rounds = groupoid._walk_rounds

    def counted(a, b):
        for table in rounds(a, b):
            read.append(table)
            yield table

    monkeypatch.setattr(groupoid, "_walk_rounds", counted)
    return read


def random_slice(rng, graph, max_len=3, max_m=3):
    beta = random_walk(graph, rng, rng.choice(list(graph.vertices())), rng.randint(0, max_len))
    alpha = path_ending_at(graph, rng, beta.range, max_len)
    return Slice(alpha, rng.randint(-max_m, max_m), beta)


def assert_built_record(s):
    """A slice the algebra derives is a `Slice` of two `Path`s, and passes
    the checks its construction skipped."""
    assert type(s) is Slice
    assert type(s.alpha) is type(s.beta) is Path
    assert Slice(Path(*s.alpha), s.m, Path(*s.beta)) == s


class TestSliceRecord:
    """A slice is the tuple record (alpha, m, beta): its check, message,
    immutability, repr, hash and copies match the frozen dataclass it
    replaced."""

    S = Slice(P0, 2, V)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Slice(V, 0, Path.empty(2)),
            lambda: Slice(Path.of([Edge(1, 2, 0)]), 0, V),
            lambda: Slice(P0, 1, P1)._replace(beta=Path.empty(2)),
        ],
    )
    def test_constructor_message(self, build):
        with pytest.raises(ValueError) as info:
            build()
        assert info.value.args == ("alpha and beta must end at the same vertex",)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: refine_slice(A_PLAIN, IntMatrix([[1, 1], [1, 1]]), Slice(V, 0.5, V)),
            lambda: Slice(V, "1", V),
            lambda: Slice(P0, 1, P0)._replace(m=1.0),
            lambda: pickle.loads(pickle.dumps(tuple.__new__(Slice, (V, 0.5, V)))),
        ],
        ids=["refine", "str", "replace", "unpickle"],
    )
    def test_m_must_be_int(self, build):
        with pytest.raises(TypeError, match="m must be int"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Slice((), 0, ()),
            lambda: Slice(((), 1), 0, V),
            lambda: Slice(V, 0, ((), 1)),
            lambda: Slice(P0, 1, P0)._replace(alpha=((E0,), None)),
        ],
        ids=["empty-tuples", "plain-alpha", "plain-beta", "replace"],
    )
    def test_alpha_and_beta_must_be_paths(self, build):
        with pytest.raises(TypeError, match="alpha and beta must be Paths"):
            build()

    def test_fields_are_read_only(self):
        for name, value in (("alpha", V), ("m", 0), ("beta", V), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(self.S, name, value)
        assert self.S == Slice(P0, 2, V)

    def test_repr_hash_and_tuple_equality(self):
        s = self.S
        assert repr(s) == (
            "Slice(alpha=Path(edges=(Edge(source=1, target=1, label=0),), vertex=None), "
            "m=2, beta=Path(edges=(), vertex=1))"
        )
        assert str(s) == "Z(e(1,1,0)|2|v(1))"
        assert hash(s) == hash((s.alpha, s.m, s.beta))
        # Like Edge, a slice equals the plain tuple of its fields.
        assert s == (P0, 2, V) and s == (((E0,), None), 2, ((), 1))
        assert s != Slice(P1, 2, V) and s != Slice(P0, 3, V)
        assert len({s, Slice(P0, 2, V), invert_slice(invert_slice(s))}) == 1

    def test_pickle_and_deepcopy_round_trip(self):
        rng = random.Random(41)
        graph = Graph(IntMatrix([[2, 1], [1, 3]]))
        for s in [self.S] + [random_slice(rng, graph) for _ in range(20)]:
            pickled = [pickle.loads(pickle.dumps(s, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for copied in [*pickled, copy.deepcopy(s), copy.copy(s)]:
                assert copied == s and type(copied) is Slice and hash(copied) == hash(s)
                assert type(copied.alpha) is Path and type(copied.beta) is Path

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_validates(self, protocol):
        # A record built past the check pickles, but does not load.
        forged = tuple.__new__(Slice, (V, 0, Path.empty(2)))
        with pytest.raises(ValueError, match="same vertex"):
            pickle.loads(pickle.dumps(forged, protocol))


class TestRefine:
    def test_takes_only_slices(self):
        with pytest.raises(TypeError, match="refine_slice takes a Slice"):
            refine_slice(A_PLAIN, A_PLAIN, PLAIN)

    def test_translation_slice(self):
        children = set(refine_slice(A1, B1, Slice(V, 1, V)))
        assert children == {Slice(P1, 0, P0), Slice(P0, 1, P1)}
        assert str(Slice(P1, -2, P0)) == "Z(e(1,1,1)|-2|e(1,1,0))"
        assert str(Slice(V, 3, P0.concat(P1))) == "Z(v(1)|3|e(1,1,0).e(1,1,1))"

    def test_identity_slice(self):
        children = set(refine_slice(A1, B1, Slice(V, 0, V)))
        assert children == {Slice(P0, 0, P0), Slice(P1, 0, P1)}

    def test_child_count_is_out_degree(self):
        rng = random.Random(41)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            s = random_slice(rng, g)
            assert len(refine_slice(a, b, s)) == len(g.out_edges(s.beta.range))

    def test_matches_definition(self):
        # Negative B and m, empty alpha or beta, and (sparse pairs) B = 0
        # on some edges; children compared in order.
        rng = random.Random(43)
        empty_alpha = empty_beta = 0
        for k in range(300):
            if k % 2:
                a, b = random_pseudo_free_pair(rng, max_n=3, b_range=(-9, 9))
            else:
                a, b = random_sparse_pair(rng, max_n=4)
            s = random_slice(rng, Graph(a), max_len=2, max_m=20)
            empty_alpha += not s.alpha.edges
            empty_beta += not s.beta.edges
            children = refine_slice(a, b, s)
            assert children == reference_refine(a, b, s)
            for child in children:
                assert_built_record(child)
        assert empty_alpha and empty_beta

    @pytest.mark.parametrize("vertex", [0, 2])
    def test_beta_outside_the_vertices_rejected(self, vertex):
        # n = 1: range(beta) = 0 would read A's last row, and n + 1 would
        # index past it.
        end = Path.empty(vertex)
        with pytest.raises(InputValidationError) as info:
            refine_slice(A1, B1, Slice(end, 0, end))
        assert info.value.assumption == "unknown edge"
        assert str(info.value) == f"vertex {vertex} outside 1..1"

    def test_children_extend_beta(self):
        rng = random.Random(42)
        for _ in range(50):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            s = random_slice(rng, g)
            for child in refine_slice(a, b, s):
                assert child.beta.tail_after(s.beta) is not None
                assert len(child.beta) == len(s.beta) + 1


class TestRandomWalk:
    def test_matches_listed_edge_draws(self):
        # Same paths and same generator state, step for step, as drawing
        # from the listed out-edges; row sums up to a few hundred.
        for seed in range(8):
            rng = random.Random(seed)
            a, _ = random_pseudo_free_pair(rng, max_n=4, a_range=(1, 60))
            g = Graph(a)
            fast, slow = random.Random(100 + seed), random.Random(100 + seed)
            for _ in range(40):
                start, length = rng.randint(1, a.rows), rng.randint(0, 6)
                assert random_walk(g, fast, start, length) == reference_random_walk(g, slow, start, length)
                assert fast.getstate() == slow.getstate()

    def test_negative_length_raises(self):
        # The walk loop never runs: the result would be a path with no
        # edges and no anchor, a record `Path` refuses.
        with pytest.raises(ValueError, match="walk length must be nonnegative"):
            random_walk(Graph(A_PLAIN), random.Random(1), 1, -1)


class TestCompose:
    def test_takes_only_slices(self):
        # Unpacked, the tuple would compose with the slice into
        # Z(v(1)|0|v(2)), whose ends differ.
        v2 = Path.empty(2)
        for s1, s2 in ((PLAIN, Slice(v2, 0, v2)), (Slice(V, 0, V), (V, 0, V))):
            with pytest.raises(TypeError, match="compose_slices takes two Slices"):
                compose_slices(A_PLAIN, A_PLAIN, s1, s2)

    def test_matching_middle(self):
        s1 = Slice(V, 1, V)
        s2 = Slice(V, 2, V)
        assert compose_slices(A1, B1, s1, s2) == Slice(V, 3, V)

    def test_matching_middle_random(self):
        # Equal middles compose by adding translations: Z(alpha, m1, beta) .
        # Z(beta, m2, gamma) = Z(alpha, m1 + m2, gamma), whatever beta's length.
        rng = random.Random(49)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            s1 = random_slice(rng, g)
            gamma = path_ending_at(g, rng, s1.beta.range, 3)
            s2 = Slice(s1.beta, rng.randint(-3, 3), gamma)
            assert compose_slices(a, b, s1, s2) == Slice(s1.alpha, s1.m + s2.m, gamma)

    def test_refining_composition(self):
        # Z(v,1,v) . Z(e0,0,e0): refine the left factor along e0; its
        # matching piece is Z(e1,0,e0), and the carries add to 0.
        s1 = Slice(V, 1, V)
        s2 = Slice(P0, 0, P0)
        product = compose_slices(A1, B1, s1, s2)
        assert product == Slice(P1, 0, P0)
        # Semantic cross-check: the composite sends e0.y to e1.y, so its
        # action on a tail must match applying s2 then s1.
        tail = P1
        via_product = slice_image_cylinder(A1, B1, product, tail)
        mid = slice_image_cylinder(A1, B1, s2, tail).tail_after(s1.beta)
        via_steps = slice_image_cylinder(A1, B1, s1, mid)
        assert via_product == via_steps

    def test_right_refining_composition(self):
        # The left factor's beta is deeper: the right factor refines along
        # the kappa-preimage of the overhang.
        s1 = Slice(P1, 1, P0)
        s2 = Slice(V, 1, V)
        product = compose_slices(A1, B1, s1, s2)
        assert product is not None
        assert product.alpha == s1.alpha
        assert product.beta.tail_after(s2.beta) is not None
        assert len(product.beta) == 1

    def test_disjoint_middles(self):
        a = IntMatrix([[2, 1], [1, 2]])
        b = IntMatrix([[1, 1], [1, 1]])
        s1 = Slice(Path.empty(1), 0, Path.of([Edge(1, 1, 0)]))
        s2 = Slice(Path.of([Edge(1, 1, 1)]), 0, Path.empty(1))
        assert compose_slices(a, b, s1, s2) is None

    def test_matches_definition(self):
        # Against the definition through tail_after, kappa_path(_preimage)
        # and concat: forward and backward overhangs, equal and incomparable
        # middles, and empty middles at different vertices; negative B and
        # m, and (sparse pairs) B = 0 on some edges.
        rng = random.Random(50)
        seen = Counter()
        for k in range(800):
            if k % 2:
                a, b = random_pseudo_free_pair(rng, max_n=3, b_range=(-9, 9))
            else:
                a, b = random_sparse_pair(rng, max_n=4)
            g = Graph(a)
            s1 = random_slice(rng, g, max_len=3, max_m=20)
            middle = s1.beta
            shape = rng.choice(("forward", "backward", "equal", "empty", "other"))
            if shape == "forward":
                middle = middle.concat(random_walk(g, rng, middle.range, rng.randint(1, 3)))
            elif shape == "backward" and middle.edges:
                cut = rng.randrange(len(middle))
                middle = Path(middle.edges[:cut]) if cut else Path.empty(middle.source)
            elif shape == "empty":
                v, w = rng.choice(list(g.vertices())), rng.choice(list(g.vertices()))
                s1 = Slice(path_ending_at(g, rng, v, 3), s1.m, Path.empty(v))
                middle = Path.empty(w)
            elif shape == "other":
                middle = random_walk(g, rng, rng.choice(list(g.vertices())), rng.randint(0, 3))
            s2 = Slice(middle, rng.randint(-20, 20), path_ending_at(g, rng, middle.range, 3))
            if s1.beta == s2.alpha:
                seen["equal"] += 1
            elif s2.alpha.tail_after(s1.beta) is not None:
                seen["forward"] += 1
            elif s1.beta.tail_after(s2.alpha) is not None:
                seen["backward"] += 1
            elif not s1.beta.edges and not s2.alpha.edges:
                seen["empty apart"] += 1
            else:
                seen["incomparable"] += 1
            product = compose_slices(a, b, s1, s2)
            assert product == reference_compose(a, b, s1, s2)
            if product is not None:
                assert_built_record(product)
        assert min(seen[key] for key in ("equal", "forward", "backward", "empty apart", "incomparable")) >= 50

    # An empty middle has only its anchor vertex to compare: with the
    # longer middle's first source, or with the other anchor when both are
    # empty.  Rows: s1, s2 and the product; on A_PLAIN with B = 1 the
    # overhang e(1,2,0) keeps its label and carries the translation.
    @pytest.mark.parametrize(
        "s1, s2, want",
        [
            (Slice(V, 1, V), Slice(Path.of([Edge(2, 1, 0)]), 2, Path.of([Edge(2, 1, 0)])), None),
            (
                Slice(V, 1, V),
                Slice(Path.of([Edge(1, 2, 0)]), 2, Path.of([Edge(2, 2, 1)])),
                Slice(Path.of([Edge(1, 2, 0)]), 3, Path.of([Edge(2, 2, 1)])),
            ),
            (Slice(Path.of([Edge(1, 1, 1)]), 1, Path.of([Edge(2, 1, 0)])), Slice(V, 2, V), None),
            (
                Slice(Path.of([Edge(2, 2, 1)]), 1, Path.of([Edge(1, 2, 0)])),
                Slice(V, -3, Path.of([Edge(2, 1, 0)])),
                Slice(Path.of([Edge(2, 2, 1)]), -2, Path.of([Edge(2, 1, 0), Edge(1, 2, 0)])),
            ),
            (Slice(V, 1, V), Slice(Path.empty(2), 2, Path.empty(2)), None),
            (
                Slice(Path.of([Edge(2, 1, 0)]), 1, V),
                Slice(V, 2, Path.of([Edge(1, 1, 1)])),
                Slice(Path.of([Edge(2, 1, 0)]), 3, Path.of([Edge(1, 1, 1)])),
            ),
        ],
        ids=["forward-other-vertex", "forward", "backward-other-vertex", "backward", "empty-apart", "empty-equal"],
    )
    def test_anchor_vertex(self, s1, s2, want):
        b = IntMatrix([[1, 1], [1, 1]])
        product = compose_slices(A_PLAIN, b, s1, s2)
        assert product == want == reference_compose(A_PLAIN, b, s1, s2)
        if want is not None:
            assert_built_record(product)

    @pytest.mark.parametrize("edge", [Edge(1, 1, 5), Edge(1, 2, 0)], ids=["label", "vertex"])
    def test_unknown_overhang_edge(self, edge):
        # Forward and backward overhangs report the missing edge with
        # kappa_path's error.
        overhang = Path.of([edge])
        with pytest.raises(InputValidationError) as expected:
            kappa_path(A1, B1, 1, overhang)
        forward = (Slice(V, 1, V), Slice(overhang, 0, overhang))
        for s1, s2 in (forward, forward[::-1]):
            with pytest.raises(InputValidationError) as info:
                compose_slices(A1, B1, s1, s2)
            assert info.value.assumption == "unknown edge"
            assert str(info.value) == str(expected.value)

    def test_compose_semantics_random(self):
        # For exact-middle products, the composite's partial map is the
        # composition of the factors' partial maps on every cylinder.
        rng = random.Random(43)
        for _ in range(150):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            s1 = random_slice(rng, g, max_len=2)
            gamma = path_ending_at(g, rng, s1.beta.range, 2)
            s2 = Slice(s1.beta, rng.randint(-3, 3), gamma)
            product = compose_slices(a, b, s1, s2)
            tail = random_walk(g, rng, s2.beta.range, rng.randint(0, 3))
            via_product = slice_image_cylinder(a, b, product, tail)
            mid, _ = kappa_path(a, b, s2.m, tail)
            via_steps = slice_image_cylinder(a, b, s1, mid)
            assert via_product == via_steps


class TestInvert:
    def test_takes_only_slices(self):
        with pytest.raises(TypeError, match="invert_slice takes a Slice"):
            invert_slice(PLAIN)

    def test_rule(self):
        s = Slice(P1, 1, P0)
        assert invert_slice(s) == Slice(P0, -1, P1)

    def test_involution(self):
        rng = random.Random(44)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            s = random_slice(rng, Graph(a))
            assert_built_record(invert_slice(s))
            assert invert_slice(invert_slice(s)) == s

    def test_inverse_times_self_is_unit(self):
        rng = random.Random(45)
        for _ in range(150):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            s = random_slice(rng, Graph(a))
            unit = compose_slices(a, b, invert_slice(s), s)
            assert unit == Slice(s.beta, 0, s.beta)


class TestSliceImage:
    def test_takes_only_slices(self):
        with pytest.raises(TypeError, match="slice_image_cylinder takes a Slice"):
            slice_image_cylinder(A_PLAIN, A_PLAIN, PLAIN, Path.empty(2))

    def test_zero_translation(self):
        s = Slice(P0, 0, P1)
        assert slice_image_cylinder(A1, B1, s, P1) == Path.of([E0, E1])

    def test_translation_moves_label(self):
        s = Slice(V, 1, V)
        assert slice_image_cylinder(A1, B1, s, P1) == P0

    def test_empty_tail(self):
        s = Slice(P0, 5, P1)
        assert slice_image_cylinder(A1, B1, s, Path.empty(1)) == P0

    def test_empty_tail_anchor_checked(self):
        s = Slice(Path.empty(5), 0, Path.empty(5))
        with pytest.raises(InputValidationError) as info:
            slice_image_cylinder(A1, B1, s, Path.empty(5))
        assert (info.value.assumption, str(info.value)) == ("unknown edge", "vertex 5 outside 1..1")

    def test_respects_refinement(self):
        rng = random.Random(46)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            s = random_slice(rng, g, max_len=2)
            gamma = random_walk(g, rng, s.beta.range, rng.randint(1, 2))
            delta = random_walk(g, rng, gamma.range, rng.randint(1, 2))
            _, carry = kappa_path(a, b, s.m, gamma)
            direct = slice_image_cylinder(a, b, s, gamma.concat(delta))
            stepwise = slice_image_cylinder(a, b, s, gamma).concat(kappa_path(a, b, carry, delta)[0])
            assert direct == stepwise


class TestLaws:
    def test_associativity_where_defined(self):
        rng = random.Random(47)
        defined = 0
        for _ in range(200):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            s1 = random_slice(rng, g, max_len=2)
            gamma = path_ending_at(g, rng, s1.beta.range, 2)
            s2 = Slice(s1.beta, rng.randint(-3, 3), gamma)
            delta = path_ending_at(g, rng, s2.beta.range, 2)
            s3 = Slice(s2.beta, rng.randint(-3, 3), delta)
            for middle in refine_slice(a, b, s2):
                s12 = compose_slices(a, b, s1, middle)
                s23 = compose_slices(a, b, middle, s3)
                lhs = compose_slices(a, b, s12, s3) if s12 else None
                rhs = compose_slices(a, b, s1, s23) if s23 else None
                assert (lhs is None) == (rhs is None)
                if lhs is not None:
                    defined += 1
                    assert slices_equal(a, b, lhs, rhs)
        assert defined > 200

    def test_refinement_coherence(self):
        # Refining both operands one level and composing piecewise equals
        # refining the direct composition.
        rng = random.Random(48)
        for _ in range(200):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = Graph(a)
            s1 = random_slice(rng, g, max_len=2)
            gamma = path_ending_at(g, rng, s1.beta.range, 2)
            s2 = Slice(s1.beta, rng.randint(-3, 3), gamma)
            direct = compose_slices(a, b, s1, s2)
            piecewise = {compose_slices(a, b, s1, child) for child in refine_slice(a, b, s2)}
            assert piecewise == set(refine_slice(a, b, direct))

    def test_slices_equal_takes_only_slices(self):
        for s1, s2 in ((PLAIN, Slice(V, 0, V)), (Slice(V, 0, V), (V, 0, V))):
            with pytest.raises(TypeError, match="slices_equal takes two Slices"):
                slices_equal(A_PLAIN, A_PLAIN, s1, s2)

    def test_slices_equal_sees_refinements(self):
        s = Slice(V, 1, V)
        child = refine_slice(A1, B1, s)
        assert not slices_equal(A1, B1, s, Slice(V, 0, V))
        assert slices_equal(A1, B1, s, s)
        assert not slices_equal(A1, B1, child[0], child[1])

    def test_slices_equal_across_depths(self):
        # A = [[1]]: the one edge e gives Z(v, m, v) = Z(e, m*B, e) as sets.
        a, b = IntMatrix([[1]]), IntMatrix([[3]])
        e = Path.of([Edge(1, 1, 0)])
        for m in (-2, 0, 5):
            assert slices_equal(a, b, Slice(V, m, V), Slice(e, 3 * m, e))
            assert slices_equal(a, b, Slice(e, 3 * m, e), Slice(V, m, V))
            assert not slices_equal(a, b, Slice(V, m, V), Slice(e, 3 * m + 1, e))

    def test_slices_equal_walks_one_path(self, monkeypatch):
        # A = [[3]]: Z(v, 0, v) refines into three pieces at the first level,
        # so a depth gap of 8 is decided by one refinement, not by the
        # 3^0 + ... + 3^7 = 3280 of the whole refinement tree.
        calls = Counter()

        def counting_refine(a, b, s):
            calls["refine_slice"] += 1
            return refine_slice(a, b, s)

        monkeypatch.setattr(groupoid, "refine_slice", counting_refine)
        a, b = IntMatrix([[3]]), IntMatrix([[1]])
        deep = Path.of([Edge(1, 1, 0)] * 8)
        assert not slices_equal(a, b, Slice(V, 0, V), Slice(deep, 0, deep))
        assert calls["refine_slice"] == 1

        # Every out-degree 1: each level has one piece, one call per level.
        # Z(v(1), m, v(1)) is Z(alpha, 15^4 * m, alpha) for the 2-cycle
        # alpha of length 8, which picks up B[1, 2] * B[2, 1] = 15 per turn.
        calls.clear()
        a, b = IntMatrix([[0, 1], [1, 0]]), IntMatrix([[0, 3], [5, 0]])
        cycle = Path.of([Edge(1, 2, 0), Edge(2, 1, 0)] * 4)
        assert slices_equal(a, b, Slice(V, 2, V), Slice(cycle, 2 * 15**4, cycle))
        assert calls["refine_slice"] == 8

    def test_slices_equal_matches_refinement_definition(self):
        # Equal depth compares fields; other depths refine.  The reference
        # refines both slices to the deeper beta and compares the sets.
        def reference_equal(a, b, s1, s2):
            depth = max(len(s1.beta), len(s2.beta))
            pieces = []
            for s in (s1, s2):
                level = [s]
                while len(level[0].beta) < depth:
                    level = [child for piece in level for child in reference_refine(a, b, piece)]
                pieces.append(set(level))
            return pieces[0] == pieces[1]

        rng = random.Random(52)
        seen = Counter()
        for k in range(400):
            a, b = random_pseudo_free_pair(rng, max_n=3) if k % 2 else random_sparse_pair(rng, max_n=3)
            g = Graph(a)
            s1 = random_slice(rng, g, max_len=2)
            shape = rng.choice(("copy", "shifted", "random", "child"))
            if shape == "copy":
                s2 = Slice(Path(s1.alpha.edges, s1.alpha.vertex), s1.m, Path(s1.beta.edges, s1.beta.vertex))
            elif shape == "shifted":
                s2 = Slice(s1.alpha, s1.m + rng.choice((-1, 1)), s1.beta)
            elif shape == "random":
                s2 = random_slice(rng, g, max_len=2)
            else:
                s2 = rng.choice(refine_slice(a, b, s1))
            expected = reference_equal(a, b, s1, s2)
            same_depth = len(s1.beta) == len(s2.beta)
            seen[same_depth, expected] += 1
            assert slices_equal(a, b, s1, s2) == expected
            assert slices_equal(a, b, s2, s1) == expected
        assert min(seen.values()) >= 10 and len(seen) == 4


class TestClassify:
    def test_doubling_pair(self):
        report = classify(A1, B1)
        assert report.pseudo_free is True
        assert report.hausdorff is True
        assert report.effective_sufficient
        assert report.minimal_pi_sufficient
        assert report.condition_O

    def test_irreducible_2x2(self):
        report = classify(IntMatrix([[2, 1], [1, 2]]), IntMatrix([[1, 1], [1, 1]]))
        assert report.minimal_pi_sufficient

    def test_permutation_not_minimal(self):
        perm = IntMatrix([[0, 1], [1, 0]])
        report = classify(perm, perm)
        assert not report.minimal_pi_sufficient

    def test_pseudo_free_forces_hausdorff(self):
        rng = random.Random(49)
        for _ in range(50):
            a, b = random_pseudo_free_pair(rng, max_n=4)
            report = classify(a, b)
            if report.pseudo_free is True:
                assert report.hausdorff is True

    def test_cycle_without_exit(self):
        # single loop with no second edge: the circuit has no exit
        a = IntMatrix([[1]])
        report = classify(a, IntMatrix([[1]]))
        assert not report.effective_sufficient

    def test_contraction_witness_needed(self):
        # every-cycle-has-exit holds, but all cycle ratios are >= 1
        a = IntMatrix([[2]])
        b = IntMatrix([[2]])
        report = classify(a, b)
        assert not report.effective_sufficient
        assert not report.condition_O

    def test_condition_O(self):
        assert classify(IntMatrix([[3]]), IntMatrix([[2]])).condition_O
        assert not classify(IntMatrix([[3]]), IntMatrix([[3]])).condition_O

    def test_contraction_by_whole_cycle(self):
        # The only cycle is 1 -> 2 -> 1: its edges have ratios 3/2 and 1/3,
        # so no single edge closes up, but the cycle's product is 1/2.
        a, b = IntMatrix([[0, 2], [3, 0]]), IntMatrix([[0, 3], [1, 0]])
        assert classify(a, b).effective_sufficient
        assert classifier_oracle(a, b)[0]

    def test_contraction_unreachable(self):
        # The loop at 1 contracts (1/2); vertex 2 only reaches its own loop (1).
        a, b = IntMatrix([[2, 1], [0, 2]]), IntMatrix([[1, 1], [0, 2]])
        assert not classify(a, b).effective_sufficient
        assert not classifier_oracle(a, b)[0]

    def test_minimality_witness(self):
        # two components; 2 never reaches 1; irreducible and not a permutation;
        # three permutations (irreducible, every out-degree 1); irreducible
        # with one out-degree 2, so not a permutation
        cases = [
            ([[2, 0], [0, 2]], False),
            ([[1, 1], [0, 1]], False),
            ([[0, 2], [1, 0]], True),
            ([[1]], False),
            ([[0, 1], [1, 0]], False),
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], False),
            ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], True),
        ]
        for rows, minimal in cases:
            a = IntMatrix(rows)
            assert classify(a, a).minimal_pi_sufficient is minimal
            assert classifier_oracle(a, a)[1] is minimal

    def test_rejects_negative_a(self):
        with pytest.raises(InputValidationError):
            classify(IntMatrix([[-1]]), IntMatrix([[1]]))

    def test_matches_cycle_oracle(self):
        rng = random.Random(53)
        seen = set()
        for _ in range(1500):
            a, b = random_sparse_pair(rng)
            report = classify(a, b)
            verdicts = (report.effective_sufficient, report.minimal_pi_sufficient)
            assert verdicts == classifier_oracle(a, b), (a, b)
            seen.update(enumerate(verdicts))
        assert seen == {(0, False), (0, True), (1, False), (1, True)}

    @pytest.mark.parametrize(
        "rows_a, rows_b, effective",
        [
            # loop and 3-cycle products exactly 1 (the cycle's unreduced pair
            # is (216, 216)), then the cycle at 3/4
            ([[2, 4, 0], [0, 0, 6], [9, 0, 0]], [[2, 6, 0], [0, 0, 9], [4, 0, 0]], False),
            ([[2, 4, 0], [0, 0, 6], [9, 0, 0]], [[2, 6, 0], [0, 0, 9], [3, 0, 0]], True),
            # loops and the 2-cycle of a full support, every product exactly 1
            ([[1, 2], [3, 1]], [[1, 2], [3, 1]], False),
            # below 1 by less than 2**-200, on a loop and on a 2-cycle whose
            # loops have product exactly 1; as floats both ratios round to 1
            ([[2**200 + 1]], [[2**200]], True),
            ([[1, 2**200 + 1], [1, 1]], [[1, 2**200], [1, 1]], True),
            ([[2**200]], [[2**200 + 1]], False),
            # B = 0 on the support of A: every product is 0 (p = 0)
            ([[2]], [[0]], True),
            ([[1, 1], [1, 1]], [[0, 0], [0, 0]], True),
            ([[1, 1], [0, 1]], [[0, 0], [0, 0]], False),
        ],
    )
    def test_contraction_boundaries(self, rows_a, rows_b, effective):
        a, b = IntMatrix(rows_a), IntMatrix(rows_b)
        report = classify(a, b)
        assert report.effective_sufficient is effective
        assert (report.effective_sufficient, report.minimal_pi_sufficient) == classifier_oracle(a, b)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("last_b, effective", [(1, True), (4, False)])
    def test_hamiltonian_contraction_either_side_of_a_round(self, n, last_b, effective, tables_read):
        # n = 4 takes two squaring rounds (walks of up to 4 edges), n = 5
        # three (up to 8).  Loops have product 1; the only other cycle runs
        # through all n vertices, and each of its edges has ratio 3/2 except
        # the last, 1/9 or 4/9, so it contracts exactly when last_b = 1.
        # That cycle shows only in the last table, so both cases read all.
        rows_a = [[1 if j == i else 2 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        rows_a[-1][0] = 9
        rows_b = [[1 if j == i else 3 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        rows_b[-1][0] = last_b
        a, b = IntMatrix(rows_a), IntMatrix(rows_b)
        report = classify(a, b)
        assert report.effective_sufficient is effective
        assert len(tables_read) == (n - 1).bit_length() + 1
        assert (report.effective_sufficient, report.minimal_pi_sufficient) == classifier_oracle(a, b)

    def test_full_support_stops_at_the_one_edge_table(self, tables_read):
        # Every vertex reaches every vertex, so one contracting loop
        # certifies contraction everywhere before any squaring.
        rng = random.Random(64)
        a = random_matrix(rng, 64, 64, 1, 9)
        b = IntMatrix([[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(64)] for _ in range(64)])
        assert any(abs(b[j, j]) < a[j, j] for j in range(64))
        assert classify(a, b).effective_sufficient
        assert len(tables_read) == 1

    def test_stops_at_the_round_that_shows_a_two_edge_cycle(self, tables_read):
        # Strongly connected on 5 vertices with no loop: the cycle
        # 0 -> 1 -> 2 -> 3 -> 4 -> 0 has product 3, the 2-cycle 0 -> 1 -> 0
        # 3/4.  Walks of up to 2 edges show the 2-cycle: 2 of the 4 tables.
        n = 5
        rows_a = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
        rows_b = [list(row) for row in rows_a]
        rows_a[1][0], rows_b[1][0] = 4, 1
        rows_b[0][1] = 3
        a, b = IntMatrix(rows_a), IntMatrix(rows_b)
        report = classify(a, b)
        assert report.effective_sufficient
        assert len(tables_read) == 2
        assert (report.effective_sufficient, report.minimal_pi_sufficient) == classifier_oracle(a, b)

    def test_full_support_matches_cycle_oracle(self, tables_read):
        rng = random.Random(57)
        stopped_at_once = 0
        for _ in range(120):
            n = rng.randint(1, 6)
            a, b = random_matrix(rng, n, n, 1, 9), random_matrix(rng, n, n, -3, 3)
            tables_read.clear()
            report = classify(a, b)
            assert (report.effective_sufficient, report.minimal_pi_sufficient) == classifier_oracle(a, b), (a, b)
            if any(abs(b[j, j]) < a[j, j] for j in range(n)):
                assert len(tables_read) == 1
                stopped_at_once += 1
        assert stopped_at_once >= 60

    def test_reach_matches_depth_first_search(self):
        # A lone loop; a vertex with no cycle through it; a reducible pair.
        cases = [IntMatrix([[1]]), IntMatrix([[0, 1], [0, 1]]), IntMatrix([[1, 1], [0, 2]])]
        rng = random.Random(56)
        cases += [random_sparse_pair(rng, max_n=6)[0] for _ in range(400)]
        seen = Counter()
        for a in cases:
            reach = reach_oracle(a)
            assert _reach(a) == [sum(1 << j for j in row) for row in reach], a
            seen["n = 1"] += a.rows == 1
            seen["reducible"] += any(len(row | {i}) < a.rows for i, row in enumerate(reach))
            seen["vertex on no cycle"] += any(i not in row for i, row in enumerate(reach))
        assert min(seen.values()) >= 10

    def test_walk_rounds_never_raise_or_drop_an_entry(self):
        rng = random.Random(55)
        fell = appeared = 0
        for _ in range(300):
            a, b = random_sparse_pair(rng)
            tables = [[None if w is None else Fraction(*w) for row in t for w in row] for t in _walk_rounds(a, b)]
            assert len(tables) == (a.rows - 1).bit_length() + 1
            for before, after in zip(tables, tables[1:]):
                for x, y in zip(before, after):
                    assert x is None or (y is not None and y <= x), (a, b)
                    fell += x is not None and y < x
                    appeared += x is None and y is not None
        assert fell and appeared

    def test_walk_closure_is_least_walk_product(self):
        def least(x, y):
            return y if x is None or (y is not None and y < x) else x

        rng = random.Random(54)
        for _ in range(200):
            a, b = random_sparse_pair(rng, max_n=4)
            n = a.rows
            step = [[Fraction(abs(b[i, j]), a[i, j]) if a[i, j] else None for j in range(n)] for i in range(n)]
            # exact[i][j]: least product over walks of exactly t edges, for
            # t = 1..L with L the least power of two >= n; best: over 1..t
            exact, best = step, step
            for _ in range((1 << (n - 1).bit_length()) - 1):
                longer = [[None] * n for _ in range(n)]
                for i, k, j in itertools.product(range(n), repeat=3):
                    if exact[i][k] is not None and step[k][j] is not None:
                        longer[i][j] = least(longer[i][j], exact[i][k] * step[k][j])
                exact = longer
                best = [[least(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(best, exact)]
            # the library keeps unreduced pairs (p, q), q > 0; compare values
            *_, last = _walk_rounds(a, b)
            closure = [[None if w is None else Fraction(*w) for w in row] for row in last]
            assert closure == best
