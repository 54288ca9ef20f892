import random

from conftest import random_pseudo_free_pair
from kep import (
    Edge,
    IntMatrix,
    Path,
    Slice,
    build_graph,
    classify,
    compose_slices,
    invert_slice,
    kappa_path,
    parse_slice,
    refine_slice,
    slice_image_cylinder,
    slices_equal,
)
from kep.selfsim import path_ending_at, random_walk

A1 = IntMatrix([[2]])
B1 = IntMatrix([[1]])
CTX = (A1, B1)
V = Path.empty(1)
E0 = Edge(1, 1, 0)
E1 = Edge(1, 1, 1)
P0 = Path.of([E0])
P1 = Path.of([E1])


def random_slice(rng, graph, ctx, max_len=3, max_m=3):
    beta = random_walk(graph, rng, rng.choice(list(graph.vertices())), rng.randint(0, max_len))
    alpha = path_ending_at(graph, rng, beta.range, max_len)
    return Slice(alpha, rng.randint(-max_m, max_m), beta, ctx)


class TestRefine:
    def test_translation_slice(self):
        children = set(refine_slice(Slice(V, 1, V, CTX)))
        assert children == {Slice(P1, 0, P0, CTX), Slice(P0, 1, P1, CTX)}

    def test_identity_slice(self):
        children = set(refine_slice(Slice(V, 0, V, CTX)))
        assert children == {Slice(P0, 0, P0, CTX), Slice(P1, 0, P1, CTX)}

    def test_child_count_is_out_degree(self):
        rng = random.Random(41)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            s = random_slice(rng, g, (a, b))
            assert len(refine_slice(s)) == len(g.out_edges(s.beta.range))

    def test_children_extend_beta(self):
        rng = random.Random(42)
        for _ in range(50):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            s = random_slice(rng, g, (a, b))
            for child in refine_slice(s):
                assert child.beta.starts_with(s.beta)
                assert len(child.beta) == len(s.beta) + 1


class TestCompose:
    def test_matching_middle(self):
        s1 = Slice(V, 1, V, CTX)
        s2 = Slice(V, 2, V, CTX)
        assert compose_slices(s1, s2) == Slice(V, 3, V, CTX)

    def test_refining_composition(self):
        # Z(v,1,v) . Z(e0,0,e0): refine the left factor along e0; its
        # matching piece is Z(e1,0,e0), and the carries add to 0.
        s1 = Slice(V, 1, V, CTX)
        s2 = Slice(P0, 0, P0, CTX)
        product = compose_slices(s1, s2)
        assert product == Slice(P1, 0, P0, CTX)
        # Semantic cross-check: the composite sends e0.y to e1.y, so its
        # action on a tail must match applying s2 then s1.
        tail = P1
        via_product = slice_image_cylinder(product, tail)
        via_steps = slice_image_cylinder(s1, slice_image_cylinder(s2, tail).tail_after(s1.beta))
        assert via_product == via_steps

    def test_right_refining_composition(self):
        # The left factor's beta is deeper: the right factor refines along
        # the kappa-preimage of the overhang.
        s1 = Slice(P1, 1, P0, CTX)
        s2 = Slice(V, 1, V, CTX)
        product = compose_slices(s1, s2)
        assert product is not None
        assert product.alpha == s1.alpha
        assert product.beta.starts_with(s2.beta)
        assert len(product.beta) == 1

    def test_disjoint_middles(self):
        a = IntMatrix([[2, 1], [1, 2]])
        b = IntMatrix([[1, 1], [1, 1]])
        ctx = (a, b)
        s1 = Slice(Path.empty(1), 0, Path.of([Edge(1, 1, 0)]), ctx)
        s2 = Slice(Path.of([Edge(1, 1, 1)]), 0, Path.empty(1), ctx)
        assert compose_slices(s1, s2) is None

    def test_compose_semantics_random(self):
        # For exact-middle products, the composite's partial map is the
        # composition of the factors' partial maps on every cylinder.
        rng = random.Random(43)
        for _ in range(150):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            ctx = (a, b)
            s1 = random_slice(rng, g, ctx, max_len=2)
            gamma = path_ending_at(g, rng, s1.beta.range, 2)
            s2 = Slice(s1.beta, rng.randint(-3, 3), gamma, ctx)
            product = compose_slices(s1, s2)
            tail = random_walk(g, rng, s2.beta.range, rng.randint(0, 3))
            via_product = slice_image_cylinder(product, tail)
            mid, _ = kappa_path(a, b, s2.m, tail)
            via_steps = slice_image_cylinder(s1, mid)
            assert via_product == via_steps


class TestInvert:
    def test_rule(self):
        s = Slice(P1, 1, P0, CTX)
        assert invert_slice(s) == Slice(P0, -1, P1, CTX)

    def test_involution(self):
        rng = random.Random(44)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            s = random_slice(rng, build_graph(a), (a, b))
            assert invert_slice(invert_slice(s)) == s

    def test_inverse_times_self_is_unit(self):
        rng = random.Random(45)
        for _ in range(150):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            s = random_slice(rng, build_graph(a), (a, b))
            unit = compose_slices(invert_slice(s), s)
            assert unit == Slice(s.beta, 0, s.beta, s.context)


class TestSliceImage:
    def test_zero_translation(self):
        s = Slice(P0, 0, P1, CTX)
        assert slice_image_cylinder(s, P1) == Path.of([E0, E1])

    def test_translation_moves_label(self):
        s = Slice(V, 1, V, CTX)
        assert slice_image_cylinder(s, P1) == P0

    def test_empty_tail(self):
        s = Slice(P0, 5, P1, CTX)
        assert slice_image_cylinder(s, Path.empty(1)) == P0

    def test_respects_refinement(self):
        rng = random.Random(46)
        for _ in range(100):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            s = random_slice(rng, g, (a, b), max_len=2)
            gamma = random_walk(g, rng, s.beta.range, rng.randint(1, 2))
            delta = random_walk(g, rng, gamma.range, rng.randint(1, 2))
            _, carry = kappa_path(a, b, s.m, gamma)
            direct = slice_image_cylinder(s, gamma.concat(delta))
            stepwise = slice_image_cylinder(s, gamma).concat(kappa_path(a, b, carry, delta)[0])
            assert direct == stepwise


class TestLaws:
    def test_associativity_where_defined(self):
        rng = random.Random(47)
        defined = 0
        for _ in range(200):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            ctx = (a, b)
            s1 = random_slice(rng, g, ctx, max_len=2)
            gamma = path_ending_at(g, rng, s1.beta.range, 2)
            s2 = Slice(s1.beta, rng.randint(-3, 3), gamma, ctx)
            delta = path_ending_at(g, rng, s2.beta.range, 2)
            s3 = Slice(s2.beta, rng.randint(-3, 3), delta, ctx)
            for middle in refine_slice(s2):
                s12 = compose_slices(s1, middle)
                s23 = compose_slices(middle, s3)
                lhs = compose_slices(s12, s3) if s12 else None
                rhs = compose_slices(s1, s23) if s23 else None
                assert (lhs is None) == (rhs is None)
                if lhs is not None:
                    defined += 1
                    assert slices_equal(lhs, rhs)
        assert defined > 200

    def test_refinement_coherence(self):
        # Refining both operands one level and composing piecewise equals
        # refining the direct composition.
        rng = random.Random(48)
        for _ in range(200):
            a, b = random_pseudo_free_pair(rng, max_n=3)
            g = build_graph(a)
            ctx = (a, b)
            s1 = random_slice(rng, g, ctx, max_len=2)
            gamma = path_ending_at(g, rng, s1.beta.range, 2)
            s2 = Slice(s1.beta, rng.randint(-3, 3), gamma, ctx)
            direct = compose_slices(s1, s2)
            piecewise = {compose_slices(s1, child) for child in refine_slice(s2)}
            assert piecewise == set(refine_slice(direct))

    def test_slices_equal_sees_refinements(self):
        s = Slice(V, 1, V, CTX)
        child = refine_slice(s)
        assert not slices_equal(s, Slice(V, 0, V, CTX))
        assert slices_equal(s, s)
        assert not slices_equal(child[0], child[1])


class TestParseSlice:
    def test_round_trip(self):
        s = Slice(P1, -2, P0, CTX)
        assert parse_slice(str(s), CTX) == s
        assert parse_slice("Z(v(1)|3|e(1,1,0))", CTX) == Slice(V, 3, P0, CTX)


class TestClassify:
    def test_doubling_pair(self):
        report = classify(A1, B1)
        assert report.pseudo_free is True
        assert report.hausdorff is True
        assert report.effective_sufficient
        assert report.minimal_pi_sufficient
        assert report.condition_O
        assert report.unit_space_compact
        assert not report.principal_sufficient

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
