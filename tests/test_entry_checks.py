"""Every public entry that checks the pair keeps raising on each violation
of the standing assumptions (A square, nonnegative and without zero rows,
and B of A's shape), and every entry of the action and the slice algebra
that reads B at an edge refuses B of another shape, in O(1), where it
reads.  These pin the checks that a split of checked entries from
unchecked kernels must keep.  A group refuses a free rank or torsion
factor that is not an int where it is built."""

import pytest

from kep import (
    Edge,
    EventuallyPeriodicPath,
    FGAbelianGroup,
    Graph,
    InputValidationError,
    IntMatrix,
    Operand,
    Path,
    Slice,
    classify,
    compose_slices,
    fixes_path,
    hk_check,
    homology,
    is_pseudo_free,
    kappa_edge,
    kappa_path,
    ktheory,
    limit_route_homology,
    phi_vertex_sum,
    refine_slice,
    sft_homology,
)
from kep.selfsim import kappa_path_preimage

ONES = IntMatrix([[1, 1], [1, 1]])
A_VIOLATIONS = {
    "not-square": (IntMatrix([[1, 1]]), IntMatrix([[1, 1]]), "shape mismatch"),
    "negative-entry": (IntMatrix([[1, -1], [1, 1]]), ONES, "negative entry"),
    "zero-row": (IntMatrix([[1, 1], [0, 0]]), ONES, "zero row"),
}
A2 = IntMatrix([[2, 1], [1, 2]])
VIOLATIONS = {
    **A_VIOLATIONS,
    "b-shape": (A2, IntMatrix([[1]]), "shape mismatch"),
    "b-larger": (A2, IntMatrix([[1] * 3] * 3), "shape mismatch"),
}
SHAPE_VIOLATIONS = {name: VIOLATIONS[name] for name in ("not-square", "b-shape", "b-larger")}

V1 = Path.empty(1)
# Every violation's A has the edge e(1,1,0), so each entry below reads B
# at an edge, not past A's edges.
P1 = Path.of([Edge(1, 1, 0)])
PAIR_ENTRIES = {
    "homology": homology,
    "ktheory": ktheory,
    "limit_route_homology": limit_route_homology,
    "hk_check": hk_check,
    "classify": classify,
    "is_pseudo_free": is_pseudo_free,
    "refine_slice": lambda a, b: refine_slice(a, b, Slice(V1, 0, V1)),
    "Operand": lambda a, b: Operand("katsura", a, b),
}
A_ENTRIES = {
    "Graph": lambda a, b: Graph(a),
    "sft_homology": lambda a, b: sft_homology(a),
    "Operand-sft": lambda a, b: Operand("sft", a),
}
SHAPE_ENTRIES = {
    "kappa_edge": lambda a, b: kappa_edge(a, b, 1, Edge(1, 1, 0)),
    "kappa_path": lambda a, b: kappa_path(a, b, 1, Path.of([Edge(1, 1, 0)])),
    "kappa_path-empty": lambda a, b: kappa_path(a, b, 1, V1),
    "kappa_path_preimage": lambda a, b: kappa_path_preimage(a, b, 1, P1),
    "phi_vertex_sum": lambda a, b: phi_vertex_sum(a, b, 1, 1, 1),
    "fixes_path": lambda a, b: fixes_path(a, b, 1, EventuallyPeriodicPath(V1, P1)),
    "compose_slices-forward": lambda a, b: compose_slices(a, b, Slice(V1, 1, V1), Slice(P1, 0, P1)),
    "compose_slices-backward": lambda a, b: compose_slices(a, b, Slice(P1, 0, P1), Slice(V1, 1, V1)),
}


def assert_refused(entry, violation):
    a, b, assumption = violation
    with pytest.raises(InputValidationError) as info:
        entry(a, b)
    assert info.value.assumption == assumption


@pytest.mark.parametrize("violation", sorted(VIOLATIONS))
@pytest.mark.parametrize("entry", sorted(PAIR_ENTRIES))
def test_pair_entry_refuses(entry, violation):
    assert_refused(PAIR_ENTRIES[entry], VIOLATIONS[violation])


@pytest.mark.parametrize("violation", sorted(A_VIOLATIONS))
@pytest.mark.parametrize("entry", sorted(A_ENTRIES))
def test_a_only_entry_refuses(entry, violation):
    assert_refused(A_ENTRIES[entry], A_VIOLATIONS[violation])


@pytest.mark.parametrize("violation", sorted(SHAPE_VIOLATIONS))
@pytest.mark.parametrize("entry", sorted(SHAPE_ENTRIES))
def test_action_entry_refuses_shapes(entry, violation):
    assert_refused(SHAPE_ENTRIES[entry], SHAPE_VIOLATIONS[violation])


# A float prints as `Z^1.5` or `Z/2.0` (and `Z/2.0` equals `Z/2`), and a
# bool reaches JSON as `true`; `cli._as_int` refuses a bool the same way.
NOT_INT_FIELDS = {
    "float-rank": (1.5, ()),
    "float-factor": (0, (2.0,)),
    "bool-rank": (True, ()),
    "bool-factor": (0, (True,)),
    "string-factor": (0, ("2",)),
}


@pytest.mark.parametrize("fields", sorted(NOT_INT_FIELDS))
def test_group_refuses_fields_that_are_not_int(fields):
    with pytest.raises(TypeError, match="must be int"):
        FGAbelianGroup(*NOT_INT_FIELDS[fields])
