"""Every public entry that checks the pair keeps raising on each violation
of the standing assumptions (A square, nonnegative and without zero rows,
and B of A's shape), and the action's entries keep their O(1) shape check.
These pin the checks that a split of checked entries from unchecked
kernels must keep."""

import pytest

from kep import (
    Edge,
    InputValidationError,
    IntMatrix,
    Operand,
    Path,
    Slice,
    classify,
    hk_check,
    homology,
    is_pseudo_free,
    kappa_edge,
    kappa_path,
    ktheory,
    limit_route_homology,
    refine_slice,
    sft_homology,
)

ONES = IntMatrix([[1, 1], [1, 1]])
A_VIOLATIONS = {
    "not-square": (IntMatrix([[1, 1]]), IntMatrix([[1, 1]]), "shape mismatch"),
    "negative-entry": (IntMatrix([[1, -1], [1, 1]]), ONES, "negative entry"),
    "zero-row": (IntMatrix([[1, 1], [0, 0]]), ONES, "zero row"),
}
VIOLATIONS = {**A_VIOLATIONS, "b-shape": (IntMatrix([[2, 1], [1, 2]]), IntMatrix([[1]]), "shape mismatch")}
SHAPE_VIOLATIONS = {name: VIOLATIONS[name] for name in ("not-square", "b-shape")}

V1 = Path.empty(1)
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
    "sft_homology": lambda a, b: sft_homology(a),
    "Operand-sft": lambda a, b: Operand("sft", a),
}
SHAPE_ENTRIES = {
    "kappa_edge": lambda a, b: kappa_edge(a, b, 1, Edge(1, 1, 0)),
    "kappa_path": lambda a, b: kappa_path(a, b, 1, Path.of([Edge(1, 1, 0)])),
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
