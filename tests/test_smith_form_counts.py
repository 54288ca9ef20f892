"""Each invariant is computed once: the number of Smith forms, determinants,
adjugate gcds, integer kernels and ranks per command is pinned, so a second
run of either homology route shows up here, and so are the number of
derived groups (`direct_sum`) and of slice products `check` composes."""

import json
from collections import Counter

import pytest

import kep.abgroup
import kep.cli
import kep.dirlimit
import kep.intmat
import kep.invariants
from kep import IntMatrix, analyze, compare
from kep.cli import main
from kep.invariants import Operand

A = [[2, 1, 3], [1, 4, 1], [2, 2, 5]]
B = [[1, -1, 2], [3, 1, -2], [1, 1, 1]]
PAIR = Operand("katsura", IntMatrix(A), IntMatrix(B))
SFT = Operand("sft", IntMatrix(A))
SINGULAR = Operand("katsura", IntMatrix(A), IntMatrix.identity(3))
COUNTED = ("snf", "smith_diagonal", "det_smith_diagonal", "det", "det_adjugate_gcd", "kernel_basis", "rank")


@pytest.fixture
def smith_calls(monkeypatch):
    """Counts of the `COUNTED` calls, wherever they are made, in that order."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in COUNTED:
        wrapper = counted(name, getattr(kep.intmat, name))
        for module in (kep.intmat, kep.abgroup, kep.dirlimit, kep.invariants):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return lambda: tuple(calls[name] for name in COUNTED)


# (snf, smith_diagonal, det_smith_diagonal, det, det_adjugate_gcd,
# kernel_basis, rank) per command.  The formula route takes one
# `det_smith_diagonal` of I - A and one of I - B, each a determinant and a
# Smith diagonal from one Bareiss pass, so it runs no `det`; `analyze`
# reports those same determinants.  (Before, each matrix took a `det` and,
# where that was nonzero, a diagonal modulo it: the `det` column read 2 per
# route run, and this column counts the one call per matrix that replaced
# both.)  The limit route takes one Gauss-Jordan `det_adjugate_gcd` of each
# 1 - T, and `smith_diagonal` only where 1 - T is singular or its adjugate's
# entries share a factor: here 1 - Aᵗ has |det| 4 and adjugate gcd 2, so it
# falls back, while 1 - Bᵗ has |det| 8 and gcd 1, so its cokernel is Z/8
# with no Smith form.  The kernel of 1 - shift is the free part of that
# cokernel, so no rank runs; the route takes no eventual kernel, so no
# `kernel_basis` runs.  The sft operand's nilpotent B = 0 has 1 - Bᵗ = I,
# of det 1 and cyclic.  The singular operand's B = I makes I - B = 0,
# whose `det_smith_diagonal` finds det 0 and runs `smith_diagonal` on it;
# the limit route runs it on 1 - Bᵗ = 0, whose kernel Z^3 is again the
# free part of its cokernel, with no rank.
KATSURA = (0, 1, 2, 0, 2, 0, 0)
SFT_COUNTS = (0, 1, 2, 0, 2, 0, 0)
SINGULAR_COUNTS = (0, 3, 2, 0, 2, 0, 0)


@pytest.mark.parametrize(
    ("operand", "expected"),
    [(PAIR, KATSURA), (SFT, SFT_COUNTS), (SINGULAR, SINGULAR_COUNTS)],
    ids=["katsura", "sft", "singular"],
)
def test_analyze(smith_calls, operand, expected):
    analyze(operand)
    assert smith_calls() == expected


def test_compare(smith_calls):
    # The formula route alone: one determinant with its diagonal per
    # matrix, no transforms.
    compare(PAIR, SFT)
    assert smith_calls() == (0, 0, 4, 0, 0, 0, 0)


@pytest.mark.parametrize(
    ("doc", "expected"),
    [
        ({"mode": "katsura", "n": 3, "A": A, "B": B}, KATSURA),
        ({"mode": "sft", "n": 3, "A": A}, SFT_COUNTS),
        ({"mode": "katsura", "n": 3, "A": A, "B": IntMatrix.identity(3).to_lists()}, SINGULAR_COUNTS),
    ],
    ids=["katsura", "sft", "singular"],
)
def test_check(smith_calls, capsys, tmp_path, doc, expected):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    main(["check", str(path), "--trials", "5", "--seed", "0"])
    capsys.readouterr()
    assert smith_calls() == expected


def test_realize(smith_calls, capsys):
    # The realized pair (diag(4, 2), diag(2, 6)) is verified by the one
    # `analyze` that is printed: the same counts as analyzing it.  Both
    # limit cokernels, Z/3 and Z/5, are cyclic, so no eventual kernel runs.
    main(["realize", "--rank", "0", "--t0", "3", "--t1", "5"])
    capsys.readouterr()
    assert smith_calls() == (0, 0, 2, 0, 2, 0, 0)


@pytest.fixture
def sums_formed(monkeypatch):
    """The number of `direct_sum` calls, wherever they are made."""
    calls = 0
    real = kep.abgroup.direct_sum

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    for module in (kep.abgroup, kep.invariants):
        monkeypatch.setattr(module, "direct_sum", counted)
    return lambda: calls


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "pair.json"],
        ["compare", "pair.json", "sft.json"],
        ["check", "pair.json", "--trials", "5", "--seed", "0"],
        ["realize", "--rank", "0", "--t0", "3", "--t1", "5"],
    ],
    ids=["analyze", "compare", "check", "realize"],
)
def test_each_derived_group_is_formed_once(sums_formed, capsys, tmp_path, monkeypatch, args):
    # Each homology route forms H1 = ker ⊕ coker once, and each resulting
    # HomologyTuple forms H0 ⊕ H2 once, on construction; the JSON reads
    # them.  Two tuples per command: both routes of one pair, or the formula
    # route of two operands.
    (tmp_path / "pair.json").write_text(json.dumps({"mode": "katsura", "n": 3, "A": A, "B": B}))
    (tmp_path / "sft.json").write_text(json.dumps({"mode": "sft", "n": 3, "A": A}))
    monkeypatch.chdir(tmp_path)
    main(args)
    capsys.readouterr()
    assert sums_formed() == 4


def test_check_composes_each_product_once(monkeypatch, capsys, tmp_path):
    # Per trial: s1^-1.s1, s1.s2, one s1.child per child of s2 (which
    # `refine_compose_coherence` and `associativity` share), and three more
    # products per child for `associativity`.  The 5 trials draw 39 children.
    calls = 0
    real = kep.cli.compose_slices

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(kep.cli, "compose_slices", counted)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"mode": "katsura", "n": 3, "A": A, "B": B}))
    main(["check", str(path), "--trials", "5", "--seed", "0"])
    capsys.readouterr()
    assert calls == 5 * 2 + 39 * 4
