"""Each invariant is computed once: the number of Smith forms per command is
pinned, so a second run of either homology route shows up here."""

import json
from collections import Counter

import pytest

import kep.abgroup
import kep.dirlimit
import kep.intmat
from kep import IntMatrix, analyze, compare
from kep.cli import main
from kep.invariants import Operand

A = [[2, 1, 3], [1, 4, 1], [2, 2, 5]]
B = [[1, -1, 2], [3, 1, -2], [1, 1, 1]]
PAIR = Operand("katsura", IntMatrix(A), IntMatrix(B))
SFT = Operand("sft", IntMatrix(A))


@pytest.fixture
def smith_calls(monkeypatch):
    """Counts of `snf` and `smith_diagonal` calls, wherever they are made."""
    calls = Counter()

    def counted(name, real):
        def wrapper(m):
            calls[name] += 1
            return real(m)

        return wrapper

    for name in ("snf", "smith_diagonal"):
        wrapper = counted(name, getattr(kep.intmat, name))
        for module in (kep.intmat, kep.abgroup, kep.dirlimit):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


# (snf, smith_diagonal) per command.  Cokernels take the diagonal alone, and
# an injective T or T - I in the limit route takes no Smith form at all.  The
# sft operand's B = 0 has a nonzero eventual kernel: its kernel and the fixed
# sublattice over it are the two transformed forms.  The exact solve takes
# none; it back-substitutes in the Hermite basis of the fixed sublattice.
@pytest.mark.parametrize(
    ("operand", "expected"), [(PAIR, (0, 4)), (SFT, (2, 5))], ids=["katsura", "sft"]
)
def test_analyze(smith_calls, operand, expected):
    analyze(operand)
    assert (smith_calls["snf"], smith_calls["smith_diagonal"]) == expected


def test_compare(smith_calls):
    # The formula route alone: one Smith diagonal per matrix, no transforms.
    compare(PAIR, SFT)
    assert (smith_calls["snf"], smith_calls["smith_diagonal"]) == (0, 4)


@pytest.mark.parametrize(
    ("doc", "expected"),
    [({"mode": "katsura", "n": 3, "A": A, "B": B}, (0, 4)), ({"mode": "sft", "n": 3, "A": A}, (2, 5))],
    ids=["katsura", "sft"],
)
def test_check(smith_calls, capsys, tmp_path, doc, expected):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    main(["check", str(path), "--trials", "5", "--seed", "0"])
    capsys.readouterr()
    assert (smith_calls["snf"], smith_calls["smith_diagonal"]) == expected
