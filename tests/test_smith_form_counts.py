"""Each invariant is computed once: the number of Smith forms per command is
pinned, so a second run of either homology route shows up here."""

import json

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
def snf_calls(monkeypatch):
    """A list that gains one entry per `snf` call, wherever it is made."""
    calls = []
    real = kep.intmat.snf

    def counted(m):
        calls.append(m)
        return real(m)

    for module in (kep.intmat, kep.abgroup, kep.dirlimit):
        monkeypatch.setattr(module, "snf", counted)
    return calls


@pytest.mark.parametrize(("operand", "expected"), [(PAIR, 8), (SFT, 10)], ids=["katsura", "sft"])
def test_analyze(snf_calls, operand, expected):
    analyze(operand)
    assert len(snf_calls) == expected


def test_compare(snf_calls):
    compare(PAIR, SFT)
    assert len(snf_calls) == 18


@pytest.mark.parametrize(
    ("doc", "expected"),
    [({"mode": "katsura", "n": 3, "A": A, "B": B}, 8), ({"mode": "sft", "n": 3, "A": A}, 10)],
    ids=["katsura", "sft"],
)
def test_check(snf_calls, capsys, tmp_path, doc, expected):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    main(["check", str(path), "--trials", "5", "--seed", "0"])
    capsys.readouterr()
    assert len(snf_calls) == expected
