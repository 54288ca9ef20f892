import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kep import cli, invariants
from kep.abgroup import FGAbelianGroup, direct_sum
from kep.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ParseError,
    main,
    parse_input,
)
from kep.errors import InputValidationError, InternalError
from kep.intmat import IntMatrix
from kep.invariants import REALIZE_MAX_BLOCKS, HomologyTuple, Operand

PAIR_DOC = '{"mode":"katsura","n":1,"A":[[2]],"B":[[1]]}'
SFT_DOC = '{"mode":"sft","n":2,"A":[[2,1],[1,2]]}'


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(PAIR_DOC)
    return str(path)


@pytest.fixture
def sft_file(tmp_path):
    path = tmp_path / "sft.json"
    path.write_text(SFT_DOC)
    return str(path)


@pytest.fixture(autouse=True)
def writer_matches_json(monkeypatch):
    """Every payload a test here emits, the golden and error cases among
    them, must come out as `json.dumps(indent=2)` writes it."""
    write = cli._write_json

    def checked(stream, payload):
        write(stream, payload)
        assert cli._json_text(payload) == json.dumps(payload, indent=2, ensure_ascii=False)

    monkeypatch.setattr(cli, "_write_json", checked)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def usage_error(capsys, argv):
    """Runs a request that must fail as a usage error; returns the message."""
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "usage"
    return err["message"]


class TestParseInput:
    def test_valid_pair(self):
        doc = parse_input(PAIR_DOC)
        assert doc.mode == "katsura" and doc.a.rows == 1
        assert doc.a[0, 0] == 2 and doc.b[0, 0] == 1

    def test_valid_sft(self):
        doc = parse_input(SFT_DOC)
        assert doc.mode == "sft" and doc.b is None

    def test_string_integers_accepted(self):
        doc = parse_input('{"mode":"katsura","n":1,"A":[["2"]],"B":[["-1"]]}')
        assert doc.a[0, 0] == 2 and doc.b[0, 0] == -1

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_input("{not json")

    def test_missing_b(self):
        with pytest.raises(ParseError):
            parse_input('{"mode":"katsura","n":1,"A":[[2]]}')

    def test_sft_with_b_rejected(self):
        with pytest.raises(InputValidationError):
            parse_input('{"mode":"sft","n":1,"A":[[2]],"B":[[1]]}')

    @pytest.mark.parametrize(
        "doc",
        [
            '{"mode":"katsura","n":"\u0662","A":[[2,1],[1,2]],"B":[[1,1],[1,1]]}',
            '{"mode":"katsura","n":1,"A":[["1_0"]],"B":[[1]]}',
            '{"mode":"katsura","n":1,"A":[[" +1 "]],"B":[[1]]}',
        ],
        ids=["arabic-indic-n", "underscore-entry", "plus-and-spaces-entry"],
    )
    def test_integers_are_ascii_decimal(self, doc):
        # `int` alone reads these as 2, 10 and 1.
        with pytest.raises(ParseError):
            parse_input(doc)

    @pytest.mark.parametrize(
        ("a", "message"),
        [
            ('[[1,"x"],[1,1]]', "A[1][2]: not a decimal integer: 'x'"),
            ("[[1,1],[true,1]]", "A[2][1] must be an integer"),
            ('[[1,1],[1,"1.5"]]', "A[2][2]: not a decimal integer: '1.5'"),
        ],
        ids=["letter", "bool", "decimal-point"],
    )
    def test_bad_entry_named_by_row_and_column(self, a, message):
        with pytest.raises(ParseError) as info:
            parse_input('{"mode":"katsura","n":2,"A":' + a + ',"B":[[1,1],[1,1]]}')
        assert str(info.value) == message

    def test_zero_row_named(self):
        with pytest.raises(InputValidationError) as info:
            parse_input('{"mode":"katsura","n":1,"A":[[0]],"B":[[0]]}')
        assert info.value.assumption == "zero row"

    def test_negative_entry_named(self):
        with pytest.raises(InputValidationError) as info:
            parse_input('{"mode":"katsura","n":2,"A":[[1,0],[-1,1]],"B":[[1,0],[1,1]]}')
        assert info.value.assumption == "negative entry"

    def test_wrong_shape_named(self):
        with pytest.raises(InputValidationError) as info:
            parse_input('{"mode":"katsura","n":2,"A":[[2]],"B":[[1]]}')
        assert info.value.assumption == "shape mismatch"

    def test_ragged_row_named(self):
        with pytest.raises(InputValidationError) as info:
            parse_input('{"mode":"katsura","n":2,"A":[[1,1],[1]],"B":[[1,1],[1,1]]}')
        assert info.value.assumption == "shape mismatch"

    def test_rejects_zero_row(self):
        with pytest.raises(InputValidationError):
            parse_input('{"mode":"sft","n":2,"A":[[0,0],[1,1]]}')

    def test_rejects_negative(self):
        with pytest.raises(InputValidationError):
            parse_input('{"mode":"sft","n":2,"A":[[1,-1],[1,1]]}')


class TestAnalyze:
    def test_doubling_pair_report(self, capsys, pair_file):
        code, doc = run_json(capsys, ["analyze", pair_file])
        assert code == EXIT_OK
        assert doc["H"] == ["0", "Z", "Z", "0"]
        assert doc["K"] == ["Z", "Z"]
        assert doc["hk_ok"] is True
        assert doc["oracle_ok"] is True
        assert doc["schema_version"] == 2
        assert doc["input"]["A"] == [[2]]
        assert doc["det"] == {"I_minus_A": -1, "I_minus_B": 0}

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(PAIR_DOC))
        code, doc = run_json(capsys, ["analyze", "-"])
        assert code == EXIT_OK and doc["K"] == ["Z", "Z"]

    def test_deterministic_output(self, capsys, pair_file):
        main(["analyze", pair_file])
        first = capsys.readouterr().out
        main(["analyze", pair_file])
        second = capsys.readouterr().out
        assert first == second

    def test_big_integers_serialized_as_strings(self, capsys, tmp_path):
        big = 10**40
        doc = {"mode": "katsura", "n": 1, "A": [[big]], "B": [[1]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, ["analyze", str(path)])
        assert code == EXIT_OK
        assert report["input"]["A"] == [[str(big)]]
        assert report["det"]["I_minus_A"] == str(1 - big)
        # coker(1 - big) torsion factor also exceeds 53 bits
        assert report["H_structured"][0]["torsion"] == [str(big - 1)]

    # The error reports of failed standing assumptions, byte for byte as
    # recorded while `parse_input` still ran its own check on A.
    def test_exit_3_zero_row(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode":"katsura","n":1,"A":[[0]],"B":[[0]]}')
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            '{\n  "error": {\n    "exit_code": 3,\n    "assumption": "zero row",\n'
            '    "message": "A row 1 is identically zero"\n  }\n}\n'
        )

    def test_exit_3_negative_entry(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode":"katsura","n":2,"A":[[1,0],[-1,1]],"B":[[1,0],[1,1]]}')
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            '{\n  "error": {\n    "exit_code": 3,\n    "assumption": "negative entry",\n'
            '    "message": "A row 2 has a negative entry"\n  }\n}\n'
        )

    def test_exit_2_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert main(["analyze", str(path)]) == EXIT_PARSE

    def test_exit_2_deeply_nested(self, capsys, tmp_path):
        # json.loads raises RecursionError, not ValueError, on deep nesting.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main(["analyze", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "parse"

    def test_exit_2_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/nowhere.json"]) == EXIT_PARSE

    def test_exit_2_directory(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path)]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "parse"

    def test_exit_2_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"mode":"sft","n":1,"A":[[2]],"note":"\xe9"}')
        assert main(["analyze", str(path)]) == EXIT_PARSE
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "parse"

    def test_exit_2_oversized_number_literal(self, capsys, tmp_path):
        # json.loads refuses an int literal beyond Python's digit limit.
        path = tmp_path / "big.json"
        path.write_text('{"mode":"katsura","n":1,"A":[[' + "9" * 4400 + ']],"B":[[1]]}')
        assert main(["analyze", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "parse"

    def test_exit_2_oversized_string_entry(self, capsys, tmp_path):
        # A decimal string beyond the digit limit is named by its entry and
        # reported by the limit, without echoing its digits.
        path = tmp_path / "big.json"
        path.write_text('{"mode":"katsura","n":2,"A":[[1,"' + "9" * 5000 + '"],[1,1]],"B":[[1,1],[1,1]]}')
        assert main(["analyze", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "parse"
        assert err["message"].startswith("A[1][2]: ")
        assert f"({sys.get_int_max_str_digits()}" in err["message"]
        assert "9" * 50 not in err["message"]

    def test_exit_2_long_non_decimal_entry(self, capsys, tmp_path):
        # A rejected entry is quoted by a bounded prefix and its length.
        path = tmp_path / "long.json"
        path.write_text('{"mode":"katsura","n":2,"A":[["' + "x" * 100000 + '",1],[1,1]],"B":[[1,1],[1,1]]}')
        assert main(["analyze", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 1024
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "parse"
        assert err["message"] == f"A[1][1]: not a decimal integer: {'x' * 40!r}... (100000 characters)"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"mode":"katsura","n":1,"A":[[2]],"B":[[1]],"A":[[3]]}', "'A'"),
            ('{"mode":"sft","mode":"sft","n":1,"A":[[2]]}', "'mode'"),
            ('{"mode":"sft","n":1,"A":[[2]],"note":{"' + "k" * 100 + '":1,"' + "k" * 100 + '":2}}', f"{'k' * 40!r}... (100 characters)"),
        ],
    )
    def test_exit_2_repeated_key(self, capsys, tmp_path, text, key):
        # The last value of a repeated key is not silently kept, at any depth.
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "parse"
        assert err["message"] == f"malformed JSON: repeated key {key}"

    def test_exit_3_oversized_output_integer(self, capsys, tmp_path):
        # Valid input whose torsion factor and det(I - A) have about 4400
        # digits: more than Python converts to text.
        path = tmp_path / "big.json"
        a = [["9" * 2200, "0"], ["0", "8" * 2200]]
        path.write_text(json.dumps({"mode": "katsura", "n": 2, "A": a, "B": [[1, 0], [0, 1]]}))
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_VALIDATION
        assert err["assumption"] == "output digit limit"
        assert "4300" in err["message"]

    def test_large_entry_golden(self, capsys, tmp_path):
        # A seeded n=4 pair with 1024-bit entries.  The sha256 of stdout was
        # recorded while every cokernel and kernel still carried the Smith
        # transforms U and V.
        rng = random.Random(1024)

        def entry():
            return rng.getrandbits(1023) | 1 << 1023

        a = [[entry() for _ in range(4)] for _ in range(4)]
        b = [[rng.choice((1, -1)) * entry() for _ in range(4)] for _ in range(4)]
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"mode": "katsura", "n": 4, "A": a, "B": b}))
        assert main(["analyze", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e886c2ecc0d195618735e2eba7bd6ce17a48460844367bb81cab65b14f980069"
        )

    def test_exit_2_unknown_command(self, capsys):
        message = usage_error(capsys, ["frobnicate"])
        assert message.startswith("argument command: invalid choice: 'frobnicate'")

    def test_exit_2_no_command(self, capsys):
        assert usage_error(capsys, []) == "the following arguments are required: command"

    def test_exit_2_missing_file_argument(self, capsys):
        assert usage_error(capsys, ["analyze"]) == "the following arguments are required: file"

    def test_exit_4_internal_invariant(self, capsys, monkeypatch, pair_file):
        def broken(operand):
            raise InternalError("fixed-point quotient acquired torsion")

        monkeypatch.setattr("kep.cli.analyze", broken)
        assert main(["analyze", pair_file]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_INTERNAL
        assert err["assumption"] == "internal invariant"
        assert err["message"] == "fixed-point quotient acquired torsion"


class TestCompare:
    def test_headline_comparison(self, capsys, pair_file, sft_file):
        code, doc = run_json(capsys, ["compare", pair_file, sft_file])
        assert code == EXIT_OK
        assert doc["distinguished"] is True
        assert doc["k_theory_equal"] is True
        assert doc["homology_isomorphic"] == [False, True, False, True]
        assert doc["verdict"] == "distinguished (not Kakutani equivalent)"

    def test_self_compare(self, capsys, pair_file):
        code, doc = run_json(capsys, ["compare", pair_file, pair_file])
        assert code == EXIT_OK
        assert doc["distinguished"] is False
        assert doc["verdict"] == "not distinguished by these invariants"

    # sha256 of the full stdout, recorded while `compare` still ran a full
    # `analyze` on each operand.  Both are inputs the benchmark never draws:
    # a formula-only pair (B nonzero off the support of A) against an sft
    # operand, and a pair whose det(I - A) exceeds 2**53 (printed as a
    # string) against itself.
    @pytest.mark.parametrize(
        "doc1, doc2, digest",
        [
            (
                '{"mode":"katsura","n":2,"A":[[2,0],[1,2]],"B":[[1,5],[1,1]]}',
                '{"mode":"sft","n":3,"A":[[2,1,0],[0,1,3],[1,0,2]]}',
                "8dc92c43bb18304c1d2d1a1f184e01228d8b74ae36a2f0155c24dac67e4687f2",
            ),
            (
                '{"mode":"katsura","n":2,"A":[[1000000007,3],[5,999999937]],"B":[[2,-1],[1,3]]}',
                '{"mode":"katsura","n":2,"A":[[1000000007,3],[5,999999937]],"B":[[2,-1],[1,3]]}',
                "9760ef8681a8f295af97420aa02a3bf86c6c624b6a3416bfb3b95b1108335b09",
            ),
        ],
        ids=["formula_only_vs_sft", "det_beyond_2_53_self"],
    )
    def test_golden_output(self, capsys, tmp_path, doc1, doc2, digest):
        paths = []
        for i, doc in enumerate((doc1, doc2)):
            path = tmp_path / f"in{i}.json"
            path.write_text(doc)
            paths.append(str(path))
        assert main(["compare", *paths]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_formula_route_only(self, capsys, monkeypatch, pair_file, sft_file):
        # A comparison reads homology and determinants alone: neither the
        # classifier, the limit route nor the supports check may run.
        def forbidden(*args):
            raise AssertionError("compare ran more than the formula route")

        for name in ("analyze", "classify", "limit_route_homology", "supports_match"):
            monkeypatch.setattr(invariants, name, forbidden)
        assert invariants.compare(parse_input(PAIR_DOC), parse_input(SFT_DOC)).distinguished
        code, doc = run_json(capsys, ["compare", pair_file, sft_file])
        assert code == EXIT_OK and doc["distinguished"] is True


class TestKappa:
    def test_path_action(self, capsys, pair_file):
        code, doc = run_json(
            capsys, ["kappa", pair_file, "--m", "1", "--path", "e(1,1,1).e(1,1,1)"]
        )
        assert code == EXIT_OK
        assert doc["kappa"] == "e(1,1,0).e(1,1,0)"
        assert doc["phi"] == 1

    def test_empty_path(self, capsys, pair_file):
        code, doc = run_json(capsys, ["kappa", pair_file, "--m", "5", "--path", "v(1)"])
        assert code == EXIT_OK
        assert doc["kappa"] == "v(1)" and doc["phi"] == 5

    def test_sft_mode_rejected(self, capsys, sft_file):
        assert main(["kappa", sft_file, "--m", "1", "--path", "v(1)"]) == EXIT_VALIDATION

    def test_unknown_edge(self, capsys, pair_file):
        assert (
            main(["kappa", pair_file, "--m", "1", "--path", "e(1,1,5)"]) == EXIT_VALIDATION
        )

    def test_bad_syntax(self, capsys, pair_file):
        assert main(["kappa", pair_file, "--m", "1", "--path", "zzz"]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        ("path", "message"),
        [
            ("v(9)", "vertex 9 outside 1..1"),
            ("e(1,1,5)", "e(1,1,5) does not exist (A entry is 2)"),
            ("e(1,1,0).e(1,2,0)", "e(1,2,0) has a vertex outside 1..1"),
        ],
        ids=["vertex", "label", "target"],
    )
    def test_unknown_edge_report(self, capsys, path, message, pair_file):
        assert main(["kappa", pair_file, "--m", "1", "--path", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["assumption"], err["message"]) == ("unknown edge", message)

    def test_long_path_quoted_by_prefix(self, capsys, pair_file):
        assert main(["kappa", pair_file, "--m", "1", "--path", "y" * 50000]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 1024
        err = json.loads(captured.err)["error"]
        assert err["assumption"] == "bad edge syntax"
        assert err["message"] == f"cannot parse edge {'y' * 40!r}... (50000 characters)"

    @pytest.mark.parametrize("path", ["e(\u0661,\u0661,\u0660)", "v(\u0661)"], ids=["edge", "vertex"])
    def test_labels_are_ascii_digits(self, capsys, path, pair_file):
        # `\d` would also match these Arabic-Indic digits.
        assert main(["kappa", pair_file, "--m", "1", "--path", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["assumption"] == "bad edge syntax"

    @pytest.mark.parametrize("m", ["\u0662", "+1", " 1", "1_0"])
    def test_m_is_ascii_decimal(self, capsys, m, pair_file):
        message = usage_error(capsys, ["kappa", pair_file, "--m", m, "--path", "v(1)"])
        assert message == f"argument --m: not a decimal integer: {m!r}"

    def test_long_m_quoted_by_prefix(self, capsys, pair_file):
        assert main(["kappa", pair_file, "--m", "y" * 50000, "--path", "v(1)"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 1024
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_PARSE and err["assumption"] == "usage"
        assert err["message"] == f"argument --m: not a decimal integer: {'y' * 40!r}... (50000 characters)"

    @pytest.mark.parametrize(
        "path", ["e(1,1," + "9" * 5000 + ")", "v(" + "1" * 5000 + ")"], ids=["edge", "vertex"]
    )
    def test_oversized_label(self, capsys, path, pair_file):
        # More digits than Python converts to int: bad syntax, not a traceback,
        # and the report quotes the path by its prefix.
        assert main(["kappa", pair_file, "--m", "1", "--path", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 1024
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_VALIDATION and err["assumption"] == "bad edge syntax"


class TestRealize:
    def test_rank_one(self, capsys):
        code, doc = run_json(capsys, ["realize", "--rank", "1"])
        assert code == EXIT_OK
        assert doc["A"] == [[2]] and doc["B"] == [[1]]
        assert doc["K0"] == "Z" and doc["K1"] == "Z"
        assert doc["verified"] is True

    def test_torsion_targets(self, capsys):
        code, doc = run_json(capsys, ["realize", "--rank", "0", "--t0", "3", "--t1", "5"])
        assert code == EXIT_OK
        assert doc["A"] == [[4, 0], [0, 2]]
        assert doc["B"] == [[2, 0], [0, 6]]

    def test_torsion_canonicalized(self, capsys):
        code, doc = run_json(capsys, ["realize", "--rank", "0", "--t0", "2,3"])
        assert code == EXIT_OK
        assert doc["target"]["K0"] == "Z/6"

    def test_bad_factor(self, capsys):
        assert main(["realize", "--rank", "0", "--t0", "1"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("t0", ["+3,1_1", "\u0663", "3,+11"])
    def test_torsion_is_ascii_decimal(self, capsys, t0):
        # `int` alone reads "+3,1_1" as Z/3 ⊕ Z/11 = Z/33.
        assert main(["realize", "--rank", "0", "--t0", t0]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["assumption"] == "parse"

    def test_torsion_spaces_around_commas(self, capsys):
        code, doc = run_json(capsys, ["realize", "--rank", "0", "--t0", " 2 , 3 ,"])
        assert code == EXIT_OK and doc["target"]["K0"] == "Z/6"

    def test_golden_output(self, capsys):
        # sha256 of the full stdout, recorded while `realize` still verified
        # the pair by one formula route and printed a second `analyze`.
        assert main(["realize", "--rank", "1", "--t0", "2,4", "--t1", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ea40aa350ae5690f70cdfaaa3a9299edfdf59babc39104f9a562f603a6b65ed4"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rank", str(REALIZE_MAX_BLOCKS + 1)],
            ["--rank", "1000000000000"],
            ["--rank", "0", "--t0", ",".join(["2"] * REALIZE_MAX_BLOCKS), "--t1", "3"],
        ],
        ids=["rank-over-bound", "rank-1e12", "raw-factors-over-bound"],
    )
    def test_oversized_target_exits_3(self, capsys, monkeypatch, argv):
        # A rank of 10^12 would ask for a list of 10^12 blocks.  The
        # factors are counted as given, before either target is
        # canonicalized, so a long factor list costs no gcd sweep.
        monkeypatch.setattr(cli.FGAbelianGroup, "from_cyclic_orders", None)
        assert main(["realize", *argv]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_VALIDATION and err["assumption"] == "realize block bound"

    def test_help_names_the_block_bound(self, capsys):
        assert main(["realize", "--help"]) == EXIT_OK
        assert f"more than {REALIZE_MAX_BLOCKS} blocks exits 3" in " ".join(capsys.readouterr().out.split())

    def test_reports_block_construction_properties(self, capsys):
        code, doc = run_json(capsys, ["realize", "--rank", "2"])
        assert code == EXIT_OK
        # block-diagonal output is reducible, so the minimality witness fails
        assert doc["analysis"]["properties"]["minimal_pi_sufficient"] is False
        assert doc["analysis"]["properties"]["pseudo_free"] is True


class TestCheck:
    def test_clean_pair_passes(self, capsys, pair_file):
        code, doc = run_json(capsys, ["check", pair_file, "--trials", "25", "--seed", "3"])
        assert code == EXIT_OK
        assert doc["all_ok"] is True
        assert doc["failures"] == 0
        assert doc["pseudo_free"] is True
        for name in (
            "edge_action_law",
            "edge_cocycle_law",
            "path_action_law",
            "path_cocycle_law",
            "carry_sum",
            "invert_involution",
            "invert_compose_unit",
            "refine_partition",
            "refine_compose_coherence",
            "associativity",
            "hk_identity",
            "route_agreement",
        ):
            assert doc["checks"][name]["failures"] == 0

    def test_b_off_support_passes(self, capsys, tmp_path):
        # Supports differ, but B is nonzero on every edge: pseudo-free.
        path = tmp_path / "off.json"
        path.write_text('{"mode":"katsura","n":2,"A":[[2,0],[1,2]],"B":[[1,5],[1,1]]}')
        code, doc = run_json(capsys, ["check", str(path), "--trials", "10"])
        assert code == EXIT_OK
        assert doc["pseudo_free"] is True and doc["failures"] == 0

    def test_deterministic_given_seed(self, capsys, pair_file):
        main(["check", pair_file, "--trials", "10", "--seed", "9"])
        first = capsys.readouterr().out
        main(["check", pair_file, "--trials", "10", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_edge_count_beyond_maxsize(self, capsys, tmp_path):
        # 10**20 parallel edges: more than an index range can hold, so a
        # check with trials refuses before its first draw, and one without
        # trials still reports.
        path = tmp_path / "many.json"
        a = [["100000000000000000000", 0], [0, 1]]
        path.write_text(json.dumps({"mode": "katsura", "n": 2, "A": a, "B": [[1, 0], [0, 1]]}))
        assert main(["check", str(path), "--trials", "1"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_VALIDATION and err["assumption"] == "edge count"
        code, doc = run_json(capsys, ["check", str(path), "--trials", "0"])
        assert code == EXIT_OK and doc["all_ok"] is True

    def test_negative_trials_rejected(self, capsys, pair_file):
        assert main(["check", pair_file, "--trials", "-3"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["assumption"] == "bad trials"

    # sha256 of the full stdout, recorded before the path action stopped
    # listing edges (the last two before slices stopped carrying their
    # pair): a change in draw order, counters or trial counts fails.  The
    # last two are inputs the benchmark never draws: B = 0, and a sparse
    # pair with negative B that vanishes on some edges of A.
    @pytest.mark.parametrize(
        "doc, argv, code, digest",
        [
            (
                '{"mode":"katsura","n":2,"A":[[60,45],[7,95]],"B":[[-3,5],[2,-7]]}',
                ["--trials", "20", "--seed", "5"],
                EXIT_OK,
                "4b7f637098d9e8fe6ec5f30f847eb6bebd6316532ec1eac8b9805368430af44d",
            ),
            (
                PAIR_DOC,
                ["--trials", "25", "--seed", "3"],
                EXIT_OK,
                "cf4a83af80fbadcde23a84873682dba9c82380058763485f4168ea540128867a",
            ),
            (
                '{"mode":"sft","n":3,"A":[[2,1,0],[0,1,3],[1,0,2]]}',
                ["--trials", "40", "--seed", "11"],
                EXIT_INCONCLUSIVE,
                "f85b5700b9c2092b86b4028b77c03f40f20f2778b7fbedc5552a38cc99410547",
            ),
            (
                '{"mode":"katsura","n":5,"A":[[2,1,0,0,0],[0,1,3,0,0],[0,0,1,0,2],[1,0,0,2,0],[0,0,0,1,1]],'
                '"B":[[-1,0,0,0,0],[0,2,-3,0,0],[0,0,-1,0,1],[3,0,0,0,0],[0,0,0,-2,1]]}',
                ["--trials", "40", "--seed", "11"],
                EXIT_INCONCLUSIVE,
                "26795fcc02f97807aa7fc29f7473b88548ab53f6a5d900238f309ab11e7684ca",
            ),
        ],
        ids=["row_sum_100", "pair_seed_3", "sft_seed_11", "sparse_negative_b_seed_11"],
    )
    def test_golden_output(self, capsys, tmp_path, doc, argv, code, digest):
        path = tmp_path / "in.json"
        path.write_text(doc)
        assert main(["check", str(path), *argv]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Seeds of magnitude >= 2^53 are written as strings, like every other
    # reported integer; the trial count goes through the same rule.
    @pytest.mark.parametrize(
        "seed, written",
        [
            (2**53 - 1, 2**53 - 1),
            (-(2**53 - 1), -(2**53 - 1)),
            (2**53, str(2**53)),
            (-(2**53), str(-(2**53))),
            (123456789012345678901234567890, "123456789012345678901234567890"),
        ],
    )
    def test_seed_beyond_53_bits_is_a_string(self, capsys, pair_file, seed, written):
        code, doc = run_json(capsys, ["check", pair_file, "--trials", "2", f"--seed={seed}"])
        assert code == EXIT_OK
        assert doc["seed"] == written
        assert doc["trials"] == 2

    def test_sft_inconclusive(self, capsys, sft_file):
        # B = 0 fails the matching-support criterion, so the theorem
        # hypothesis is unverified: exit 1 even though no check fails.
        code, doc = run_json(capsys, ["check", sft_file, "--trials", "10", "--seed", "0"])
        assert code == EXIT_INCONCLUSIVE
        assert doc["failures"] == 0
        assert doc["pseudo_free"] is False


class TestRouteDisagreement:
    """A limit route that disagrees with the formula route must be reported
    by `analyze` and counted by `check`, in both modes."""

    @pytest.fixture(autouse=True)
    def skewed_limit_route(self, monkeypatch):
        real = invariants.limit_route_homology

        def skewed(a, b):
            h = real(a, b)
            return HomologyTuple(h.h0, direct_sum(h.h1, FGAbelianGroup(0, (2,))), h.h2)

        monkeypatch.setattr(invariants, "limit_route_homology", skewed)

    def test_analyze_reports_it(self, capsys, pair_file):
        code, doc = run_json(capsys, ["analyze", pair_file])
        assert code == EXIT_OK
        assert doc["hk_ok"] is False and doc["oracle_ok"] is False
        assert doc["H"] == ["0", "Z", "Z", "0"]
        assert doc["H_limit_route"] == ["0", "Z ⊕ Z/2", "Z", "0"]

    @pytest.mark.parametrize("fixture", ["pair_file", "sft_file"])
    def test_check_counts_it(self, capsys, request, fixture):
        argv = ["check", request.getfixturevalue(fixture), "--trials", "3", "--seed", "0"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_INCONCLUSIVE
        assert doc["checks"]["hk_identity"] == {"trials": 1, "failures": 1}
        assert doc["checks"]["route_agreement"] == {"trials": 1, "failures": 1}
        assert doc["failures"] == 2 and doc["all_ok"] is False

    def test_realize_refuses_it(self, capsys):
        assert main(["realize", "--rank", "1"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["exit_code"] == EXIT_INTERNAL and err["assumption"] == "internal invariant"


def test_every_report_carries_schema_and_echo(capsys, pair_file, sft_file):
    commands = [
        ["analyze", pair_file],
        ["compare", pair_file, sft_file],
        ["kappa", pair_file, "--m", "1", "--path", "v(1)"],
        ["realize", "--rank", "1"],
        ["check", pair_file, "--trials", "5", "--seed", "1"],
    ]
    for argv in commands:
        main(argv)
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 2, argv
        assert doc["command"] == argv[0]
        if argv[0] in ("analyze", "kappa", "check"):
            assert doc["input"]["A"] == [[2]]
        elif argv[0] == "compare":
            assert doc["inputs"][0]["A"] == [[2]]
        else:
            assert doc["A"] == [[2]]


json_text = st.one_of(st.text(), st.text(alphabet='⊕"\\/\x00\x1f\x7f\n\t\u2028é Z'))
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**53 - 1, 2**53, -(2**53), -(2**53 - 1), 0]),
    json_text,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=30,
)


class TestJsonWriter:
    """`_json_text` against `json.dumps(indent=2, ensure_ascii=False)`."""

    @given(json_values)
    @example({})
    @example(())
    @example([[], {"a": {}}, ()])
    @example({"K": ["Z ⊕ Z/2"], "A": [[1, "9007199254740992"]], "ok": True, "e": None})
    @settings(max_examples=400, deadline=None)
    def test_same_text_as_json(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize("value", [1.5, {1: 2}, {"a": {None: 1}}, [set()], b"x", object()])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


def test_parse_input_returns_operand():
    assert parse_input(PAIR_DOC) == Operand("katsura", IntMatrix([[2]]), IntMatrix([[1]]))


class TestParserReuse:
    """`main` builds its parser once per process; no call may see another's."""

    def test_defaults_do_not_stick(self, capsys, pair_file):
        main(["check", pair_file, "--trials", "2", "--seed", "5"])
        capsys.readouterr()
        main(["check", pair_file])
        reused = capsys.readouterr().out
        cli._build_parser.cache_clear()
        main(["check", pair_file])
        assert reused == capsys.readouterr().out

    def test_usage_error_leaves_no_trace(self, capsys, pair_file):
        usage_error(capsys, ["analyze", pair_file, "--m", "1"])
        main(["analyze", pair_file])
        after_error = capsys.readouterr().out
        cli._build_parser.cache_clear()
        main(["analyze", pair_file])
        assert after_error == capsys.readouterr().out

    def test_help_twice(self, capsys):
        assert main(["--help"]) == EXIT_OK
        first = capsys.readouterr()
        assert main(["--help"]) == EXIT_OK
        second = capsys.readouterr()
        assert first.out.startswith("usage: kep") and first.err == ""
        assert first == second

    def test_built_once(self, capsys, monkeypatch, pair_file):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        main(["analyze", pair_file])
        assert len(built) == 6  # kep and its five commands
        for argv in (["analyze", pair_file], ["check", pair_file, "--trials", "1"], ["frobnicate"], ["--help"]):
            main(argv)
        assert len(built) == 6


def test_import_builds_no_parser():
    # Importing kep.cli is what the benchmark's set-up time measures.
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import kep.cli\n"
        "print(len(built))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"
