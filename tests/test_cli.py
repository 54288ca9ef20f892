import json

import pytest

from kep.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ParseError,
    main,
    parse_input,
    run,
)
from kep.errors import InputValidationError

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


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParseInput:
    def test_valid_pair(self):
        doc = parse_input(PAIR_DOC)
        assert doc.mode == "katsura" and doc.n == 1
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


class TestAnalyze:
    def test_doubling_pair_report(self, capsys, pair_file):
        code, doc = run_json(capsys, ["analyze", pair_file])
        assert code == EXIT_OK
        assert doc["H"] == ["0", "Z", "Z", "0"]
        assert doc["K"] == ["Z", "Z"]
        assert doc["hk_ok"] is True
        assert doc["oracle_ok"] is True
        assert doc["schema_version"] == 1
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

    def test_exit_3_zero_row(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mode":"katsura","n":1,"A":[[0]],"B":[[0]]}')
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["assumption"] == "zero row"

    def test_exit_2_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert main(["analyze", str(path)]) == EXIT_PARSE

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

    def test_exit_2_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_PARSE


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

    def test_sft_inconclusive(self, capsys, sft_file):
        # B = 0 fails the matching-support criterion, so the theorem
        # hypothesis is unverified: exit 1 even though no check fails.
        code, doc = run_json(capsys, ["check", sft_file, "--trials", "10", "--seed", "0"])
        assert code == EXIT_INCONCLUSIVE
        assert doc["failures"] == 0
        assert doc["pseudo_free"] is False


def test_run_dispatch(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(PAIR_DOC)
    assert run("analyze", [str(path)]) == EXIT_OK
    capsys.readouterr()


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
        assert doc["schema_version"] == 1, argv
        assert doc["command"] == argv[0]
        if argv[0] in ("analyze", "kappa", "check"):
            assert doc["input"]["A"] == [[2]]
        elif argv[0] == "compare":
            assert doc["inputs"][0]["A"] == [[2]]
        else:
            assert doc["A"] == [[2]]


def test_input_document_operand_round_trip():
    doc = parse_input(PAIR_DOC)
    operand = doc.to_operand()
    assert operand.mode == "katsura"
    assert operand.a == doc.a and operand.b == doc.b
