"""Command line surface: JSON in, JSON report out, deterministic exit codes.

Exit codes: 0 success, 1 unrealizable target, or a check that found a
failure or a pair that is not pseudo-free, 2 malformed or unreadable input
or usage, 3 violated input assumption (named in the error report).
Integers whose magnitude exceeds 53 bits are serialized as strings so
reports survive consumers that parse JSON numbers as doubles.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Any

from .abgroup import FGAbelianGroup
from .errors import InputValidationError
from .groupoid import (
    PropertyReport,
    Slice,
    compose_slices,
    invert_slice,
    refine_slice,
    slices_equal,
)
from .intmat import IntMatrix
from .invariants import (
    ComparisonReport,
    InvariantReport,
    Operand,
    analyze,
    compare,
    hk_check,
    homology,
    realize,
)
from .selfsim import (
    _validate_nonnegative_no_zero_rows,
    build_graph,
    is_pseudo_free,
    kappa_edge,
    kappa_path,
    parse_path,
    path_ending_at,
    phi_vertex_sum,
    random_walk,
    validate_path,
)

SCHEMA_VERSION = 1
_SAFE_INT = 1 << 53

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


class ParseError(ValueError):
    """Malformed input document (bad JSON, missing or mistyped fields)."""


@dataclass(frozen=True)
class InputDocument:
    """A validated input: the pair (A, B), or A alone in "sft" mode."""

    mode: str
    n: int
    a: IntMatrix
    b: IntMatrix | None

    def to_operand(self) -> Operand:
        return Operand(self.mode, self.a, self.b)


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{where} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ParseError(f"{where} is not an integer: {value!r}") from None
    raise ParseError(f"{where} must be an integer")


def _parse_matrix(raw: Any, n: int, name: str) -> IntMatrix:
    if not isinstance(raw, list):
        raise ParseError(f"{name} must be a list of rows")
    if len(raw) != n:
        raise InputValidationError("shape mismatch", f"{name} must have {n} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise ParseError(f"{name} row {i + 1} must be a list of integers")
        if len(row) != n:
            raise InputValidationError(
                "shape mismatch", f"{name} row {i + 1} must have {n} entries, got {len(row)}"
            )
        rows.append([_as_int(x, f"{name}[{i + 1}]") for x in row])
    return IntMatrix(rows)


def parse_input(data: bytes | str) -> InputDocument:
    """Parse and validate one input document.

    Raises ParseError for malformed documents (exit 2) and
    InputValidationError for violated standing assumptions (exit 3).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("input must be a JSON object")
    mode = doc.get("mode")
    if mode not in ("katsura", "sft"):
        raise ParseError('mode must be "katsura" or "sft"')
    n = _as_int(doc.get("n"), "n")
    if n < 1:
        raise ParseError("n must be a positive integer")
    if "A" not in doc:
        raise ParseError("missing matrix A")
    a = _parse_matrix(doc["A"], n, "A")
    if mode == "katsura":
        if "B" not in doc:
            raise ParseError("missing matrix B (katsura mode)")
        b = _parse_matrix(doc["B"], n, "B")
    else:
        if "B" in doc:
            raise InputValidationError("unexpected B", "sft mode takes only A")
        b = None
    _validate_nonnegative_no_zero_rows(a)
    return InputDocument(mode=mode, n=n, a=a, b=b)


def _json_int(v: int) -> int | str:
    return v if -_SAFE_INT < v < _SAFE_INT else str(v)


def _json_matrix(m: IntMatrix) -> list[list[int | str]]:
    return [[_json_int(x) for x in row] for row in m]


def _json_group(g: FGAbelianGroup) -> dict[str, Any]:
    return {"free_rank": g.free_rank, "torsion": [_json_int(d) for d in g.torsion]}


def _json_input(doc: InputDocument) -> dict[str, Any]:
    out: dict[str, Any] = {"mode": doc.mode, "n": doc.n, "A": _json_matrix(doc.a)}
    if doc.b is not None:
        out["B"] = _json_matrix(doc.b)
    return out


def _json_properties(p: PropertyReport) -> dict[str, Any]:
    return {
        "pseudo_free": p.pseudo_free,
        "hausdorff": p.hausdorff,
        "effective_sufficient": p.effective_sufficient,
        "minimal_pi_sufficient": p.minimal_pi_sufficient,
        "principal_sufficient": p.principal_sufficient,
        "unit_space_compact": p.unit_space_compact,
        "condition_O": p.condition_O,
        "notes": list(p.notes),
    }


def _json_report(doc: InputDocument, report: InvariantReport) -> dict[str, Any]:
    h = report.homology.degrees()
    h_limit = report.limit_homology.degrees()
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "input": _json_input(doc),
        "properties": _json_properties(report.properties),
        "H": [str(g) for g in h],
        "H_structured": [_json_group(g) for g in h],
        "H_limit_route": [str(g) for g in h_limit],
        "K": [str(report.k0), str(report.k1)],
        "K_structured": [_json_group(report.k0), _json_group(report.k1)],
        "det": {"I_minus_A": _json_int(report.det_ia), "I_minus_B": _json_int(report.det_ib)},
        "hk_ok": report.hk_ok,
        "oracle_ok": report.oracle_ok,
        "validity": report.validity,
    }


def _json_compare(doc1: InputDocument, doc2: InputDocument, rep: ComparisonReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "inputs": [_json_input(doc1), _json_input(doc2)],
        "H_left": [str(g) for g in rep.left.homology.degrees()],
        "H_right": [str(g) for g in rep.right.homology.degrees()],
        "homology_isomorphic": list(rep.homology_isomorphic),
        "K_left": [str(rep.left.k0), str(rep.left.k1)],
        "K_right": [str(rep.right.k0), str(rep.right.k1)],
        "k0_equal": rep.k0_equal,
        "k1_equal": rep.k1_equal,
        "k_theory_equal": rep.k_theory_equal,
        "ker_I_minus_A_isomorphic": rep.ker_ia_isomorphic,
        "ker_I_minus_B_isomorphic": rep.ker_ib_isomorphic,
        "det_left": {"I_minus_A": _json_int(rep.left.det_ia), "I_minus_B": _json_int(rep.left.det_ib)},
        "det_right": {"I_minus_A": _json_int(rep.right.det_ia), "I_minus_B": _json_int(rep.right.det_ib)},
        "distinguished": rep.distinguished,
        "verdict": rep.verdict,
    }


def _emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


def _emit_error(code: int, assumption: str, message: str) -> int:
    sys.stderr.write(
        json.dumps(
            {"error": {"exit_code": code, "assumption": assumption, "message": message}},
            indent=2,
            ensure_ascii=False,
        )
        + "\n"
    )
    return code


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    doc = parse_input(_read_source(args.file))
    report = analyze(doc.to_operand())
    _emit(_json_report(doc, report))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    doc1 = parse_input(_read_source(args.file1))
    doc2 = parse_input(_read_source(args.file2))
    rep = compare(doc1.to_operand(), doc2.to_operand())
    _emit(_json_compare(doc1, doc2, rep))
    return EXIT_OK


def _cmd_kappa(args: argparse.Namespace) -> int:
    doc = parse_input(_read_source(args.file))
    if doc.mode != "katsura":
        raise InputValidationError("missing B", "kappa needs a full pair (katsura mode)")
    path = parse_path(args.path)
    validate_path(doc.a, path)
    image, carry = kappa_path(doc.a, doc.b, args.m, path)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "kappa",
            "input": _json_input(doc),
            "m": _json_int(args.m),
            "path": str(path),
            "kappa": str(image),
            "phi": _json_int(carry),
        }
    )
    return EXIT_OK


def _parse_torsion(raw: str | None, flag: str) -> list[int]:
    if not raw:
        return []
    factors = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            d = int(part, 10)
        except ValueError:
            raise ParseError(f"{flag} expects a comma-separated list of integers") from None
        if d < 2:
            raise InputValidationError("bad torsion factor", f"{flag} factors must be >= 2, got {d}")
        factors.append(d)
    return factors


def _cmd_realize(args: argparse.Namespace) -> int:
    if args.rank < 0:
        raise InputValidationError("bad rank", "--rank must be nonnegative")
    t0 = _parse_torsion(args.t0, "--t0")
    t1 = _parse_torsion(args.t1, "--t1")
    target0 = FGAbelianGroup.from_cyclic_orders(t0, free_rank=args.rank)
    target1 = FGAbelianGroup.from_cyclic_orders(t1, free_rank=args.rank)
    result = realize(target0, target1)
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": "realize",
        "target": {
            "K0": str(target0),
            "K1": str(target1),
            "K0_structured": _json_group(target0),
            "K1_structured": _json_group(target1),
        },
        "ok": result.ok,
    }
    if not result.ok:
        payload["error"] = result.reason
        _emit(payload)
        return EXIT_INCONCLUSIVE
    doc = InputDocument(mode="katsura", n=result.a.rows, a=result.a, b=result.b)
    payload["A"] = _json_matrix(result.a)
    payload["B"] = _json_matrix(result.b)
    payload["K0"] = str(result.k0)
    payload["K1"] = str(result.k1)
    payload["verified"] = True
    payload["analysis"] = _json_report(doc, analyze(doc.to_operand()))
    _emit(payload)
    return EXIT_OK


def _run_checks(doc: InputDocument, trials: int, seed: int) -> dict[str, Any]:
    a = doc.a
    b = doc.b if doc.b is not None else IntMatrix.zeros(doc.n, doc.n)
    rng = random.Random(seed)
    graph = build_graph(a)
    vertices = list(graph.vertices())
    all_edges = graph.edges()
    counters: dict[str, dict[str, int]] = {}

    def record(name: str, ok: bool) -> None:
        slot = counters.setdefault(name, {"trials": 0, "failures": 0})
        slot["trials"] += 1
        if not ok:
            slot["failures"] += 1

    ctx = (a, b)
    for _ in range(trials):
        m1 = rng.randint(-20, 20)
        m2 = rng.randint(-20, 20)
        e = rng.choice(all_edges)
        via_m2, phi2 = kappa_edge(a, b, m2, e)
        via_both, phi12 = kappa_edge(a, b, m1 + m2, e)
        step, phi1 = kappa_edge(a, b, m1, via_m2)
        record("edge_action_law", via_both == step)
        record("edge_cocycle_law", phi12 == phi1 + phi2)

        p = random_walk(graph, rng, rng.choice(vertices), rng.randint(1, 6))
        q_m2, pphi2 = kappa_path(a, b, m2, p)
        q_both, pphi12 = kappa_path(a, b, m1 + m2, p)
        q_step, pphi1 = kappa_path(a, b, m1, q_m2)
        record("path_action_law", q_both == q_step)
        record("path_cocycle_law", pphi12 == pphi1 + pphi2)

        v = rng.choice(vertices)
        w = rng.choice(vertices)
        expected_sum = m1 * b[v - 1, w - 1] if a[v - 1, w - 1] else 0
        record("carry_sum", phi_vertex_sum(a, b, m1, v, w) == expected_sum)

        beta = random_walk(graph, rng, rng.choice(vertices), rng.randint(0, 2))
        alpha = path_ending_at(graph, rng, beta.range, 2)
        s1 = Slice(alpha, rng.randint(-3, 3), beta, ctx)
        record("invert_involution", invert_slice(invert_slice(s1)) == s1)
        left_unit = compose_slices(invert_slice(s1), s1)
        record("invert_compose_unit", left_unit == Slice(s1.beta, 0, s1.beta, ctx))
        record(
            "refine_partition",
            len(refine_slice(s1)) == len(graph.out_edges(s1.beta.range)),
        )

        gamma = path_ending_at(graph, rng, s1.beta.range, 2)
        s2 = Slice(s1.beta, rng.randint(-3, 3), gamma, ctx)
        direct = compose_slices(s1, s2)
        piecewise = {compose_slices(s1, child) for child in refine_slice(s2)}
        record("refine_compose_coherence", piecewise == set(refine_slice(direct)))

        delta = path_ending_at(graph, rng, s2.beta.range, 2)
        s3 = Slice(s2.beta, rng.randint(-3, 3), delta, ctx)
        for middle in refine_slice(s2):
            lhs = compose_slices(compose_slices(s1, middle), s3)
            rhs = compose_slices(s1, compose_slices(middle, s3))
            record("associativity", lhs is not None and rhs is not None and slices_equal(lhs, rhs))

    evidence = hk_check(a, b)
    one_time = {
        "hk_identity": evidence.ok,
        "route_agreement": (
            homology(a, b).isomorphic_to(evidence.homology)
            if doc.mode == "katsura"
            else True
        ),
    }
    for name, ok in one_time.items():
        record(name, ok)

    pf = is_pseudo_free(a, b)
    failures = sum(slot["failures"] for slot in counters.values())
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "input": _json_input(doc),
        "seed": seed,
        "trials": trials,
        "checks": counters,
        "pseudo_free": pf.verdict,
        "failures": failures,
        "all_ok": failures == 0,
    }


def _cmd_check(args: argparse.Namespace) -> int:
    doc = parse_input(_read_source(args.file))
    summary = _run_checks(doc, trials=args.trials, seed=args.seed)
    _emit(summary)
    if summary["all_ok"] and summary["pseudo_free"] is True:
        return EXIT_OK
    return EXIT_INCONCLUSIVE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kep",
        description="Exact homology and K-theory invariants of integer matrix pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full invariant report for one input")
    p_analyze.add_argument("file", help='input JSON file, or "-" for stdin')
    p_analyze.set_defaults(func=_cmd_analyze)

    p_compare = sub.add_parser("compare", help="compare the invariants of two inputs")
    p_compare.add_argument("file1")
    p_compare.add_argument("file2")
    p_compare.set_defaults(func=_cmd_compare)

    p_kappa = sub.add_parser("kappa", help="apply the path action and report the carry")
    p_kappa.add_argument("file")
    p_kappa.add_argument("--m", type=int, required=True)
    p_kappa.add_argument("--path", required=True, help='e.g. "e(1,1,0).e(1,1,1)" or "v(1)"')
    p_kappa.set_defaults(func=_cmd_kappa)

    p_realize = sub.add_parser("realize", help="build a pair with prescribed K-theory")
    p_realize.add_argument("--rank", type=int, required=True)
    p_realize.add_argument("--t0", default="", help="comma-separated torsion factors for K0")
    p_realize.add_argument("--t1", default="", help="comma-separated torsion factors for K1")
    p_realize.set_defaults(func=_cmd_realize)

    p_check = sub.add_parser("check", help="seeded property sweep on one input")
    p_check.add_argument("file")
    p_check.add_argument("--trials", type=int, default=50)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        return _emit_error(EXIT_PARSE, "parse", str(exc))
    except InputValidationError as exc:
        return _emit_error(EXIT_VALIDATION, exc.assumption, str(exc))


def run(command: str, args: list[str]) -> int:
    """Dispatch one subcommand programmatically; returns the exit code."""
    return main([command, *args])


if __name__ == "__main__":
    raise SystemExit(main())
