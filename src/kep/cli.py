"""Command line surface: JSON in, JSON report out, deterministic exit codes.

Exit codes: 0 success, 1 unrealizable target, or a check that found a
failure or a pair that is not pseudo-free, 2 malformed or unreadable input
or usage, 3 violated input assumption (named in the error report, e.g. an
output integer beyond Python's digit limit), 4 violated internal invariant
(a defect in kep; the error report names the invariant).
Every failure prints a JSON error report on stderr; that includes usage
errors (an unknown command, a missing argument, a bad flag value), which
name the assumption "usage".
Integers whose magnitude exceeds 53 bits are serialized as strings so
reports survive consumers that parse JSON numbers as doubles.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from typing import Any, NoReturn, TextIO

from .abgroup import FGAbelianGroup
from .errors import InputValidationError, InternalError, decimal, quote
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
    REALIZE_MAX_BLOCKS,
    ComparisonReport,
    InvariantReport,
    Operand,
    analyze,
    compare,
    hk_check,
    _refuse_oversized,
    realize,
)
from .selfsim import (
    Graph,
    is_pseudo_free,
    kappa_edge,
    kappa_path,
    parse_path,
    path_ending_at,
    phi_vertex_sum,
    random_walk,
)

SCHEMA_VERSION = 2
_SAFE_INT = 1 << 53
_encode_string = json.encoder.encode_basestring

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


class ParseError(ValueError):
    """Malformed input document (bad JSON, missing or mistyped fields)."""


_DECIMAL_RE = re.compile(r"-?[0-9]+")


def _decimal_int(text: str) -> int:
    """An integer written as an optional minus sign and the digits 0-9.
    `int` alone would also take surrounding spaces, a plus sign,
    underscores and non-ASCII digits."""
    if not _DECIMAL_RE.fullmatch(text):
        raise ValueError(f"not a decimal integer: {quote(text)}")
    return int(text)


def _int_flag(text: str) -> int:
    """`_decimal_int` for a flag value.  argparse reports an
    ArgumentTypeError by its message, and any other error by the
    converter's name."""
    try:
        return _decimal_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{where} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return _decimal_int(value)
        except ValueError as exc:
            # Not decimal digits, or more digits than the interpreter's limit
            # (whose message gives the limit, not the digits).
            raise ParseError(f"{where}: {exc}") from None
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
        # A plain int passes as it is; only another entry needs its location.
        rows.append(
            [x if type(x) is int else _as_int(x, f"{name}[{i + 1}][{j + 1}]") for j, x in enumerate(row)]
        )
    return IntMatrix(rows)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a silent
    choice of its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {quote(key)}")
        doc[key] = value
    return doc


def parse_input(data: bytes | str) -> Operand:
    """Parse and validate one input document.

    Raises ParseError for malformed documents (exit 2) and
    InputValidationError for violated standing assumptions (exit 3).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a repeated key, a number literal beyond the int
        # digit limit, or nesting deeper than the decoder's recursion limit.
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
    return Operand(mode, a, b)


def _json_int(v: int) -> int | str:
    return v if -_SAFE_INT < v < _SAFE_INT else decimal(v)


def _json_matrix(m: IntMatrix) -> list[list[int | str]]:
    return [[_json_int(x) for x in row] for row in m]


def _json_group(g: FGAbelianGroup) -> dict[str, Any]:
    return {"free_rank": g.free_rank, "torsion": [_json_int(d) for d in g.torsion]}


def _json_input(op: Operand) -> dict[str, Any]:
    out: dict[str, Any] = {"mode": op.mode, "n": op.a.rows, "A": _json_matrix(op.a)}
    if op.b is not None:
        out["B"] = _json_matrix(op.b)
    return out


def _json_properties(p: PropertyReport) -> dict[str, Any]:
    return {
        "pseudo_free": p.pseudo_free,
        "hausdorff": p.hausdorff,
        "effective_sufficient": p.effective_sufficient,
        "minimal_pi_sufficient": p.minimal_pi_sufficient,
        "condition_O": p.condition_O,
        "notes": list(p.notes),
    }


def _json_report(op: Operand, report: InvariantReport) -> dict[str, Any]:
    ev = report.evidence
    h = ev.formula.degrees()
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "input": _json_input(op),
        "properties": _json_properties(report.properties),
        "H": [str(g) for g in h],
        "H_structured": [_json_group(g) for g in h],
        "H_limit_route": [str(g) for g in ev.limit.degrees()],
        "K": [str(ev.k0), str(ev.k1)],
        "K_structured": [_json_group(ev.k0), _json_group(ev.k1)],
        "det": {"I_minus_A": _json_int(report.det_ia), "I_minus_B": _json_int(report.det_ib)},
        "hk_ok": ev.ok,
        "oracle_ok": ev.routes_agree,
        "validity": report.validity,
    }


def _json_compare(op1: Operand, op2: Operand, rep: ComparisonReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "inputs": [_json_input(op1), _json_input(op2)],
        "H_left": [str(g) for g in rep.h_left.degrees()],
        "H_right": [str(g) for g in rep.h_right.degrees()],
        "homology_isomorphic": list(rep.homology_isomorphic),
        "K_left": [str(g) for g in rep.h_left.k_groups()],
        "K_right": [str(g) for g in rep.h_right.k_groups()],
        "k0_equal": rep.k0_equal,
        "k1_equal": rep.k1_equal,
        "k_theory_equal": rep.k_theory_equal,
        "ker_I_minus_A_isomorphic": rep.ker_ia_isomorphic,
        "ker_I_minus_B_isomorphic": rep.ker_ib_isomorphic,
        "det_left": {"I_minus_A": _json_int(rep.det_left[0]), "I_minus_B": _json_int(rep.det_left[1])},
        "det_right": {"I_minus_A": _json_int(rep.det_right[0]), "I_minus_B": _json_int(rep.det_right[1])},
        "distinguished": rep.distinguished,
        "verdict": rep.verdict,
    }


def _json_text(value: Any, indent: str = "") -> str:
    """`value` as `json.dumps(value, indent=2, ensure_ascii=False)` writes it,
    at nesting `indent`.

    With an indent, `json` runs its pure-Python encoder, whose layout this
    follows step by step: a nonempty container opens a line per item at
    the indent of its level, joins the items with ",\n" and that indent
    (`json` writes ",", a newline and the indent before every item but the
    first), and closes on its own line at the outer indent; an empty one
    prints as {} or [].  A key is followed by ": ".  Strings and keys go
    through `json.encoder.encode_basestring`, the function `json` picks
    when `ensure_ascii` is false, and ints through `int.__repr__`, as
    `json` does; True, False and None print as true, false and null, and a
    tuple as a list.  The payloads hold only these exact types; any other
    value, or a key that is not a string, raises TypeError.  The pieces
    are joined by `str.join` in C, with none of `json`'s per-item
    generator steps.
    """
    kind = type(value)
    if kind is str:
        return _encode_string(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [_encode_string(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_json(stream: TextIO, payload: dict[str, Any]) -> None:
    stream.write(_json_text(payload) + "\n")


def _emit(payload: dict[str, Any]) -> None:
    _write_json(sys.stdout, payload)


def _emit_error(code: int, assumption: str, message: str) -> int:
    _write_json(sys.stderr, {"error": {"exit_code": code, "assumption": assumption, "message": message}})
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
    op = parse_input(_read_source(args.file))
    _emit(_json_report(op, analyze(op)))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    op1 = parse_input(_read_source(args.file1))
    op2 = parse_input(_read_source(args.file2))
    _emit(_json_compare(op1, op2, compare(op1, op2)))
    return EXIT_OK


def _cmd_kappa(args: argparse.Namespace) -> int:
    op = parse_input(_read_source(args.file))
    if op.mode != "katsura":
        raise InputValidationError("missing B", "kappa needs a full pair (katsura mode)")
    path = parse_path(args.path)
    image, carry = kappa_path(op.a, op.b, args.m, path)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "kappa",
            "input": _json_input(op),
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
            d = _decimal_int(part)
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
    # The factors are counted as given, before canonicalizing them costs time.
    _refuse_oversized(args.rank + len(t0) + len(t1))
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
    ev = result.report.evidence
    payload["A"] = _json_matrix(result.a)
    payload["B"] = _json_matrix(result.b)
    payload["K0"] = str(ev.k0)
    payload["K1"] = str(ev.k1)
    payload["verified"] = True
    payload["analysis"] = _json_report(Operand("katsura", result.a, result.b), result.report)
    _emit(payload)
    return EXIT_OK


def _run_checks(op: Operand, trials: int, seed: int) -> dict[str, Any]:
    a = op.a
    b = op.b_or_zero()
    rng = random.Random(seed)
    graph = Graph(a)
    vertices = graph.vertices()
    edge_count = graph.edge_count()
    if trials and edge_count > sys.maxsize:  # choice(range(k)) takes len(); out-degrees <= k
        raise InputValidationError("edge count", f"cannot draw from more than {sys.maxsize} edges")
    counters: dict[str, dict[str, int]] = {}

    def record(name: str, ok: bool) -> None:
        slot = counters.setdefault(name, {"trials": 0, "failures": 0})
        slot["trials"] += 1
        if not ok:
            slot["failures"] += 1

    for _ in range(trials):
        m1 = rng.randint(-20, 20)
        m2 = rng.randint(-20, 20)
        # The same draw as rng.choice(graph.edges()), without the list.
        e = graph.edge(rng.choice(range(edge_count)))
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
        s1 = Slice(alpha, rng.randint(-3, 3), beta)
        record("invert_involution", invert_slice(invert_slice(s1)) == s1)
        left_unit = compose_slices(a, b, invert_slice(s1), s1)
        record("invert_compose_unit", left_unit == Slice(s1.beta, 0, s1.beta))
        record(
            "refine_partition",
            len(refine_slice(a, b, s1)) == graph.out_degree(s1.beta.range),
        )

        gamma = path_ending_at(graph, rng, s1.beta.range, 2)
        s2 = Slice(s1.beta, rng.randint(-3, 3), gamma)
        direct = compose_slices(a, b, s1, s2)
        s2_children = refine_slice(a, b, s2)
        piecewise = [compose_slices(a, b, s1, child) for child in s2_children]
        record("refine_compose_coherence", set(piecewise) == set(refine_slice(a, b, direct)))

        delta = path_ending_at(graph, rng, s2.beta.range, 2)
        s3 = Slice(s2.beta, rng.randint(-3, 3), delta)
        for middle, s1_middle in zip(s2_children, piecewise):
            lhs = compose_slices(a, b, s1_middle, s3)
            rhs = compose_slices(a, b, s1, compose_slices(a, b, middle, s3))
            record("associativity", lhs is not None and rhs is not None and slices_equal(a, b, lhs, rhs))

    evidence = hk_check(a, b)
    record("hk_identity", evidence.ok)
    record("route_agreement", evidence.routes_agree)

    pf = is_pseudo_free(a, b)
    failures = sum(slot["failures"] for slot in counters.values())
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "input": _json_input(op),
        "seed": _json_int(seed),
        "trials": _json_int(trials),
        "checks": counters,
        "pseudo_free": pf.verdict,
        "failures": failures,
        "all_ok": failures == 0,
    }


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise InputValidationError("bad trials", "--trials must be nonnegative")
    op = parse_input(_read_source(args.file))
    summary = _run_checks(op, trials=args.trials, seed=args.seed)
    _emit(summary)
    if summary["all_ok"] and summary["pseudo_free"] is True:
        return EXIT_OK
    return EXIT_INCONCLUSIVE


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ParseError instead of printing plain-text
    usage and exiting; `add_subparsers` builds the subparsers from this
    class too."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused: `parse_args`
    returns a fresh namespace and leaves the parser unchanged.  It is not
    built at import, which stays cheap."""
    parser = _Parser(
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
    p_kappa.add_argument("--m", type=_int_flag, required=True)
    p_kappa.add_argument("--path", required=True, help='e.g. "e(1,1,0).e(1,1,1)" or "v(1)"')
    p_kappa.set_defaults(func=_cmd_kappa)

    p_realize = sub.add_parser(
        "realize",
        help="build a pair with prescribed K-theory",
        description=(
            "Build a pair with prescribed K-theory, one diagonal block per unit of --rank and per "
            f"--t0 and --t1 factor; more than {REALIZE_MAX_BLOCKS} blocks exits 3 "
            '("realize block bound").'
        ),
    )
    p_realize.add_argument("--rank", type=_int_flag, required=True, help="free rank of K0 and K1")
    p_realize.add_argument("--t0", default="", help="comma-separated torsion factors for K0")
    p_realize.add_argument("--t1", default="", help="comma-separated torsion factors for K1")
    p_realize.set_defaults(func=_cmd_realize)

    p_check = sub.add_parser("check", help="seeded property sweep on one input")
    p_check.add_argument("file")
    p_check.add_argument("--trials", type=_int_flag, default=50)
    p_check.add_argument("--seed", type=_int_flag, default=0)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:  # --help; a usage error raises ParseError instead
        return EXIT_OK
    except ParseError as exc:
        return _emit_error(EXIT_PARSE, "usage", str(exc))
    try:
        return args.func(args)
    except ParseError as exc:
        return _emit_error(EXIT_PARSE, "parse", str(exc))
    except InputValidationError as exc:
        return _emit_error(EXIT_VALIDATION, exc.assumption, str(exc))
    except InternalError as exc:
        return _emit_error(EXIT_INTERNAL, "internal invariant", str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
