"""Output checks that do not rely on `kep`'s Smith-form code.

Determinants and ranks come from this file's own rational elimination.  On
every printed report the checks confirm:

- det(I - A) and det(I - B) equal the oracle's determinants;
- every free rank equals the nullity the oracle predicts from rational ranks;
- H0's torsion order is |det(I - A)| when that is nonzero (and likewise the
  torsion of coker(I - B) inside H1 for a pair);
- K0 = H0 + H2 and K1 = H1 hold on the printed groups, and the limit route
  printed the same homology as the formula route;
- a comparison's flags and verdict follow from the printed groups;
- `check` reports zero failures.

`pinned_fields` selects the parts of an output that must also match the
record taken from the unmodified library (`pinned.json`).  Classifier fields
and notes are deliberately left out: they are expected to become more exact.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, prod

VALIDITY_OK = "ok"
VERDICT_DISTINGUISHED = "distinguished (not Kakutani equivalent)"
VERDICT_NOT_DISTINGUISHED = "not distinguished by these invariants"


class Mismatch(Exception):
    """An output that contradicts the oracle."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def det_and_rank(m: list[list[int]]) -> tuple[int, int]:
    """Determinant and rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    n, cols = len(a), len(a[0])
    det = Fraction(1)
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, n) if a[r][c] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        p = a[rank][c]
        det *= p
        for r in range(rank + 1, n):
            f = a[r][c] / p
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    if rank < n:
        det = Fraction(0)
    _require(det.denominator == 1, "oracle determinant is not an integer")
    return int(det), rank


def one_minus(m: list[list[int]]) -> list[list[int]]:
    return [[(1 if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(m)]


def _int(v) -> int:
    """Report integers beyond 53 bits arrive as decimal strings."""
    if isinstance(v, bool):
        raise Mismatch(f"boolean where an integer was expected: {v!r}")
    return int(v)


def invariant_chain(factors: list[int]) -> tuple[int, ...]:
    """Invariant factors of the direct sum of the cyclic groups Z/f, by the
    exchange Z/a + Z/b = Z/gcd + Z/lcm until each factor divides the next."""
    fs = sorted(f for f in factors if f > 1)
    i = 0
    while i < len(fs) - 1:
        a, b = fs[i], fs[i + 1]
        if b % a:
            g = gcd(a, b)
            fs[i], fs[i + 1] = g, a // g * b
            fs = sorted(f for f in fs if f > 1)
            i = 0
        else:
            i += 1
    return tuple(fs)


def render(free: int, torsion: tuple[int, ...]) -> str:
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " ⊕ ".join(parts) if parts else "0"


def parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    """Inverse of `render`; rejects anything that is not canonical."""
    if text == "0":
        return 0, ()
    free, torsion = 0, []
    for part in text.split(" ⊕ "):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise Mismatch(f"unparseable group {text!r}")
    group = (free, tuple(torsion))
    _require(render(*group) == text and invariant_chain(torsion) == tuple(torsion),
             f"group {text!r} is not in canonical form")
    return group


def direct_sum(g, h):
    return g[0] + h[0], invariant_chain(list(g[1]) + list(h[1]))


class Facts:
    """The oracle's view of one input document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.n = doc["n"]
        self.a = doc["A"]
        self.b = doc.get("B") or [[0] * self.n for _ in range(self.n)]
        self.det_ia, rank_ia = det_and_rank(one_minus(self.a))
        self.det_ib, rank_ib = det_and_rank(one_minus(self.b))
        self.null_ia = self.n - rank_ia
        self.null_ib = self.n - rank_ib
        self.sft = doc["mode"] == "sft"
        self.supports_match = all(
            (x == 0) == (y == 0) for ra, rb in zip(self.a, self.b) for x, y in zip(ra, rb)
        )


def check_invariants(facts: Facts, h: list[str], k: list[str], det: dict) -> None:
    """Checks shared by `analyze` and each side of `compare`."""
    _require(len(h) == 4 and len(k) == 2, "wrong number of degrees")
    h0, h1, h2, h3 = (parse_group(g) for g in h)
    k0, k1 = (parse_group(g) for g in k)
    _require(_int(det["I_minus_A"]) == facts.det_ia, "det(I-A) differs from the oracle")
    _require(_int(det["I_minus_B"]) == facts.det_ib, "det(I-B) differs from the oracle")
    _require(h3 == (0, ()), "H3 is not trivial")
    _require(h0[0] == facts.null_ia, "free rank of H0 differs from nullity(I-A)")
    if facts.det_ia:
        _require(prod(h0[1]) == abs(facts.det_ia), "torsion order of H0 is not |det(I-A)|")
    if facts.sft:
        _require(h1 == (facts.null_ia, ()), "H1 of an sft operand must be ker(I-A)")
        _require(h2 == (0, ()), "H2 of an sft operand must vanish")
    else:
        _require(h1[0] == facts.null_ia + facts.null_ib,
                 "free rank of H1 differs from nullity(I-A) + nullity(I-B)")
        if facts.det_ib:
            _require(prod(h1[1]) == abs(facts.det_ib), "torsion order of H1 is not |det(I-B)|")
        _require(h2 == (facts.null_ib, ()), "H2 differs from ker(I-B)")
    _require(k0 == direct_sum(h0, h2), "K0 is not H0 + H2")
    _require(k1 == h1, "K1 is not H1")


def check_analyze(doc: dict, out: dict) -> None:
    facts = Facts(doc)
    _require(out.get("command") == "analyze", "not an analyze report")
    _require(out["input"] == _echo(doc), "input echo differs")
    check_invariants(facts, out["H"], out["K"], out["det"])
    _require(out["H_limit_route"] == out["H"], "limit route disagrees with the formula route")
    for text, structured in zip(out["H"] + out["K"], out["H_structured"] + out["K_structured"]):
        torsion = tuple(_int(d) for d in structured["torsion"])
        _require(render(structured["free_rank"], torsion) == text, "structured group differs from text")
    _require(out["hk_ok"] is True and out["oracle_ok"] is True, "route check flags are not true")
    expect_ok = facts.sft or facts.supports_match
    _require((out["validity"] == VALIDITY_OK) == expect_ok, "validity does not follow the supports")


def check_compare(docs: tuple[dict, dict], out: dict) -> None:
    left, right = Facts(docs[0]), Facts(docs[1])
    _require(out.get("command") == "compare", "not a compare report")
    _require(out["inputs"] == [_echo(docs[0]), _echo(docs[1])], "input echo differs")
    check_invariants(left, out["H_left"], out["K_left"], out["det_left"])
    check_invariants(right, out["H_right"], out["K_right"], out["det_right"])
    iso = [g == h for g, h in zip(out["H_left"], out["H_right"])]
    _require(out["homology_isomorphic"] == iso, "homology_isomorphic does not follow H")
    _require(out["k0_equal"] == (out["K_left"][0] == out["K_right"][0]), "k0_equal does not follow K0")
    _require(out["k1_equal"] == (out["K_left"][1] == out["K_right"][1]), "k1_equal does not follow K1")
    _require(out["k_theory_equal"] == (out["k0_equal"] and out["k1_equal"]), "k_theory_equal")
    _require(out["ker_I_minus_A_isomorphic"] == (left.null_ia == right.null_ia), "ker(I-A) flag")
    _require(out["ker_I_minus_B_isomorphic"] == (left.null_ib == right.null_ib), "ker(I-B) flag")
    _require(out["distinguished"] == (not all(iso)), "distinguished does not follow H")
    verdict = VERDICT_DISTINGUISHED if out["distinguished"] else VERDICT_NOT_DISTINGUISHED
    _require(out["verdict"] == verdict, "verdict does not follow distinguished")


def check_check(doc: dict, trials: int, out: dict) -> None:
    _require(out.get("command") == "check", "not a check report")
    _require(out["input"] == _echo(doc), "input echo differs")
    _require(out["trials"] == trials, "trial count differs")
    _require(out["failures"] == 0 and out["all_ok"] is True, "check reported failures")
    _require(all(slot["failures"] == 0 for slot in out["checks"].values()), "a check law failed")
    _require(out["pseudo_free"] is True, "matching supports must be pseudo-free")


def _echo(doc: dict) -> dict:
    """The input as the report echoes it: integers beyond 53 bits as strings."""
    def j(x: int):
        return x if -(1 << 53) < x < (1 << 53) else str(x)
    out = {"mode": doc["mode"], "n": doc["n"], "A": [[j(x) for x in row] for row in doc["A"]]}
    if "B" in doc:
        out["B"] = [[j(x) for x in row] for row in doc["B"]]
    return out


def pinned_fields(kind: str, code: int, out: dict) -> dict:
    """The parts of one output that must match the record from the
    unmodified library."""
    if kind == "analyze":
        keys = ("H", "H_limit_route", "K", "det", "validity")
    elif kind == "compare":
        keys = ("H_left", "H_right", "K_left", "K_right", "det_left", "det_right",
                "homology_isomorphic", "k0_equal", "k1_equal", "k_theory_equal",
                "ker_I_minus_A_isomorphic", "ker_I_minus_B_isomorphic", "distinguished", "verdict")
    else:
        keys = ("trials", "failures", "all_ok")
    return {"exit_code": code, **{key: out[key] for key in keys}}


def digest(fields: dict) -> str:
    text = json.dumps(fields, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def verify(request, code: int, stdout: str, stderr: str, pinned: str | None) -> None:
    """Raise Mismatch unless one request's outcome is correct.

    `pinned` is the recorded digest for this request, or None when the run's
    seed has no record."""
    _require(code == 0, f"exit code {code}")
    _require(stderr == "", "unexpected output on stderr")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None
    try:
        if request.kind == "analyze":
            check_analyze(request.docs[0], out)
        elif request.kind == "compare":
            check_compare(request.docs, out)
        else:
            check_check(request.docs[0], int(request.options[1]), out)
        if pinned is not None:
            _require(digest(pinned_fields(request.kind, code, out)) == pinned,
                     "output differs from the pinned record")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise Mismatch(f"malformed report: {exc!r}") from None


def corruptions(kind: str, out: dict):
    """Wrong variants of a correct report, each of which the oracle must
    reject without help from the pinned record."""
    def edit(fn):
        bad = json.loads(json.dumps(out))
        fn(bad)
        return json.dumps(bad)

    if kind == "analyze":
        def bump_det(r): r["det"]["I_minus_A"] = str(_int(r["det"]["I_minus_A"]) + 1)
        def grow_h0(r): r["H"][0] = render(*direct_sum(parse_group(r["H"][0]), (1, ())))
        def drop_k0(r): r["K"][0] = render(*direct_sum(parse_group(r["K"][0]), (0, (2,))))
        def limit(r): r["H_limit_route"][1] = render(*direct_sum(parse_group(r["H_limit_route"][1]), (1, ())))
        def route(r): r["oracle_ok"] = False
        return [edit(f) for f in (bump_det, grow_h0, drop_k0, limit, route)]
    if kind == "compare":
        def flip(r): r["distinguished"] = not r["distinguished"]
        def verdict(r): r["verdict"] = VERDICT_DISTINGUISHED if r["verdict"] == VERDICT_NOT_DISTINGUISHED else VERDICT_NOT_DISTINGUISHED
        def k0(r): r["k0_equal"] = not r["k0_equal"]
        def det(r): r["det_right"]["I_minus_B"] = str(_int(r["det_right"]["I_minus_B"]) - 1)
        return [edit(f) for f in (flip, verdict, k0, det)]
    def fail(r): r["failures"] = 1; r["all_ok"] = False
    def law(r): next(iter(r["checks"].values()))["failures"] = 1
    return [edit(f) for f in (fail, law)]


def self_test(request, stdout: str) -> tuple[int, list[str]]:
    """Feed wrong variants of a verified output to the oracle: corrupted
    reports, a wrong exit code and a traceback.  Returns how many were tried
    and a description of each one the oracle wrongly accepted."""
    cases = [(0, bad, "", f"corruption {i}") for i, bad in enumerate(corruptions(request.kind, json.loads(stdout)))]
    cases.append((1, stdout, "", "exit code 1"))
    cases.append((0, stdout, "Traceback (most recent call last):\n", "traceback"))
    missed = []
    for code, out, err, what in cases:
        try:
            verify(request, code, out, err, None)
        except Mismatch:
            continue
        missed.append(f"{request.kind} {what}")
    return len(cases), missed
