"""Seeded request lists for the benchmark workloads.

Every workload is a list of CLI requests built from a seed and a pass index.  The
program under test only ever sees the JSON input documents written from
these requests; the generator itself never calls into `kep`.

- dense: `analyze`/`compare` on dense pairs, n in {8, 12, 16}, A in 1..9 and
  B in +-1..3, with a share of singular I-A or I-B and of `sft` operands.
  Cost is driven by n through the limit route's matrix powers and Smith forms.
- wide: `analyze`/`compare` at n in {2, 3, 4} on a ladder of entry bit
  lengths (8..160 bits), plus pairs with mismatched supports and an A entry
  in 10^3..10^4, which put the pseudo-freeness edge search on the path.
  Cost is driven by bit length and entry size, not by n.
- sweep: `check --trials T` on pairs with matching supports, n in 2..5, on a
  ladder of row sums (out-degrees) 10..25 with a share at 100..250.  Cost is
  driven by the path action and slice algebra, not by the Smith forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("dense", "wide", "sweep")

CHECK_TRIALS = 30


@dataclass(frozen=True)
class Request:
    """One CLI request: `kind` is the subcommand, `docs` its input documents,
    `tag` names the input class (used to report per-class costs)."""

    kind: str
    tag: str
    docs: tuple[dict, ...]
    options: tuple[str, ...] = ()


def _katsura(a: list[list[int]], b: list[list[int]]) -> dict:
    return {"mode": "katsura", "n": len(a), "A": a, "B": b}


def _sft(a: list[list[int]]) -> dict:
    return {"mode": "sft", "n": len(a), "A": a}


def _permute(rng: random.Random, *mats: list[list[int]]) -> tuple[list[list[int]], ...]:
    """Conjugate every matrix by one random permutation; this keeps
    det(I - M), the supports' agreement and the groups' isomorphism types."""
    n = len(mats[0])
    p = list(range(n))
    rng.shuffle(p)
    return tuple([[m[p[i]][p[j]] for j in range(n)] for i in range(n)] for m in mats)


def _dense_a(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]


def _dense_b(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]


def _make_one_minus_singular(rng: random.Random, m: list[list[int]], allowed) -> None:
    """Edit rows 0 and 1 so that rows 0 and 1 of I - M coincide, which makes
    det(I - M) = 0: row1 = row0 + e1 - e0.  Redraws row 0 until every entry
    of row 1 stays in `allowed`."""
    n = len(m)
    while True:
        row0 = [rng.choice(allowed) for _ in range(n)]
        row1 = list(row0)
        row1[0] -= 1
        row1[1] += 1
        if row1[0] in allowed and row1[1] in allowed:
            m[0], m[1] = row0, row1
            return


def _dense_pair(rng: random.Random, n: int, singular: str | None = None):
    a, b = _dense_a(rng, n), _dense_b(rng, n)
    if singular == "A":
        _make_one_minus_singular(rng, a, range(1, 10))
    elif singular == "B":
        _make_one_minus_singular(rng, b, (-3, -2, -1, 1, 2, 3))
    return _permute(rng, a, b)


def _dense_operand(rng: random.Random, n: int, variant: str) -> tuple[str, dict]:
    if variant == "sft":
        (a,) = _permute(rng, _dense_a(rng, n))
        return "sft", _sft(a)
    a, b = _dense_pair(rng, n, singular={"singA": "A", "singB": "B"}.get(variant))
    return variant, _katsura(a, b)


# Latency percentiles are order statistics over the request list, so each
# workload places a plateau of requests of one class where the median and the
# tail percentile (the 11th costliest request) fall.  Each of those metrics
# is then the typical cost of one input class, not whichever neighbour an
# input or a burst of host noise happened to push across a jump in cost.

# (n, analyze variants, compare operand-variant pairs).  By cost: n=8
# analyses, n=8 comparisons (the median falls here), n=12 analyses (the tail
# falls here), then the n=16 analyses, which dominate wall_s.
_DENSE_MIX = (
    (8, ("plain", "singA", "singB", "sft"),
     (("plain", "plain"), ("plain", "sft"), ("singA", "plain"), ("singB", "sft"),
      ("plain", "singB"), ("sft", "sft"), ("singA", "singB"), ("plain", "plain"),
      ("singB", "plain"), ("plain", "sft"), ("singA", "sft"), ("plain", "singA"),
      ("sft", "plain"), ("singB", "singA"), ("plain", "plain"), ("singA", "plain"),
      ("plain", "sft"))),
    (12, ("plain",) * 6 + ("singA", "singA", "singB", "singB", "sft", "sft"), ()),
    (16, ("plain", "singA", "sft"), ()),
)


def dense(rng: random.Random) -> list[Request]:
    out = []
    for n, analyses, comparisons in _DENSE_MIX:
        for variant in analyses:
            tag, doc = _dense_operand(rng, n, variant)
            out.append(Request("analyze", f"n{n}-{tag}", (doc,)))
        for left, right in comparisons:
            tl, dl = _dense_operand(rng, n, left)
            tr, dr = _dense_operand(rng, n, right)
            out.append(Request("compare", f"n{n}-{tl}-{tr}", (dl, dr)))
    return out


def _entry(rng: random.Random, bits: int) -> int:
    return rng.randint(1 << (bits - 1), (1 << bits) - 1)


def _wide_pair(rng: random.Random, n: int, bits: int):
    """Full support, so the cost depends on n and `bits` and not on a
    randomly thinned support."""
    a = [[_entry(rng, bits) for _ in range(n)] for _ in range(n)]
    b = [[rng.choice((-1, 1)) * _entry(rng, bits) for _ in range(n)] for _ in range(n)]
    return a, b


def _mismatched_pair(rng: random.Random, big: int, off_support: bool):
    """2x2 pair with A[0][0] = big.  With `off_support`, B is nonzero where
    A is zero (the brute refutation search runs its whole window); without,
    B vanishes on a support entry of A (the search finds a witness)."""
    a = [[big, 0], [rng.randint(1, 9), rng.randint(1, 9)]]
    if off_support:
        b = [[rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((-1, 1)) * rng.randint(1, 9)],
             [rng.randint(1, 9), rng.randint(1, 9)]]
    else:
        b = [[rng.randint(1, 9), 0], [0, rng.randint(1, 9)]]
    return a, b


_WIDE_BITS = (8, 24, 40, 56, 72, 88, 104, 120, 136, 160)
# n=4 grows fastest with bit length (about 1.5 s at 136 bits and 4 s at
# 160), so it runs on every other rung only.
_WIDE_N4_BITS = (8, 40, 72, 104, 136)
_WIDE_MEDIAN = ("analyze", 3, 80, 15)  # plateau: kind, n, bits, count
_WIDE_TAIL = ("compare", 3, 104, 9)


def _wide_request(rng: random.Random, kind: str, n: int, bits: int) -> Request:
    docs = tuple(_katsura(*_wide_pair(rng, n, bits)) for _ in range(1 if kind == "analyze" else 2))
    return Request(kind, f"b{bits}-n{n}", docs)


def wide(rng: random.Random) -> list[Request]:
    out = [_wide_request(rng, "analyze", n, bits)
           for bits in _WIDE_BITS for n in ((2, 3, 4) if bits in _WIDE_N4_BITS else (2, 3))]
    out += [_wide_request(rng, "compare", 3, bits) for bits in (8, 40)]
    for kind, n, bits, count in (_WIDE_MEDIAN, _WIDE_TAIL):
        out += [_wide_request(rng, kind, n, bits) for _ in range(count)]
    for exponent in (3, 3.5, 4):
        for off in (False, True):
            a, b = _mismatched_pair(rng, round(10 ** exponent) - rng.randint(0, 99), off)
            out.append(Request("analyze", f"mismatch-{'off' if off else 'zero'}", (_katsura(a, b),)))
    return out


def _sweep_pair(rng: random.Random, n: int, row_sum: int):
    """Full support; each row of A is a random split of `row_sum` into n
    positive parts, and B is +-1..3 on the same support."""
    a, b = [], []
    for _ in range(n):
        cuts = sorted(rng.sample(range(1, row_sum), n - 1))
        a.append([hi - lo for lo, hi in zip([0, *cuts], [*cuts, row_sum])])
        b.append([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)])
    return a, b


# (row sum, n, count).  By cost: small row sums, the median plateau at 16,
# the tail plateau at 25, then the share with row sums of 100..250.
_SWEEP_MIX = (
    (10, 2, 3), (11, 3, 3), (12, 4, 3), (13, 5, 3),
    (16, 3, 14),
    (25, 3, 10),
    (100, 2, 1), (100, 4, 1), (130, 3, 1), (160, 3, 1), (250, 2, 1),
)


def sweep(rng: random.Random) -> list[Request]:
    out = []
    for row_sum, n, count in _SWEEP_MIX:
        for _ in range(count):
            a, b = _sweep_pair(rng, n, row_sum)
            opts = ("--trials", str(CHECK_TRIALS), "--seed", str(rng.randrange(1 << 30)))
            out.append(Request("check", f"deg{row_sum}-n{n}", (_katsura(a, b),), opts))
    return out


def build(workload: str, seed: int, draw: int = 0) -> list[Request]:
    """The request list of `workload` for `seed` and pass `draw`.  Every
    draw has the same input classes in the same order; each draws its own
    matrices."""
    rng = random.Random(f"{workload}:{seed}" if draw == 0 else f"{workload}:{seed}:{draw}")
    return {"dense": dense, "wide": wide, "sweep": sweep}[workload](rng)
