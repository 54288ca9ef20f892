"""Homology and K-theory of a pair, computed twice and reconciled.

Route one: closed formulas through Smith forms of I - A and I - B.
Route two: the stationary inductive limit Z^n -> Z^n -> ... with the shift
endomorphism; `limit_route_homology` reads the cokernel of 1 - shift off
one fraction-free Gauss-Jordan elimination of 1 - T, its determinant and
the gcd of its adjugate's entries (and a Smith form when 1 - T is
singular or its cokernel is not cyclic), and the kernel off that
cokernel's free rank, without ever looking at the closed formulas.  The two
agree on every valid input, and K0 = H0 + H2, K1 = H1 ties homology to
K-theory.

The peek inside the limit below runs route two's own step,
`coker_one_minus_shift`, which returns the cokernel of 1 - shift, and
checks its free rank, the rank of the kernel of 1 - shift, against the
nullity of 1 - T over the rationals.
"""

import random
from fractions import Fraction

from kep import (
    FGAbelianGroup,
    IntMatrix,
    StationaryLimit,
    analyze,
    coker_one_minus_shift,
    hk_check,
    homology,
    ktheory,
    limit_route_homology,
)
from kep.invariants import Operand


def rational_nullity(m: IntMatrix) -> int:
    """Columns of M minus its rank over the rationals (Gaussian elimination)."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, m.rows):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return m.cols - rank


def free_rank_is_nullity(t: IntMatrix) -> bool:
    """Whether the route's coker(1 - shift) over T has free rank
    nullity(T - I): the rank of ker(1 - shift), which the splitting
    L' = EK + ker(T - I) shows free of that rank."""
    coker = coker_one_minus_shift(StationaryLimit(t))
    return coker.free_rank == rational_nullity(t - IntMatrix.identity(t.rows))


a = IntMatrix([[2]])
b = IntMatrix([[1]])

h = homology(a, b)
print("formula route:   H0 =", h.h0, "  H1 =", h.h1, "  H2 =", h.h2)
limit = limit_route_homology(a, b)
print("limit route:     H0 =", limit.h0, "  H1 =", limit.h1, "  H2 =", limit.h2)
# Groups are stored in canonical form, so == decides isomorphism.
print("degreewise isomorphic:", h == limit)

k0, k1 = ktheory(a, b)
print("\nK0 =", k0, "  K1 =", k1)
# hk_check runs both routes once and keeps both tuples.
evidence = hk_check(a, b)
print("K0 == H0 + H2 and K1 == H1:", evidence.ok, "  routes agree:", evidence.routes_agree)

# A peek inside the limit for the doubling map (the 2-adic odometer side of
# this example): T - I = (1) is invertible, so only 0 is fixed by the shift.
# For T=(1) the limit is plain Z and the shift is the identity.
print()
for label, t in (("(2)", IntMatrix([[2]])), ("(1)", IntMatrix([[1]]))):
    coker = coker_one_minus_shift(StationaryLimit(t))
    ker = FGAbelianGroup.free(coker.free_rank)
    print(f"limit over T={label}: ker(1 - shift) = {ker}  coker(1 - shift) = {coker}")
    assert free_rank_is_nullity(t)

# The agreement is not special to the example: try fresh random pairs.
rng = random.Random(0)
print("\nchecking 25 random pairs...", end=" ")
for _ in range(25):
    n = rng.randint(1, 4)
    while True:
        rows_a, rows_b = [], []
        for _ in range(n):
            ra = [rng.choice([0, rng.randint(1, 9)]) for _ in range(n)]
            rows_a.append(ra)
            rows_b.append([rng.choice([x for x in range(-4, 7) if x]) if x else 0 for x in ra])
        if all(any(r) for r in rows_a):
            break
    aa, bb = IntMatrix(rows_a), IntMatrix(rows_b)
    evidence = hk_check(aa, bb)
    assert evidence.ok and evidence.routes_agree
    assert free_rank_is_nullity(aa.transpose()) and free_rank_is_nullity(bb.transpose())
print("all agree.")

# The one-call summary used by the command line tool; its evidence is the
# hk_check record above.
report = analyze(Operand("katsura", a, b))
print("\nfull report: H =", [str(g) for g in report.evidence.formula.degrees()],
      " K =", [str(report.evidence.k0), str(report.evidence.k1)],
      " hk_ok =", report.evidence.ok, " validity =", report.validity)
