"""Homology and K-theory of a pair, computed twice and reconciled.

Route one: closed formulas through Smith forms of I - A and I - B.
Route two: the stationary inductive limit Z^n -> Z^n -> ... with the shift
endomorphism; `limit_route_homology` reads the kernel and cokernel of
(identity - shift) off one fraction-free adjugate of T - I (and one rank
when T - I is singular), without ever looking at the closed formulas.  The
two agree on every valid input, and K0 = H0 + H2, K1 = H1 ties homology to
K-theory.

The peek inside the limit below uses the lattice model that route two is
proven against: `eventual_kernel` and `ker_one_minus_shift` build the
eventual kernel, the fixed sublattice and their quotient, while
`coker_one_minus_shift` is the route's own cokernel.
"""

import random

from kep import (
    IntMatrix,
    StationaryLimit,
    analyze,
    coker_one_minus_shift,
    eventual_kernel,
    hk_check,
    homology,
    ker_one_minus_shift,
    ktheory,
    limit_route_homology,
)
from kep.invariants import Operand

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

# A peek inside the limit model for the doubling map (the 2-adic odometer
# side of this example): the connecting map 2 is injective, so nothing
# eventually dies, and only 0 is fixed by the shift.
lim = StationaryLimit(IntMatrix([[2]]))
print("\nlimit over T=(2): eventual kernel =", eventual_kernel(lim))
print("ker(1 - shift) =", ker_one_minus_shift(lim), "  coker(1 - shift) =", coker_one_minus_shift(lim))

# For T=(1) the limit is plain Z and the shift is the identity.
lim1 = StationaryLimit(IntMatrix([[1]]))
print("limit over T=(1): ker(1 - shift) =", ker_one_minus_shift(lim1),
      "  coker(1 - shift) =", coker_one_minus_shift(lim1))

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
print("all agree.")

# The one-call summary used by the command line tool; its evidence is the
# hk_check record above.
report = analyze(Operand("katsura", a, b))
print("\nfull report: H =", [str(g) for g in report.evidence.formula.degrees()],
      " K =", [str(report.evidence.k0), str(report.evidence.k1)],
      " hk_ok =", report.evidence.ok, " validity =", report.validity)
