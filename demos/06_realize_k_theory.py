"""Building pairs with prescribed K-theory from 1x1 blocks.

Three block types suffice: ((d+1), (2)) puts Z/d into K0, ((2), (d+1))
puts Z/d into K1, and ((2), (1)) puts a copy of Z into both.  Stacking
blocks diagonally adds their K-theories.  Every output is verified by one
analysis that the result carries: the formula route's K must equal the
target, and the limit route's homology must equal the formula route's.
The one obstruction at finite matrix size: K0 and K1 always share their
free rank, so targets with different ranks are refused.
"""

from kep import FGAbelianGroup, realize

# K0 = Z + Z/6, K1 = Z + Z/10
k0 = FGAbelianGroup(1, (6,))
k1 = FGAbelianGroup(1, (10,))
result = realize(k0, k1)
evidence = result.report.evidence
print("target K0 =", k0, "  K1 =", k1)
print("A =")
print(result.a)
print("B =")
print(result.b)
print("achieved:", evidence.k0, "and", evidence.k1)

# The limit route recomputed the homology without the closed formulas.
print("limit route H =", [str(g) for g in evidence.limit.degrees()],
      " agrees:", evidence.routes_agree)

# The empty target still needs a matrix: a single block with trivial K.
trivial = realize(FGAbelianGroup.trivial(), FGAbelianGroup.trivial())
print("\ntrivial target -> A =", trivial.a.to_lists(), " B =", trivial.b.to_lists(),
      " K =", (str(trivial.report.evidence.k0), str(trivial.report.evidence.k1)))

# Torsion chains merge like abelian groups, so composite orders also work.
chain = realize(FGAbelianGroup(0, (2, 4, 8)), FGAbelianGroup(0, (25,)))
print("\nchain target (Z/2 + Z/4 + Z/8, Z/25):")
print("A diag =", [chain.a[i, i] for i in range(chain.a.rows)])
print("B diag =", [chain.b[i, i] for i in range(chain.b.rows)])
print("achieved:", chain.report.evidence.k0, "and", chain.report.evidence.k1)

# Mismatched free ranks cannot come from square integer matrices:
# rank(K0) = nullity(I-A) + nullity(I-B) = rank(K1), always.
refused = realize(FGAbelianGroup(2, ()), FGAbelianGroup(1, ()))
print("\nasking for ranks (2, 1):", refused.reason)
