"""Exact integer linear algebra: Smith and Hermite forms, determinants, cokernels.

Everything runs over Python's arbitrary-precision integers; there is no
floating point anywhere, so the 40-digit example at the end is as exact as
the 2x2 one.
"""

from kep import FGAbelianGroup, IntMatrix, det, from_cokernel, hnf, snf

# A small matrix with a nontrivial invariant factor structure.
m = IntMatrix([[2, 4], [6, 8]])
print("M =")
print(m)

decomp = snf(m)
print("\nSmith normal form D = U M V:")
print(decomp.D)
print("U =")
print(decomp.U)
print("V =")
print(decomp.V)
print("check U M V == D:", decomp.U @ m @ decomp.V == decomp.D)
print("det U =", det(decomp.U), " det V =", det(decomp.V))

# The diagonal encodes the cokernel: Z^2 / M Z^2 = Z/2 + Z/4.
print("\ncoker(M) =", from_cokernel(m))
print("|det M| =", abs(det(m)), "= product of invariant factors")

# A singular matrix: its zero invariant factor is a free summand.
singular = IntMatrix([[-1, -1], [-1, -1]])
print("\ncoker([[-1,-1],[-1,-1]]) =", from_cokernel(singular), " (one invariant factor is 1, one is 0)")

# The column Hermite form is the canonical basis of the column lattice.
print("\nhnf(M) =")
print(hnf(m))

# Groups are isomorphism classes: direct sums renormalize automatically.
from kep import direct_sum

g = direct_sum(FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (3,)))
print("\nZ/2 + Z/3 =", g, " (Chinese remainder merge)")
print("Z/2 + Z/4 =", direct_sum(FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (4,))), " (no overmerge)")

# Arbitrary precision in action: a cokernel with a 40-digit torsion factor.
big = 10**40 + 1
huge = IntMatrix([[big]])
print("\ncoker([[10^40 + 1]]) =", from_cokernel(huge))
