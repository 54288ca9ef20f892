"""Two groupoids with the same K-theory, told apart by homology.

The pair A=(2), B=(1) and the shift-of-finite-type groupoid of
A' = [[2,1],[1,2]] both have K0 = K1 = Z, so K-theory alone cannot
separate them.  Their homologies differ in degrees 0 and 2, and homology
is an invariant of Kakutani equivalence - so the two groupoids are not
Kakutani equivalent.  The comparator never claims the converse: when all
invariants agree it only reports "not distinguished".
"""

from kep import IntMatrix, compare, homology, ktheory, sft_homology
from kep.invariants import Operand

a, b = IntMatrix([[2]]), IntMatrix([[1]])
a_sft = IntMatrix([[2, 1], [1, 2]])

print("pair (A=(2), B=(1)):")
h = homology(a, b)
print("  H =", [str(g) for g in h.degrees()], "  K =", [str(g) for g in ktheory(a, b)])

print("SFT groupoid of A' = [[2,1],[1,2]]:")
hs = sft_homology(a_sft)
print("  H =", [str(g) for g in hs.degrees()], "  K =", [str(g) for g in ktheory(a_sft, IntMatrix.zeros(2, 2))])

report = compare(Operand("katsura", a, b), Operand("sft", a_sft))
print("\nk_theory_equal:      ", report.k_theory_equal)
print("homology_isomorphic: ", report.homology_isomorphic, "(degrees 0..3)")
print("ker(I-A) isomorphic: ", report.ker_ia_isomorphic)
print("ker(I-B) isomorphic: ", report.ker_ib_isomorphic)
print("det(I-A):", report.det_left[0], "vs", report.det_right[0])
print("verdict:             ", report.verdict)

# Determinants and cokernels classify irreducible SFT groupoids among
# themselves; for pairs, homology refines the picture.  A same-side example:
p1 = Operand("katsura", IntMatrix([[3]]), IntMatrix([[2]]))
p2 = Operand("katsura", IntMatrix([[3]]), IntMatrix([[4]]))
r = compare(p1, p2)
print("\n(3,2) vs (3,4): H left =", [str(g) for g in r.h_left.degrees()],
      " H right =", [str(g) for g in r.h_right.degrees()])
print("verdict:", r.verdict, "(they differ in degree 1)")

same = compare(p1, p1)
print("\n(3,2) vs itself:", same.verdict)
