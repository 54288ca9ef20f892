"""The structural classifier: what a pair (A, B) guarantees about its groupoid.

Each verdict is a checkable matrix condition.  The sufficient-condition
fields assert a property when True; False only means the witness was not
found.  Pseudo-freeness is decided exactly; Hausdorffness uses None for
"unknown".
"""

from kep import IntMatrix, classify


def show(title, a, b):
    report = classify(IntMatrix(a), IntMatrix(b))
    print(f"{title}:")
    print("  pseudo_free:", report.pseudo_free, " hausdorff:", report.hausdorff)
    print("  effective_sufficient:", report.effective_sufficient,
          " minimal_pi_sufficient:", report.minimal_pi_sufficient)
    print("  condition_O:", report.condition_O,
          " principal_sufficient:", report.principal_sufficient)
    for note in report.notes:
        print("  note:", note)
    print()


# The doubling pair: everything good.  The two loops give every cycle an
# exit, and the ratio B/A = 1/2 contracts, so effectiveness is certified.
show("A=(2), B=(1)", [[2]], [[1]])

# Balanced ratios: B/A = 1 never contracts, so the effectiveness witness
# fails (and indeed no infinite path has vanishing B-to-A weight).
show("A=(2), B=(2)", [[2]], [[2]])

# A single loop with no second edge: a cycle without exit.
show("A=(1), B=(1)", [[1]], [[1]])

# A permutation matrix is irreducible but excluded by the minimality test.
show("permutation", [[0, 1], [1, 0]], [[0, 1], [1, 0]])

# B = 0 on the support refutes pseudo-freeness outright (every m fixes
# every edge with zero carry), which is the shift-of-finite-type situation.
show("A=(2), B=(0)", [[2]], [[0]])

# B nonzero off the support: the supports differ, but B is nonzero on every
# edge, so no m != 0 fixes an edge with zero carry and the pair is pseudo-free.
show("off-support B", [[1, 0], [1, 1]], [[1, 5], [1, 1]])

# An irreducible 2x2 pair with condition (O): A_ii >= 2 and A_ii > |B_ii|.
show("A'=[[2,1],[1,2]], B=ones", [[2, 1], [1, 2]], [[1, 1], [1, 1]])
