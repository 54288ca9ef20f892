"""The odometer-like action on graph paths and its integer cocycle.

A pair of matrices (A, B) acts on the edges of the graph of A: the integer
m moves the edge label by m*B[i,j] with carry into the quotient by A[i,j].
Feeding each edge's carry into the next edge extends the action to paths,
exactly like adding with carries in a mixed-radix number system.
"""

from kep import (
    Edge,
    EventuallyPeriodicPath,
    Graph,
    IntMatrix,
    Path,
    fixes_path,
    is_pseudo_free,
    kappa_edge,
    kappa_path,
    phi_vertex_sum,
)

a = IntMatrix([[2]])
b = IntMatrix([[1]])
graph = Graph(a)
print("graph of A=(2):", [str(e) for e in graph.edges()], "(two loops at one vertex)")

# One step of the action on an edge: label 0, m = 1 -> label 1, carry 0.
e0, e1 = Edge(1, 1, 0), Edge(1, 1, 1)
for m, e in [(1, e0), (1, e1), (-1, e0)]:
    image, carry = kappa_edge(a, b, m, e)
    print(f"kappa_{m}({e}) = {image}, carry {carry}")
print("   (the second line wraps around; the third uses floor division to keep labels in range)")

# On paths this is binary addition: the path (e1, e1) is the numeral 11.
p = Path.of([e1, e1])
image, carry = kappa_path(a, b, 1, p)
print(f"\nkappa_1({p}) = {image} with carry {carry}   (11 + 1 = 00 carry 1)")

# The carry is a cocycle: phi(m1 + m2, e) = phi(m1, kappa_m2(e)) + phi(m2, e).
for m1 in (-2, 3):
    for m2 in (5, -7):
        e2, p2 = kappa_edge(a, b, m2, e0)
        _, p12 = kappa_edge(a, b, m1 + m2, e0)
        _, p1 = kappa_edge(a, b, m1, e2)
        print(f"cocycle at m1={m1:+d}, m2={m2:+d}: {p12} == {p1} + {p2}")

# Summing carries over all parallel edges recovers m * B[v,w].
print("\nsum of phi(3, e) over edges 1->1:", phi_vertex_sum(a, b, 3, 1, 1), "= 3 * B[1,1]")

# Pseudo-freeness: only m = 0 may fix an edge with zero carry.  B matching
# the support of A is a sufficient criterion; B = 0 is a counterexample.
print("\npseudo-free (A=(2), B=(1)):", is_pseudo_free(a, b))
print("pseudo-free (A=(2), B=(0)):", is_pseudo_free(a, IntMatrix([[0]])))

# Which m fix the constant infinite path e0 e0 e0 ... ?  The divisibility
# criterion m * B(x|l) / A(x|l) in Z must hold for every prefix.
loop = EventuallyPeriodicPath(Path.empty(1), Path.of([e0]))
fixing = [m for m in range(-10, 11) if fixes_path(a, b, m, loop)]
print("\nm fixing (e0)^inf for B=(1):", fixing, " (the ratio 1/2 per step kills m != 0)")
fixing2 = [m for m in range(-10, 11) if fixes_path(a, IntMatrix([[2]]), m, loop)]
print("m fixing (e0)^inf for B=(2):", fixing2, " (ratio 1 per step, every m survives)")
