"""Arithmetic of basic bisections Z(alpha, m, beta) at finite depth.

A slice maps the cylinder of beta onto the cylinder of alpha through the
action of m.  Slices refine into one child per edge, compose like partial
maps, and invert by swapping sides; the groupoid laws fall out of the
cocycle identities.
"""

from kep import (
    Edge,
    IntMatrix,
    Path,
    Slice,
    compose_slices,
    invert_slice,
    refine_slice,
    slice_image_cylinder,
    slices_equal,
)

a = IntMatrix([[2]])
b = IntMatrix([[1]])
v = Path.empty(1)
p0, p1 = Path.of([Edge(1, 1, 0)]), Path.of([Edge(1, 1, 1)])

# The global translation slice Z(v, 1, v): x -> kappa_1(x) on all paths.
s = Slice(v, 1, v)
print("refine", s, "->", [str(c) for c in refine_slice(a, b, s)])
print("   (the +1 odometer: 0... -> 1..., and 1... -> 0... with carry)")

# Composition with matching middles just adds the translation parts.
print("\nZ(v,1,v) . Z(v,2,v) =", compose_slices(a, b, Slice(v, 1, v), Slice(v, 2, v)))

# With unequal depths, the deeper side forces a refinement first.
s2 = Slice(p0, 0, p0)  # identity on the cylinder of e(1,1,0)
product = compose_slices(a, b, s, s2)
print("Z(v,1,v) . Z(e0,0,e0) =", product)
print("   image of the tail e(1,1,1):", slice_image_cylinder(a, b, product, p1))

# Inversion swaps the legs and negates the translation.
print("\ninverse of", product, "is", invert_slice(product))
unit = compose_slices(a, b, invert_slice(product), product)
print("inverse . slice =", unit, " (a unit slice: zero translation, equal legs)")

# Slice equality is semantic: a slice equals the union of its refinements.
children = refine_slice(a, b, s)
print("\nZ(v,1,v) equals itself refined:", slices_equal(a, b, s, s))
print("but not the identity slice:", slices_equal(a, b, s, Slice(v, 0, v)))
print("children are pairwise distinct:", not slices_equal(a, b, children[0], children[1]))

# Disjoint middles compose to nothing.
a2 = IntMatrix([[2, 1], [1, 2]])
b2 = IntMatrix([[1, 1], [1, 1]])
left = Slice(Path.empty(1), 0, Path.of([Edge(1, 1, 0)]))
right = Slice(Path.of([Edge(1, 1, 1)]), 0, Path.empty(1))
print("\nslices with incomparable middles compose to:", compose_slices(a2, b2, left, right))
