"""
Root systems and Weyl groups, two ways
======================================

The catalog's integer bookkeeping rests on exact root-system arithmetic:
roots are integer tuples in doubled ambient coordinates (so the
half-integer roots of F4 and E8 are integers too), reflections are
integer matrices on the simple-root basis, and Weyl-group orders come
either from the highest root's coefficients or from brute-force
generation.  The two must agree, and orbits of generic vectors must span
the reflection representation.
"""

from isofib.rootsys import (
    SimpleType,
    build_root_system,
    highest_root,
    product_system,
    weyl_order,
    weyl_order_bfs,
    weyl_orbit_spans,
)

# build a root system from its family letter and rank; everything
# downstream is exact integer arithmetic
rs = build_root_system(SimpleType("F", 4))
print(f"F4: {len(rs.all_roots)} roots in ambient dimension {rs.ambient_dim}")

hr = highest_root(rs)
print(f"highest root coefficients on the simple basis: {hr.coefficients}")

# order of the Weyl group: the highest-root formula l! n_1...n_l f reads
# the coefficients above, the generation count multiplies actual matrices
print("\nfamily  highest-root  generated")
for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
    system = build_root_system(SimpleType(family, rank))
    a = weyl_order(system)
    b = weyl_order_bfs(system)
    assert a == b
    print(f"{family}{rank:d}      {a:12d}  {b:9d}")

# the large exceptional orders come from the highest root alone, in
# integer arithmetic with no rounding step
for rank in (6, 7, 8):
    system = build_root_system(SimpleType("E", rank))
    print(f"E{rank}: |W| = {weyl_order(system)}")

# a nonzero vector's Weyl orbit spans the whole reflection representation
# exactly when the system is irreducible; a product system gives vectors
# that stay inside one factor
g2 = build_root_system(SimpleType("G", 2))
print(f"\nG2 orbit of a simple root spans: {weyl_orbit_spans(g2, g2.simple_roots[0])}")

a1a1 = product_system(
    build_root_system(SimpleType("A", 1)), build_root_system(SimpleType("A", 1))
)
inside = a1a1.simple_roots[0]
mixed = tuple(a + b for a, b in zip(*a1a1.simple_roots))
print(f"A1 x A1, vector in one factor spans: {weyl_orbit_spans(a1a1, inside)}")
print(f"A1 x A1, mixed vector spans:         {weyl_orbit_spans(a1a1, mixed)}")

# integers stay exact through the whole pipeline
assert all(type(x) is int for v in rs.all_roots for x in v)
print(f"\nall coordinates are integers; highest root, doubled: {hr.vector}")
