"""Constructing cord sets: minimum lassos, circular orderings, bipartitions.

Run:  python3 demos/04_minimum_lassos.py
"""

from math import comb

from treelasso import (
    Bipartition,
    XTree,
    bipartition_lasso,
    circular_lasso,
    circular_order,
    classify,
    min_equidistant_lasso,
    min_topological_lasso,
    min_weak_lasso,
)


def show(cords):
    return " ".join(a + b for a, b in sorted(cords))


tree = XTree((("a", "b", "c"), ("d", "e")))
print("tree:", tree.canonical_newick())
print("interior vertices:", len(tree.interior_vertices()), "\n")

# One cord per interior vertex is enough to pin the weighting, and no
# smaller set can be: every interior vertex must be some cord's meeting
# point.
eq = min_equidistant_lasso(tree)
print(f"minimum equidistant lasso ({len(eq)} cords):", show(eq))

# Forcing the shape needs a clique at every vertex: sum of (children choose
# 2) cords, realized with one representative leaf per child edge.
topo = min_topological_lasso(tree)
expected = sum(comb(len(tree.children(v)), 2) for v in tree.interior_vertices())
print(f"minimum topological lasso ({len(topo)} = {expected} cords):", show(topo))

# Corralling is cheaper than forcing the shape: pseudo-cherries only need a
# spanning path, not all pairs.
weak = min_weak_lasso(tree)
print(f"minimum weak lasso ({len(weak)} cords):", show(weak))
for dropped in sorted(weak):
    assert not classify(tree, weak - {dropped}).weak
print("removal-minimal: dropping any cord breaks the corral\n")

# Circular lassos: consecutive leaves of a planar embedding.  Always an
# equidistant lasso; topological only when the tree is binary (the root may
# also have three children).
order = circular_order(tree)
lc = circular_lasso(order)
print("circular ordering:", "-".join(order.order))
report = classify(tree, lc)
print(f"circular lasso ({len(lc)} cords):", show(lc))
print("  equidistant:", report.equidistant, "| topological:", report.topological)

# Bipartition lassos: all cords across a 2-coloring.  Corrals the tree as
# soon as every pseudo-cherry sees both colors.
bp = Bipartition(frozenset("ace"), frozenset("bd"))
ab = bipartition_lasso(bp)
report = classify(tree, ab)
print(f"\nbipartition {{a,c,e}} vs {{b,d}} ({len(ab)} cords):", show(ab))
print("  weak:", report.weak, "| equidistant:", report.equidistant, "| topological:", report.topological)
