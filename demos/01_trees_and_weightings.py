"""Rooted trees, equidistant weightings, and the distances they induce.

Run:  python3 demos/01_trees_and_weightings.py
"""

from fractions import Fraction

from treelasso import HeightMap, XTree, parse_newick, print_newick

# A tree is built from a nested shape: strings are leaves, tuples are
# interior vertices.  Child order never matters; trees are stored and
# printed canonically.
caterpillar = XTree(((("a", "b"), "c"), "d"))
print("caterpillar:           ", caterpillar.canonical_newick())
print("same tree, shuffled:   ", XTree(("d", ("c", ("b", "a")))).canonical_newick())

# Structural queries
v = caterpillar.lca("a", "c")
print("lca(a, c) covers:      ", sorted(caterpillar.leaves_below(v)))
clusters = (caterpillar.leaves_below(v) for v in caterpillar.interior_vertices())
print("clusters:              ", sorted("".join(sorted(c)) for c in clusters))

# An equidistant weighting assigns every interior vertex a height: the
# distance from that vertex down to each of its leaves.  Every leaf then
# sits at the same depth below the root, and the distance between two
# leaves is twice the height of the vertex where their paths meet.
heights = HeightMap(
    caterpillar,
    {
        caterpillar.root: Fraction(5, 2),
        caterpillar.lca("a", "c"): Fraction(3, 2),
        caterpillar.lca("a", "b"): Fraction(1, 2),
    },
)
print("\nweighted:              ", print_newick(caterpillar, heights.to_edge_weights()))
for pair in [("a", "b"), ("a", "c"), ("a", "d")]:
    print(f"distance {pair[0]}-{pair[1]}:          ", heights.leaf_distance(*pair))

# Weighted Newick round-trips exactly (rationals are parsed as p/q or
# decimals, never floats).
text = print_newick(caterpillar, heights.to_edge_weights())
tree2, weighting2 = parse_newick(text)
print("round-trip equal:      ", HeightMap.from_edge_weights(weighting2) == heights)
