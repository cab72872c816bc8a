"""The definition-level oracle: brute force against the characterizations.

The child-edge graph conditions are fast but indirect.  On small leaf sets
the library can also answer straight from the definitions: enumerate every
tree on the leaf set, and solve an exact system of height differences asking
whether two trees can carry proper equidistant weightings that agree on all
cords.  The system holds only identifications and strict orders, so it is
decided exactly by integer longest paths, each strict order one step, never
with floating-point tolerance.

Run:  python3 demos/05_definition_level_oracle.py
"""

from treelasso import (
    XTree,
    classify,
    cord_set,
    enumerate_xtrees,
    joint_isometry_system,
    oracle_topological,
    oracle_weak,
    print_newick,
    strict_feasible,
    verify_witness,
)

# Every tree on a leaf set, one per equivalence class, canonical order.
for labels in (["a", "b", "c"], ["a", "b", "c", "d"], ["a", "b", "c", "d", "e"]):
    trees = enumerate_xtrees(labels)
    binary = [t for t in trees if t.is_binary()]
    print(f"{len(labels)} leaves: {len(trees):3d} trees, {len(binary):3d} binary")

tree = XTree((("a", "b", "c"), "d"))
cords = cord_set([("a", "b"), ("a", "d")])
print("\ntree: ", tree.canonical_newick())
print("cords:", " ".join(a + b for a, b in sorted(cords)))

# The characterization says this is not a weak lasso (leaf c dangles); the
# oracle agrees and produces an explicit counterexample: a non-refining
# rival tree plus two weightings with identical distances on every cord.
print("characterization says weak:", classify(tree, cords).weak)
ok, witness = oracle_weak(tree, cords)
print("oracle says weak:          ", ok)
print("witness, same cord distances, not a refinement:")
print("  ", print_newick(tree, witness.heights_t.to_edge_weights()))
print("  ", print_newick(witness.rival, witness.heights_rival.to_edge_weights()))
print("witness re-verified:", verify_witness(tree, cords, witness, "weak"))

# The underlying machinery: a joint feasibility system over both trees'
# interior heights.  Infeasible means no rival weighting pair exists.
star = XTree(("a", "b", "c"))
triplet = XTree((("a", "b"), "c"))
full = cord_set([("a", "b"), ("a", "c"), ("b", "c")])
system = joint_isometry_system(triplet, star, full)
print("\ncan a star fit all three cord distances of a weighted triplet tree?")
print("  strictly feasible:", strict_feasible(system) is not None)

one = cord_set([("a", "b")])
point = strict_feasible(joint_isometry_system(triplet, star, one))
print("with only the cord ab it can:", {str(k): str(v) for k, v in sorted(point.items(), key=repr)})

# Add cords until the shape is forced.
print()
for pairs in ([("a", "b")], [("a", "b"), ("a", "c")], [("a", "b"), ("a", "c"), ("b", "c")]):
    ok, wit = oracle_topological(star, cord_set(pairs))
    label = " ".join(a + b for a, b in pairs)
    print(f"star on three leaves with [{label}]: shape forced = {ok}"
          + (f" (rival {wit.rival.canonical_newick()})" if wit else ""))
