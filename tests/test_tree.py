"""Structural queries on rooted leaf-labeled trees."""

import random
import re
import sys
import time
import tracemalloc

import pytest

from conftest import (
    LABELS4,
    LABELS5,
    LABELS6,
    bearded_caterpillar,
    clade_by_sorting,
    count_binary_xtrees,
    pseudo_cherries,
    random_xtree,
    restrict,
    tree_triplets,
    triplet,
    triplets_by_restriction,
)
from treelasso import XTree, enumerate_xtrees, parse_newick
from treelasso.tree import _LABEL_RE

CAT = XTree(((("a", "b"), "c"), "d"))
STAR3 = XTree(("a", "b", "c"))
T4 = XTree((("a", "b", "c"), "d"))
BAL = XTree((("a", "b"), ("c", "d")))


def test_lca_cherry_and_outermost():
    assert CAT.lca("a", "b") == CAT.parent(CAT.leaf_vertex("a"))
    assert CAT.lca("a", "d") == CAT.root
    assert STAR3.lca("a", "c") == STAR3.root


def test_lca_errors():
    # the equal-labels check comes first, then the labels in argument order
    cases = {
        ("a", "z"): "unknown leaf label 'z'",
        ("z", "a"): "unknown leaf label 'z'",
        ("y", "z"): "unknown leaf label 'y'",
        ("z", "z"): "lca requires two distinct leaf labels",
        ("a", "a"): "lca requires two distinct leaf labels",
    }
    for (a, b), message in cases.items():
        with pytest.raises(ValueError) as raised:
            CAT.lca(a, b)
        assert str(raised.value) == message


def test_label_is_for_leaves_only():
    assert CAT.label(CAT.leaf_vertex("c")) == "c"
    for v in CAT.interior_vertices():
        with pytest.raises(ValueError, match=f"^vertex {v} is interior and has no leaf label$"):
            CAT.label(v)


def test_leaves_below():
    assert CAT.leaves_below(CAT.lca("a", "b")) == frozenset("ab")
    assert CAT.leaves_below(CAT.root) == frozenset("abcd")
    assert CAT.leaves_below(CAT.leaf_vertex("c")) == frozenset("c")


# Each accessor, with the arguments it takes after the vertex id.
ACCESSORS = {
    "children": (),
    "parent": (),
    "depth": (),
    "is_leaf": (),
    "label": (),
    "leaves_below": (),
    "child_toward": ("a",),
}


@pytest.mark.parametrize("accessor", ACCESSORS)
@pytest.mark.parametrize(
    "v", [-1, -BAL.n_vertices, BAL.n_vertices, BAL.n_vertices + 5, 1.0, True, False]
)
def test_accessors_reject_ids_that_are_not_vertices(accessor, v):
    # a bool is an int to Python, but True is not vertex 1
    assert BAL.n_vertices == 7
    with pytest.raises(ValueError) as raised:
        getattr(BAL, accessor)(v, *ACCESSORS[accessor])
    assert str(raised.value) == f"{v} is not a vertex of this tree"


@pytest.mark.parametrize("label", [["a"], {"a"}, {"a": 1}])
def test_label_accessors_reject_unhashable_labels(label):
    # an unhashable label is as unknown as a missing one: ValueError, not TypeError
    with pytest.raises(ValueError, match=r"unknown leaf label"):
        BAL.leaf_vertex(label)
    for a, b in ((label, "a"), ("a", label)):
        with pytest.raises(ValueError, match=r"unknown leaf label"):
            BAL.lca(a, b)
    with pytest.raises(ValueError, match=r"is not below vertex 0"):
        BAL.child_toward(BAL.root, label)


def brute_leaves(t, v):
    """Leaf labels below v, by walking children() from v."""
    out, stack = set(), [v]
    while stack:
        u = stack.pop()
        if t.is_leaf(u):
            out.add(t.label(u))
        else:
            stack.extend(t.children(u))
    return frozenset(out)


def assert_leaf_queries_match_brute(t, vertices):
    for v in vertices:
        assert t.leaves_below(v) == brute_leaves(t, v)
    assert t.leaf_labels == brute_leaves(t, t.root)
    # a pseudo-cherry parent: a non-root vertex whose children are all leaves
    expected = tuple(
        (v, frozenset(t.label(c) for c in t.children(v)))
        for v in t.interior_vertices()
        if v != t.root and all(t.is_leaf(c) for c in t.children(v))
    )
    assert pseudo_cherries(t) == expected


LEAF_QUERY_TREES = [
    *(random_xtree(300, seed) for seed in range(3)),
    bearded_caterpillar(2, 99),
    bearded_caterpillar(4, 25),
    XTree(tuple(f"s{i}" for i in range(12))),
    XTree("a"),
    *enumerate_xtrees(LABELS5),
]


def test_leaf_ranges_match_brute_recomputation():
    for t in LEAF_QUERY_TREES:
        assert_leaf_queries_match_brute(t, t.vertices())


def test_clade_names_match_per_vertex_sorting():
    # every vertex, none, nested chains and seeded subsets, leaves included
    rng = random.Random(3)
    for t in LEAF_QUERY_TREES:
        everyone = list(t.vertices())
        deepest = max(everyone, key=t.depth)
        chain = [deepest]
        while t.parent(chain[-1]) is not None:
            chain.append(t.parent(chain[-1]))
        picks = [everyone, [], chain, t.interior_vertices()]
        picks += [rng.sample(everyone, rng.randint(1, len(everyone))) for _ in range(3)]
        for vertices in picks:
            names = t._clade_names(iter(vertices))
            assert names == {v: clade_by_sorting(t, v) for v in vertices}


def test_deep_caterpillar_parse_retains_linear_memory():
    # Per-vertex leaf sets would hold O(n * depth) labels here: 349 MB.
    n = 4000
    text = "(" * n + "a0" + "".join(f",a{i})" for i in range(1, n + 1)) + ";"
    tracemalloc.start()
    try:
        tree, _ = parse_newick(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 20 * 2**20, f"the parsed tree retains {retained / 2**20:.1f} MB"
    # Keeping every subtree's canonical key until the end would peak near 61 MB.
    assert peak < 10 * 2**20, f"parsing peaked at {peak / 2**20:.1f} MB"
    assert tree.n_vertices == 2 * n + 1
    assert_leaf_queries_match_brute(tree, range(0, tree.n_vertices, 97))


def test_restrict_examples():
    assert restrict(CAT, {"a", "b", "c"}) == XTree((("a", "b"), "c"))
    assert restrict(CAT, CAT.leaf_labels) == CAT
    # suppressing the former cherry parent leaves a new cherry {a, c}
    assert restrict(CAT, {"a", "c", "d"}) == XTree((("a", "c"), "d"))


def test_restrict_to_tiny_sets():
    assert restrict(CAT, {"a", "b"}) == XTree(("a", "b"))
    single = restrict(CAT, {"c"})
    assert single.leaf_labels == frozenset("c")
    assert single.n_vertices == 1


def test_restrict_errors():
    with pytest.raises(ValueError):
        restrict(CAT, set())
    with pytest.raises(ValueError):
        restrict(CAT, {"a", "z"})


def test_restrict_full_set_is_identity_for_all_small_trees():
    for labels in (LABELS4, LABELS5):
        for t in enumerate_xtrees(labels):
            assert restrict(t, t.leaf_labels) == t


def test_triplets_star_empty():
    assert tree_triplets(STAR3) == frozenset()


def test_triplets_match_restriction_oracle():
    assert tree_triplets(T4) == triplets_by_restriction(T4) == {
        triplet("a", "b", "d"),
        triplet("a", "c", "d"),
        triplet("b", "c", "d"),
    }
    for t in enumerate_xtrees(LABELS4):
        assert tree_triplets(t) == triplets_by_restriction(t)


def test_triplets_match_restriction_oracle_on_seeded_trees():
    for seed in range(40):
        t = random_xtree(7 + seed % 2, seed)
        assert tree_triplets(t) == triplets_by_restriction(t)


def test_triplet_count_bound_equality_iff_binary():
    from math import comb

    for labels in (LABELS4, LABELS5):
        for t in enumerate_xtrees(labels):
            bound = comb(len(labels), 3)
            assert len(tree_triplets(t)) <= bound
            assert (len(tree_triplets(t)) == bound) == t.is_binary()


def test_equivalence_ignores_child_order():
    shuffled = XTree(("d", (("b", "a"), "c")))
    assert CAT.is_equivalent(shuffled)
    assert not STAR3.is_equivalent(XTree((("a", "b"), "c")))


def test_equivalence_requires_same_leaf_set():
    with pytest.raises(ValueError):
        CAT.is_equivalent(STAR3)


def test_equivalence_iff_same_triplets():
    trees = enumerate_xtrees(LABELS4)
    for t1 in trees:
        for t2 in trees:
            assert t1.is_equivalent(t2) == (tree_triplets(t1) == tree_triplets(t2))


def test_refines_examples():
    tri = XTree((("a", "b"), "c"))
    assert tri.refines(tri)
    assert tri.refines(STAR3)
    assert not STAR3.refines(tri)
    with pytest.raises(ValueError, match="^trees are on different leaf sets$"):
        CAT.refines(STAR3)


def test_refines_is_a_partial_order_on_four_leaves():
    trees = enumerate_xtrees(LABELS4)
    for t in trees:
        assert t.refines(t)
    for t1 in trees:
        for t2 in trees:
            if t1.refines(t2) and t2.refines(t1):
                assert t1.is_equivalent(t2)
            for t3 in trees:
                if t1.refines(t2) and t2.refines(t3):
                    assert t1.refines(t3)


def _collapsed(t, drop):
    """``t`` with the interior vertices in ``drop`` contracted into their parents."""
    shapes = {}  # vertex -> the child shapes it hands its parent
    for v in reversed(t.vertices()):
        if t.is_leaf(v):
            shapes[v] = [t.label(v)]
        else:
            kids = [s for c in t.children(v) for s in shapes.pop(c)]
            shapes[v] = kids if v in drop else [tuple(kids)]
    return XTree(shapes[t.root][0])


def _clusters(t):
    return {t.leaves_below(v) for v in t.vertices()}


def _collapse_some(t, rng):
    inner = [v for v in t.interior_vertices() if v != t.root]
    return _collapsed(t, set(rng.sample(inner, rng.randrange(len(inner) + 1))))


def test_refines_matches_triplet_containment():
    # every ordered pair of five-leaf trees, a seeded sample of six-leaf
    # pairs, and six-leaf trees against copies with edges collapsed
    trees5 = enumerate_xtrees(LABELS5)
    pairs = [(a, b) for a in trees5 for b in trees5]
    trees6 = enumerate_xtrees(LABELS6)
    rng = random.Random(61)
    pairs += [(rng.choice(trees6), rng.choice(trees6)) for _ in range(5000)]
    pairs += [(t, _collapse_some(t, rng)) for t in rng.sample(trees6, 300)]
    refining = 0
    for a, b in pairs:
        got = a.refines(b)
        assert got == (tree_triplets(b) <= tree_triplets(a)), (a, b)
        refining += got
    assert 0 < refining < len(pairs)


def test_refines_is_linear_at_200_leaves():
    # two seeded 200-leaf trees, each against itself, the other, and a copy
    # of itself with edges collapsed: fast, small, and equal to cluster-set
    # containment (the triplet sets are O(n^3) to build at this size)
    rng = random.Random(200)
    t1, t2 = random_xtree(200, 1), random_xtree(200, 2, binary=True)
    pairs = [(t1, t1), (t1, t2), (t2, t1), (t1, _collapse_some(t1, rng)), (t2, _collapse_some(t2, rng))]
    start = time.process_time()
    fast = [a.refines(b) for a, b in pairs]
    elapsed = time.process_time() - start
    tracemalloc.start()
    try:
        for a, b in pairs:
            a.refines(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 5 * 2**20
    assert fast == [True, False, False, True, True]
    assert fast == [_clusters(b) <= _clusters(a) for a, b in pairs]


def test_pseudo_cherries():
    (v, leaves), = pseudo_cherries(CAT)
    assert leaves == frozenset("ab")
    assert v == CAT.lca("a", "b")
    (v4, leaves4), = pseudo_cherries(T4)
    assert leaves4 == frozenset("abc")
    assert pseudo_cherries(STAR3) == ()


def test_every_non_star_tree_has_a_pseudo_cherry():
    for labels in (LABELS4, LABELS5):
        for t in enumerate_xtrees(labels):
            if not t.is_star():
                assert pseudo_cherries(t)


def test_interior_minus():
    def interior_minus(t):
        return set(t.interior_vertices()) - {v for v, _ in pseudo_cherries(t)}

    mid = CAT.lca("a", "c")
    assert interior_minus(CAT) == {CAT.root, mid}
    assert interior_minus(STAR3) == {STAR3.root}
    assert interior_minus(BAL) == {BAL.root}


def test_is_binary_is_star():
    assert CAT.is_binary() and not CAT.is_star()
    star4 = XTree(("a", "b", "c", "d"))
    assert not star4.is_binary() and star4.is_star()
    assert not T4.is_binary() and not T4.is_star()


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        XTree((("a",), "b"))  # unary vertex
    with pytest.raises(ValueError):
        XTree(("a", "a"))  # duplicate label
    with pytest.raises(ValueError):
        XTree(("a b", "c"))  # whitespace in label
    with pytest.raises(ValueError):
        XTree(("a:", "c"))  # reserved character
    with pytest.raises(ValueError):
        XTree(("", "c"))  # empty label


def test_shape_errors_come_in_left_to_right_order():
    # Each node is checked when the walk first reaches it; duplicates are
    # reported at their first repeat in canonical preorder.
    cases = [
        ((("a",), "b c"), "unary interior vertex is not allowed"),
        (("b c", ("a",)), "invalid leaf label 'b c': whitespace and '(),:;' are reserved"),
        ((("a", "x y"), ("a", "b")), "invalid leaf label 'x y'"),
        (("a", "", ("b",)), "leaf label must be a nonempty string, got ''"),
        ((5, ("a",)), "tree shape must be a label or an iterable, got 5"),
        (["a", ["b", "c", []]], "interior vertex with no children"),
        ((("b", "b"), ("a", "a")), "duplicate leaf label 'a'"),
        ((("z", "z"), "y", ("y", "x")), "duplicate leaf label 'z'"),
    ]
    for shape, message in cases:
        with pytest.raises(ValueError) as err:
            XTree(shape)
        assert str(err.value).startswith(message), shape


def test_label_pattern_rejects_exactly_whitespace_and_delimiters():
    # The Newick parser reads labels with _LABEL_RE and skips whitespace
    # where str.isspace() says so, then trusts both without _check_label:
    # that is sound only while re's \s and str.isspace() agree everywhere.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = {ch for ch in everything if ch.isspace()}
    assert set(re.findall(r"\s", everything)) == spaces
    assert set(_LABEL_RE.sub("", everything)) == spaces | set("(),:;")
    for ch in sorted(spaces) + list("(),:;"):
        with pytest.raises(ValueError, match="reserved"):
            XTree((f"a{ch}b", "c"))


def test_child_toward():
    v = CAT.lca("a", "c")
    assert CAT.leaves_below(CAT.child_toward(v, "a")) == frozenset("ab")
    assert CAT.child_toward(v, "c") == CAT.leaf_vertex("c")
    # d is not below v; a leaf vertex has no child, not even toward itself
    for u in (v, CAT.leaf_vertex("a"), CAT.leaf_vertex("d")):
        with pytest.raises(ValueError) as raised:
            CAT.child_toward(u, "d")
        assert str(raised.value) == f"leaf 'd' is not below vertex {u}"


def test_enumerations_are_canonical_and_distinct():
    trees = enumerate_xtrees(LABELS4)
    keys = [t.canonical_newick() for t in trees]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(t.leaf_labels == frozenset(LABELS4) for t in trees)
    assert sum(t.is_binary() for t in trees) == count_binary_xtrees(4)
