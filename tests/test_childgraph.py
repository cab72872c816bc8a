"""Child-edge graphs: construction against a path-walking oracle, predicates."""

import random
from itertools import combinations

import pytest

from conftest import (
    LABELS4,
    LABELS5,
    all_cord_subsets,
    bearded_caterpillar,
    brute_child_edge_pairs,
    brute_linked_child_edges,
    leaf_path_edges,
    pseudo_cherries,
    random_cords,
    random_xtree,
    vertex_meet,
    walk_meet,
    walked_child_pairs,
)
from treelasso import (
    XTree,
    build_child_edge_graph,
    child_edge_graphs,
    cord_set,
    enumerate_xtrees,
)
from treelasso.childgraph import _child_pairs

T4 = XTree((("a", "b", "c"), "d"))
PC4 = T4.lca("a", "b")  # parent of the pseudo-cherry {a, b, c}

# Nine-leaf tree reconstructing the rich-graph illustration: a vertex with
# two leaf children and three cherry children, hanging under a root that also
# carries the leaf i.
RICH_TREE = XTree((("a", "b", ("c", "d"), ("e", "f"), ("g", "h")), "i"))
RICH_CORDS = cord_set(
    [("a", "c"), ("a", "e"), ("a", "g"), ("b", "d"), ("b", "e"), ("b", "h"),
     ("c", "e"), ("c", "g"), ("e", "h"), ("c", "d"), ("e", "f"), ("g", "h"),
     ("a", "i")]
)
RICH_V = RICH_TREE.lca("a", "c")


def test_build_path_graph_at_pseudo_cherry_parent():
    g = build_child_edge_graph(T4, cord_set([("a", "b"), ("b", "c")]), PC4)
    ea, eb, ec = (T4.leaf_vertex(x) for x in "abc")
    assert set(g.nodes) == {ea, eb, ec}
    assert set(g.edges()) == {tuple(sorted((ea, eb))), tuple(sorted((eb, ec)))}
    assert g.has_edge() and g.is_connected() and not g.is_clique()


def test_build_empty_cord_set_gives_edgeless_graphs():
    for v, g in child_edge_graphs(T4, frozenset()).items():
        assert not g.has_edge()
        assert list(g.edges()) == []


def test_cord_contributes_only_at_its_meeting_vertex():
    graphs = child_edge_graphs(T4, cord_set([("a", "d")]))
    root_graph = graphs[T4.root]
    assert set(root_graph.edges()) == {tuple(sorted((PC4, T4.leaf_vertex("d"))))}
    assert not graphs[PC4].has_edge()


def test_predicates_on_canonical_shapes():
    bal = XTree((("a", "b"), ("c", "d")))
    edgeless = build_child_edge_graph(bal, frozenset(), bal.root)
    assert (edgeless.has_edge(), edgeless.is_connected(), edgeless.is_clique()) == (False, False, False)
    path = build_child_edge_graph(T4, cord_set([("a", "b"), ("b", "c")]), PC4)
    assert (path.has_edge(), path.is_connected(), path.is_clique()) == (True, True, False)
    triangle = build_child_edge_graph(T4, cord_set([("a", "b"), ("b", "c"), ("a", "c")]), PC4)
    assert (triangle.has_edge(), triangle.is_connected(), triangle.is_clique()) == (True, True, True)


def test_rich_reconstruction():
    g = build_child_edge_graph(RICH_TREE, RICH_CORDS, RICH_V)
    assert len(g.leaf_edges) == 2 and len(g.subtree_edges) == 3
    assert g.is_rich()
    # no cord joins the two leaf edges; richness must not require that
    ea, eb = RICH_TREE.leaf_vertex("a"), RICH_TREE.leaf_vertex("b")
    assert eb not in g.adjacency[ea]
    assert g.is_connected() and not g.is_clique()


def test_rich_needs_every_leaf_to_subtree_pair():
    missing = cord_set(c for c in RICH_CORDS if c != ("b", "h"))
    assert not build_child_edge_graph(RICH_TREE, missing, RICH_V).is_rich()


def test_rich_singleton_subtree_side():
    root_graph = child_edge_graphs(RICH_TREE, RICH_CORDS)[RICH_TREE.root]
    assert root_graph.is_rich()  # one subtree edge, one leaf edge, joined by a-i
    without = child_edge_graphs(RICH_TREE, cord_set(c for c in RICH_CORDS if c != ("a", "i")))
    assert not without[RICH_TREE.root].is_rich()


def test_rich_two_subtree_edges_without_link():
    bal = XTree((("a", "b"), ("c", "d")))
    g = build_child_edge_graph(bal, cord_set([("a", "b"), ("c", "d")]), bal.root)
    assert not g.is_rich()
    g2 = build_child_edge_graph(bal, cord_set([("a", "c")]), bal.root)
    assert g2.is_rich()


def test_rich_undefined_at_pseudo_cherry_parents():
    g = build_child_edge_graph(T4, cord_set([("a", "b")]), PC4)
    with pytest.raises(ValueError):
        g.is_rich()
    star = XTree(("a", "b", "c"))
    with pytest.raises(ValueError):
        build_child_edge_graph(star, cord_set([("a", "b")]), star.root).is_rich()


def test_build_errors():
    with pytest.raises(ValueError):
        build_child_edge_graph(T4, cord_set([("a", "z")]), PC4)
    with pytest.raises(ValueError):
        build_child_edge_graph(T4, frozenset(), T4.leaf_vertex("a"))


def test_edges_match_path_walking_oracle_exhaustively():
    for t in enumerate_xtrees(LABELS4):
        for cords in all_cord_subsets(LABELS4)[::7]:
            graphs = child_edge_graphs(t, cords)
            for v in t.interior_vertices():
                expected = brute_linked_child_edges(t, cords, v)
                assert {frozenset(e) for e in graphs[v].edges()} == expected


def test_predicate_implications_exhaustively():
    for t in enumerate_xtrees(LABELS4):
        pc_parents = {v for v, _ in pseudo_cherries(t)}
        for cords in all_cord_subsets(LABELS4)[::5]:
            for v, g in child_edge_graphs(t, cords).items():
                if g.is_clique():
                    assert g.is_connected()
                if g.is_connected() and len(g.nodes) >= 2:
                    assert g.has_edge()
                if v not in pc_parents and not t.is_star():
                    if g.is_clique():
                        assert g.is_rich()
                    if g.is_rich():
                        assert g.is_connected()


def test_unrelated_cords_do_not_change_the_graph():
    graphs = child_edge_graphs(T4, cord_set([("a", "b")]))
    # a cord meeting above (a-d at the root) or below leaves this graph alone
    more = child_edge_graphs(T4, cord_set([("a", "b"), ("a", "d")]))
    assert graphs[PC4].adjacency == more[PC4].adjacency


def test_batch_matches_single_vertex_builder():
    cords = cord_set([("a", "b"), ("b", "c"), ("a", "d")])
    graphs = child_edge_graphs(T4, cords)
    for v in T4.interior_vertices():
        assert build_child_edge_graph(T4, cords, v) == graphs[v]


def test_dot_export_mentions_every_node_and_edge():
    g = build_child_edge_graph(RICH_TREE, RICH_CORDS, RICH_TREE.root)
    dot = g.to_dot()
    assert dot.startswith("graph child_edges {")
    assert '"i" [shape=box];' in dot
    assert '"{a,b,c,d,e,f,g,h}" [shape=ellipse];' in dot
    assert '"{a,b,c,d,e,f,g,h}" -- "i";' in dot  # the a-i cord meets at the root


# Random multifurcating trees of 300 leaves, and bearded caterpillars up to
# depth 99, where each cord's walk is long.
SCALE_TREES = [("random", 300, seed) for seed in range(3)] + [
    ("bearded", k, length) for k, length in ((2, 99), (3, 40), (5, 20))
]


@pytest.mark.parametrize("kind, size, arg", SCALE_TREES)
def test_meet_walk_matches_path_walking_oracle_at_scale(kind, size, arg):
    tree = random_xtree(size, arg) if kind == "random" else bearded_caterpillar(size, arg)
    labels = sorted(tree.leaf_labels)
    cords = random_cords(tree, 3 * len(labels), seed=len(labels))

    # lca: the one vertex whose two child edges the leaf-to-leaf path uses
    for a, b in cords:
        edges = leaf_path_edges(tree, a, b)
        top = min(tree.depth(p) for p, _ in edges)
        (v, _), (w, _) = [e for e in edges if tree.depth(e[0]) == top]
        assert tree.lca(a, b) == tree.lca(b, a) == v == w

    # child_toward: every leaf against every proper ancestor, by walking up
    for a in labels:
        w = tree.leaf_vertex(a)
        with pytest.raises(ValueError):
            tree.child_toward(w, a)
        while tree.parent(w) is not None:
            assert tree.child_toward(tree.parent(w), a) == w
            w = tree.parent(w)
        for u in tree.children(tree.root):
            if a not in tree.leaves_below(u) and not tree.is_leaf(u):
                with pytest.raises(ValueError):
                    tree.child_toward(u, a)

    expected = brute_child_edge_pairs(tree, cords)
    graphs = child_edge_graphs(tree, cords)
    assert sorted(graphs) == list(tree.interior_vertices())
    for v, g in graphs.items():
        assert g.nodes == tree.children(v)
        pairs = {frozenset((u, w)) for u in g.nodes for w in g.adjacency[u]}
        assert pairs == expected.get(v, set())


def test_meets_match_the_parent_walk_on_every_small_tree():
    for t in enumerate_xtrees(LABELS4) + enumerate_xtrees(LABELS5):
        labels = sorted(t.leaf_labels)
        for u in t.vertices():
            for w in t.vertices():
                assert vertex_meet(t, u, w) == walk_meet(t, u, w)
        for a, b in combinations(labels, 2):
            expected = walk_meet(t, t.leaf_vertex(a), t.leaf_vertex(b))[0]
            assert t.lca(a, b) == t.lca(b, a) == expected
        for v in t.vertices():
            for a in labels:
                meet, child, _ = walk_meet(t, t.leaf_vertex(a), v)
                if meet == v and child >= 0:
                    assert t.child_toward(v, a) == child
                else:
                    with pytest.raises(ValueError):
                        t.child_toward(v, a)
        every = frozenset(combinations(labels, 2))
        assert _child_pairs(t, every) == walked_child_pairs(t, every)


def caterpillar(depth: int) -> XTree:
    shape = "c0"
    for i in range(1, depth + 1):
        shape = (shape, f"c{i}")
    return XTree(shape)


@pytest.mark.parametrize("kind, size, arg", SCALE_TREES + [("caterpillar", 2000, 0)])
def test_meets_match_the_parent_walk_at_scale(kind, size, arg):
    if kind == "random":
        tree = random_xtree(size, arg)
    elif kind == "bearded":
        tree = bearded_caterpillar(size, arg)
    else:
        tree = caterpillar(size)
    labels = sorted(tree.leaf_labels)
    cords = random_cords(tree, min(len(labels), 500), seed=len(labels))
    for a, b in cords:
        u, w = tree.leaf_vertex(a), tree.leaf_vertex(b)
        expected = walk_meet(tree, u, w)
        assert vertex_meet(tree, u, w) == expected
        assert vertex_meet(tree, w, u) == (expected[0], expected[2], expected[1])
        assert tree.lca(a, b) == tree.lca(b, a) == expected[0]
    assert _child_pairs(tree, cords) == walked_child_pairs(tree, cords)

    # any two vertices, ancestor pairs and equal pairs included
    rng = random.Random(size)
    n = tree.n_vertices
    for _ in range(500):
        u, w = rng.randrange(n), rng.randrange(n)
        assert vertex_meet(tree, u, w) == walk_meet(tree, u, w)

    # child_toward: sampled leaves against every proper ancestor, by walking up
    for a in rng.sample(labels, min(len(labels), 40)):
        w = tree.leaf_vertex(a)
        while tree.parent(w) is not None:
            assert tree.child_toward(tree.parent(w), a) == w
            w = tree.parent(w)
