"""Child-edge graphs: construction against a path-walking oracle, predicates."""

import random
import re
from itertools import combinations

import pytest

from conftest import (
    LABELS4,
    LABELS5,
    all_cord_subsets,
    bearded_caterpillar,
    brute_child_edge_pairs,
    brute_linked_child_edges,
    caterpillar,
    leaf_path_edges,
    pseudo_cherries,
    random_cords,
    random_xtree,
    walk_meet,
    walked_child_pairs,
)
from treelasso import (
    XTree,
    build_child_edge_graph,
    child_edge_graphs,
    cord_set,
    enumerate_xtrees,
    parse_newick,
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


def _dot_ids(dot: str) -> list[str]:
    """The double-quoted IDs of DOT text, in order, read by DOT's quoting rule:
    inside quotes, ``\\"`` stands for a quote and every other character,
    a backslash included, stands for itself."""
    ids = []
    start = dot.find('"')
    while start >= 0:
        text, i = [], start + 1
        while dot[i] != '"':
            step = 2 if dot.startswith('\\"', i) else 1
            text.append(dot[i + step - 1])
            i += step
        ids.append("".join(text))
        start = dot.find('"', i + 1)
    return ids


@pytest.mark.parametrize(
    "newick, cords",
    [
        ('((a"x,b),c\\d,e);', [('a"x', "b"), ('a"x', "e")]),
        ('(("q,x\\"y),(\\"z,w\\z),\\");', [('"q', 'x\\"y'), ('\\"z', '\\"'), ('"q', "w\\z")]),
    ],
)
def test_dot_ids_read_back_as_the_names(newick, cords):
    # every ID, a label holding '"' or '\\' or a clade of such labels, reads
    # back under DOT's quoting rule as the name it stands for
    tree, _ = parse_newick(newick)

    def name(v):
        return tree.label(v) if tree.is_leaf(v) else "{" + ",".join(sorted(tree.leaves_below(v))) + "}"

    for g in child_edge_graphs(tree, cords).values():
        expected = [name(u) for u in g.nodes] + [name(x) for e in sorted(g.edges()) for x in e]
        assert _dot_ids(g.to_dot()) == expected


def test_dot_refuses_a_leaf_label_ending_in_a_backslash():
    tree, _ = parse_newick("((a\\,b),c);")
    cherry = tree.parent(tree.leaf_vertex("a\\"))
    with pytest.raises(ValueError, match=re.escape(repr("a\\"))):
        build_child_edge_graph(tree, [("a\\", "b")], cherry).to_dot()
    # inside a clade name the label is followed by ',' or '}', and is written
    root = build_child_edge_graph(tree, [("a\\", "c")], tree.root).to_dot()
    assert _dot_ids(root) == ["{a\\,b}", "c", "{a\\,b}", "c"]


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
    ends = set()  # per meet, whether the child toward each side is m's heavy child
    for t in enumerate_xtrees(LABELS4) + enumerate_xtrees(LABELS5):
        labels = sorted(t.leaf_labels)
        pairs = [(a, b) for a in labels for b in labels if a != b]
        expected = [walk_meet(t, t.leaf_vertex(a), t.leaf_vertex(b)) for a, b in pairs]
        assert t._meets(pairs) == expected
        ends |= {(cu == t._heavy[m], cw == t._heavy[m]) for m, cu, cw in expected}
        for a in labels:
            with pytest.raises(ValueError, match="two distinct labels"):
                t._meets([pairs[0], (a, a)])
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
    # Every branch of the climb's end: both sides jumped onto m from light
    # children on different heavy paths, or one side reached m along one
    # path, as the first end or as the second.
    assert ends == {(False, False), (False, True), (True, False)}


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
    pairs = sorted(cords)
    expected = [walk_meet(tree, tree.leaf_vertex(a), tree.leaf_vertex(b)) for a, b in pairs]
    assert tree._meets(pairs) == expected
    assert tree._meets([(b, a) for a, b in pairs]) == [(m, cw, cu) for m, cu, cw in expected]
    for (a, b), (m, _, _) in zip(pairs, expected):
        assert tree.lca(a, b) == tree.lca(b, a) == m
    assert _child_pairs(tree, cords) == walked_child_pairs(tree, cords)

    # any two leaves, in one climb; equal ends raise
    rng = random.Random(size)
    pairs = [(a, b) for a, b in zip(rng.choices(labels, k=500), rng.choices(labels, k=500)) if a != b]
    expected = [walk_meet(tree, tree.leaf_vertex(a), tree.leaf_vertex(b)) for a, b in pairs]
    assert tree._meets(pairs) == expected
    with pytest.raises(ValueError, match="two distinct labels"):
        tree._meets([*pairs, (labels[0], labels[0])])

    # child_toward: sampled leaves against every proper ancestor, by walking up
    for a in rng.sample(labels, min(len(labels), 40)):
        w = tree.leaf_vertex(a)
        while tree.parent(w) is not None:
            assert tree.child_toward(tree.parent(w), a) == w
            w = tree.parent(w)
