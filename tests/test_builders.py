"""Cord-set constructions: minimum lassos, circular orderings, bipartitions."""

import hashlib
from itertools import combinations

import pytest
from math import comb

from conftest import (
    LABELS3,
    LABELS4,
    LABELS5,
    bearded_caterpillar,
    cord_graph,
    leaf_path_edges,
    pseudo_cherries,
    random_cord_set,
    random_xtree,
)
from treelasso import (
    Bipartition,
    CircularOrdering,
    XTree,
    all_cords,
    bipartition_lasso,
    circular_lasso,
    circular_order,
    classify,
    cord,
    cord_set,
    enumerate_xtrees,
    min_equidistant_lasso,
    min_topological_lasso,
    min_weak_lasso,
)

CAT = XTree(((("a", "b"), "c"), "d"))
T4 = XTree((("a", "b", "c"), "d"))
STAR3 = XTree(("a", "b", "c"))


def test_min_equidistant_examples():
    assert min_equidistant_lasso(CAT) == cord_set([("a", "b"), ("a", "c"), ("a", "d")])
    assert len(min_equidistant_lasso(STAR3)) == 1
    for t in enumerate_xtrees(LABELS4):
        out = min_equidistant_lasso(t)
        assert len(out) == len(t.interior_vertices())
        assert classify(t, out).equidistant
        if t.is_binary():
            assert len(out) == len(t.leaf_labels) - 1


def test_min_topological_examples():
    assert min_topological_lasso(STAR3) == all_cords("abc")
    assert min_topological_lasso(T4) == cord_set(
        [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")]
    )
    for labels in (LABELS4, LABELS5):
        for t in enumerate_xtrees(labels):
            out = min_topological_lasso(t)
            expected = sum(comb(len(t.children(v)), 2) for v in t.interior_vertices())
            assert len(out) == expected
            assert classify(t, out).topological


def test_min_weak_examples():
    assert min_weak_lasso(T4) == cord_set([("a", "b"), ("b", "c"), ("a", "d")])
    assert min_weak_lasso(STAR3) == frozenset()
    assert classify(STAR3, frozenset()).weak
    assert not classify(T4, min_weak_lasso(T4)).topological
    for t in enumerate_xtrees(LABELS5):
        assert classify(t, min_weak_lasso(t)).weak


def test_min_weak_on_bearded_caterpillars():
    for k, length in [(3, 2), (3, 3), (4, 2)]:
        t = bearded_caterpillar(k, length)
        assert all(len(t.children(v)) == k for v in t.interior_vertices())
        out = min_weak_lasso(t)
        assert len(out) == (k - 1) * len(t.interior_vertices())
        assert classify(t, out).weak


def test_builders_are_removal_minimal_on_small_trees():
    for t in enumerate_xtrees(LABELS4):
        for build, kind in [
            (min_equidistant_lasso, "equidistant"),
            (min_topological_lasso, "topological"),
            (min_weak_lasso, "weak"),
        ]:
            out = build(t)
            if t.is_star() and build is min_weak_lasso:
                continue
            for dropped in out:
                assert not getattr(classify(t, out - {dropped}), kind)


# The three minimum lassos, each sorted, on every tree of 3, 4 and 5 leaves,
# on seeded random trees of 6 to 1000 leaves, on a bearded caterpillar and
# on a star: 294 trees, recorded while each builder still walked the tree
# on its own, before they shared one per-vertex pass.
MIN_LASSOS_SHA256 = "bfacae39ac669699899e7da5d7e630c844e4ec1eceee2354560c302e47d7034b"


def test_min_lassos_match_their_recorded_digest():
    trees = [t for labels in (LABELS3, LABELS4, LABELS5) for t in enumerate_xtrees(labels)]
    trees += [
        random_xtree(n, n, binary=binary)
        for n in (6, 7, 8, 10, 12, 16, 20, 30, 50, 100, 200, 500, 1000)
        for binary in (False, True)
    ]
    trees += [bearded_caterpillar(4, 20), XTree(tuple(f"s{i}" for i in range(40)))]
    builders = (min_equidistant_lasso, min_weak_lasso, min_topological_lasso)
    rows = [(t.canonical_newick(), [sorted(build(t)) for build in builders]) for t in trees]
    assert len(rows) == 294
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == MIN_LASSOS_SHA256


def test_representatives_are_the_smallest_leaf_below():
    # Every non-root vertex is a child of some vertex, so the topological
    # lasso's pairs over every child pair show the representative of each.
    for t in (random_xtree(300, 5), random_xtree(300, 6, binary=True), bearded_caterpillar(3, 40)):
        low = {c: min(t.leaves_below(c)) for c in t.vertices() if c != t.root}
        expected = {
            cord(low[c1], low[c2])
            for v in t.interior_vertices()
            for c1, c2 in combinations(t.children(v), 2)
        }
        assert min_topological_lasso(t) == expected


def test_leaf_children_come_in_label_order():
    # the weak rule's spanning path over a pseudo-cherry relies on it
    shapes = [("c", "a", ("e", "d"), "b"), (("z", "y", "x"), "w", ("q", ("p", "o")))]
    trees = [XTree(shape) for shape in shapes]
    trees += [random_xtree(300, 7), bearded_caterpillar(4, 20), *enumerate_xtrees(LABELS5)]
    for t in trees:
        for v in t.interior_vertices():
            leaves = [t.label(c) for c in t.children(v) if t.is_leaf(c)]
            assert leaves == sorted(leaves)


def test_circular_order_examples():
    assert circular_order(CAT).order == ("a", "b", "c", "d")
    assert circular_order(STAR3).order == ("a", "b", "c")
    assert circular_order(CAT, seed=3) == circular_order(CAT, seed=3)
    assert sorted(circular_order(CAT, seed=3).order) == ["a", "b", "c", "d"]
    assert circular_order(CAT, seed=None) == circular_order(CAT)
    assert circular_order(CAT, seed=-5) == circular_order(CAT, seed=-5)


@pytest.mark.parametrize(
    "seed, shown", [([1], r"\[1\]"), (True, "True"), (False, "False"), (1.5, "1.5"), ("x", "'x'")]
)
def test_circular_order_rejects_a_seed_that_is_not_an_int(seed, shown):
    # the rival sample's rule: a list once escaped as random's own TypeError,
    # and a bool, a float or a string drew an embedding
    with pytest.raises(TypeError, match=f"^seed must be an int, got {shown}$"):
        circular_order(CAT, seed=seed)


def test_every_interior_vertex_sits_on_a_consecutive_path():
    for t in enumerate_xtrees(LABELS5):
        order = circular_order(t).order
        n = len(order)
        covered = set()
        for i in range(n):
            a, b = order[i], order[(i + 1) % n]
            covered.update(p for p, _ in leaf_path_edges(t, a, b))
        assert covered >= set(t.interior_vertices())


def test_circular_lasso_examples():
    lc = circular_lasso(CircularOrdering(("a", "b", "c", "d")))
    assert lc == cord_set([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert cord_graph(lc, "abcd")[0]  # a Hamiltonian cycle is connected
    with pytest.raises(ValueError):
        circular_lasso(CircularOrdering(("a", "b")))


def test_circular_ordering_keeps_its_order_as_a_tuple():
    # an order given as a list is stored as a tuple, so the ordering
    # hashes and equals the same order given as a tuple
    ordering = CircularOrdering(("a", "b", "c"))
    other = CircularOrdering(["a", "b", "c"])
    assert other.order == ("a", "b", "c")
    assert other == ordering and hash(other) == hash(ordering)


def test_circular_lasso_is_always_equidistant():
    for labels in (("a", "b", "c"), LABELS4, LABELS5):
        for t in enumerate_xtrees(labels):
            assert classify(t, circular_lasso(circular_order(t))).equidistant


def _circular_topological_condition(t: XTree) -> bool:
    # interior vertices need two children each; the root alone may have three
    for v in t.interior_vertices():
        k = len(t.children(v))
        if v == t.root:
            if k > 3:
                return False
        elif k != 2:
            return False
    return True


def test_circular_lasso_topological_exactly_on_near_binary_trees():
    assert classify(STAR3, circular_lasso(circular_order(STAR3))).topological
    for labels in (("a", "b", "c"), LABELS4, LABELS5):
        for t in enumerate_xtrees(labels):
            lc = circular_lasso(circular_order(t))
            assert classify(t, lc).topological == _circular_topological_condition(t)


def test_bipartition_examples():
    bp = Bipartition(frozenset("ab"), frozenset("cd"))
    assert bipartition_lasso(bp) == cord_set(
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    with pytest.raises(ValueError):
        Bipartition(frozenset("ab"), frozenset("bc"))
    with pytest.raises(ValueError):
        Bipartition(frozenset(), frozenset("ab"))


def test_bipartition_meeting_every_pseudo_cherry_corrals():
    for labels in (LABELS4, LABELS5):
        universe = set(labels)
        for t in enumerate_xtrees(labels):
            cherries = [leaves for _, leaves in pseudo_cherries(t)]
            for r in range(1, len(labels)):
                for a_side in combinations(sorted(universe), r):
                    a = frozenset(a_side)
                    b = frozenset(universe - a)
                    if not all(pc & a and pc & b for pc in cherries):
                        continue
                    report = classify(t, bipartition_lasso(Bipartition(a, b)))
                    assert report.weak
                    assert report.equidistant


def test_bipartition_on_star_is_weak_but_never_topological():
    star5 = XTree(tuple(LABELS5))
    for a in ("a", "ab", "abc"):
        bp = Bipartition(frozenset(a), frozenset(set(LABELS5) - set(a)))
        report = classify(star5, bipartition_lasso(bp))
        assert report.weak
        assert report.equidistant
        assert not report.topological


def test_random_cord_set():
    assert random_cord_set(LABELS4, 3, 9) == random_cord_set(LABELS4, 3, 9)
    assert len(random_cord_set(LABELS4, 3, 9)) == 3
    with pytest.raises(ValueError):
        random_cord_set(LABELS4, 7, 0)
    union = frozenset().union(*(random_cord_set(LABELS4, 3, s) for s in range(100)))
    assert union == all_cords(LABELS4)
