"""Cord-set constructions: minimum lassos, circular orderings, bipartitions."""

import pytest
from math import comb

from conftest import (
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
    cord_set,
    enumerate_xtrees,
    min_equidistant_lasso,
    min_topological_lasso,
    min_weak_lasso,
)
from treelasso.builders import _representatives

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


def test_representatives_are_the_smallest_leaf_below():
    for t in (random_xtree(300, 5), random_xtree(300, 6, binary=True), bearded_caterpillar(3, 40)):
        assert _representatives(t) == [min(t.leaves_below(v)) for v in t.vertices()]


def test_circular_order_examples():
    assert circular_order(CAT).order == ("a", "b", "c", "d")
    assert circular_order(STAR3).order == ("a", "b", "c")
    assert circular_order(CAT, seed=3) == circular_order(CAT, seed=3)
    assert sorted(circular_order(CAT, seed=3).order) == ["a", "b", "c", "d"]


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
    from itertools import combinations

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
