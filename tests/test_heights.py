"""Equidistant weightings: heights, edge weights, induced distances."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LABELS4, LABELS5, random_proper_heights, restrict, tree_triplets, triplet
from treelasso import (
    EdgeWeighting,
    HeightMap,
    XTree,
    cord_set,
    enumerate_xtrees,
    WeightingError,
)

CHERRY3 = XTree((("a", "b"), "c"))
STAR3 = XTree(("a", "b", "c"))


def weights_of(tree, mapping):
    return EdgeWeighting(tree, {tree.leaf_vertex(k) if isinstance(k, str) else k: v
                                for k, v in mapping.items()})


def test_to_edge_weights_star():
    hm = HeightMap(STAR3, {STAR3.root: Fraction(1)})
    assert set(hm.to_edge_weights().by_child.values()) == {Fraction(1)}


def test_to_edge_weights_cherry():
    hm = HeightMap(CHERRY3, {CHERRY3.root: Fraction(3), CHERRY3.lca("a", "b"): Fraction(1)})
    w = hm.to_edge_weights()
    assert w.by_child[CHERRY3.leaf_vertex("a")] == 1
    assert w.by_child[CHERRY3.leaf_vertex("b")] == 1
    assert w.by_child[CHERRY3.leaf_vertex("c")] == 3
    assert w.by_child[CHERRY3.lca("a", "b")] == 2


def test_from_edge_weights_recovers_heights():
    cherry = CHERRY3.lca("a", "b")
    w = weights_of(CHERRY3, {"a": 1, "b": 1, "c": 3, cherry: 2})
    hm = HeightMap.from_edge_weights(w)
    assert hm.heights == {CHERRY3.root: Fraction(3), cherry: Fraction(1)}


def test_from_edge_weights_errors():
    cherry = CHERRY3.lca("a", "b")
    with pytest.raises(WeightingError, match="leaves below vertex .* are at distances"):
        HeightMap.from_edge_weights(weights_of(CHERRY3, {"a": 1, "b": 2, "c": 3, cherry: 2}))
    with pytest.raises(WeightingError, match="interior edge into vertex .* has weight 0"):
        HeightMap.from_edge_weights(weights_of(CHERRY3, {"a": 1, "b": 1, "c": 1, cherry: 0}))
    with pytest.raises(WeightingError, match="^edge into vertex .* has weight -1"):
        HeightMap.from_edge_weights(weights_of(CHERRY3, {"a": -1, "b": 1, "c": 3, cherry: 2}))


def test_zero_pendant_edges_are_legal():
    cherry = CHERRY3.lca("a", "b")
    hm = HeightMap(CHERRY3, {CHERRY3.root: Fraction(1), cherry: Fraction(0)})
    w = hm.to_edge_weights()
    assert w.by_child[CHERRY3.leaf_vertex("a")] == 0
    assert HeightMap.from_edge_weights(w) == hm


def test_height_map_validation():
    cherry = CHERRY3.lca("a", "b")
    with pytest.raises(ValueError):
        HeightMap(CHERRY3, {CHERRY3.root: Fraction(1), cherry: Fraction(1)})  # not strict
    with pytest.raises(ValueError):
        HeightMap(CHERRY3, {CHERRY3.root: Fraction(1), cherry: Fraction(-1)})
    with pytest.raises(ValueError):
        HeightMap(CHERRY3, {CHERRY3.root: Fraction(1)})  # missing vertex
    with pytest.raises(TypeError):
        HeightMap(CHERRY3, {CHERRY3.root: 1.5, cherry: 0.5})  # floats rejected


CAT4 = XTree(((("a", "b"), "c"), "d"))  # root 0 above 1 above 2


@pytest.mark.parametrize(
    "tree, heights, error, message",
    [
        (CHERRY3, {0: Fraction(1), 1: Fraction(-1)}, ValueError,
         "height of vertex 1 is negative: -1"),
        (CHERRY3, {0: Fraction(1), 1: Fraction(1)}, ValueError,
         "heights must strictly decrease along interior edges (0 -> 1: 1 -> 1)"),
        (CHERRY3, {0: Fraction(1), 1: Fraction(2)}, ValueError,
         "heights must strictly decrease along interior edges (0 -> 1: 1 -> 2)"),
        (CHERRY3, {0: Fraction(1)}, ValueError,
         "heights must cover exactly the interior vertices"),
        (CHERRY3, {0: Fraction(3), 1: Fraction(1), 4: Fraction(0)}, ValueError,
         "heights must cover exactly the interior vertices"),  # a leaf
        (CHERRY3, {0: Fraction(3), 99: Fraction(1)}, ValueError,
         "heights must cover exactly the interior vertices"),
        (CHERRY3, {0: 1.5, 1: Fraction(1, 2)}, TypeError,
         "edge weights and heights must be exact rationals, not floats"),
        # two faults: the first check in order reports
        (CHERRY3, {1: 0.5}, TypeError,
         "edge weights and heights must be exact rationals, not floats"),
        (CHERRY3, {0: Fraction(-1)}, ValueError,
         "heights must cover exactly the interior vertices"),
        (CAT4, {0: Fraction(-1), 1: Fraction(-2), 2: Fraction(5)}, ValueError,
         "height of vertex 0 is negative: -1"),
        (CAT4, {0: Fraction(1), 1: Fraction(3), 2: Fraction(-3, 2)}, ValueError,
         "height of vertex 2 is negative: -3/2"),
        (CAT4, {0: 1, 1: Fraction(2), 2: Fraction(2)}, ValueError,
         "heights must strictly decrease along interior edges (0 -> 1: 1 -> 2)"),
        (CAT4, {2: Fraction(1), 1: Fraction(2), 0: Fraction(2)}, ValueError,
         "heights must strictly decrease along interior edges (0 -> 1: 2 -> 2)"),
        (CAT4, {2: Fraction(3), 1: Fraction(2), 0: Fraction(1)}, ValueError,
         "heights must strictly decrease along interior edges (0 -> 1: 1 -> 2)"),
    ],
)
def test_height_map_errors_match_recorded_messages(tree, heights, error, message):
    with pytest.raises(error) as raised:
        HeightMap(tree, heights)
    assert str(raised.value) == message


def test_height_map_names_the_first_negative_height_in_the_given_order():
    # Heights are checked in preorder, vertex 0 first, but the negative height
    # named is the first in the order the heights were given.
    for heights, v, x in (
        ({2: Fraction(-2), 1: Fraction(-1), 0: Fraction(1)}, 2, "-2"),
        ({1: Fraction(-1), 2: Fraction(-2), 0: Fraction(1)}, 1, "-1"),
        ({2: Fraction(-1), 0: Fraction(1), 1: Fraction(1)}, 2, "-1"),  # and a failed decrease
    ):
        with pytest.raises(ValueError) as raised:
            HeightMap(CAT4, heights)
        assert str(raised.value) == f"height of vertex {v} is negative: {x}"


def _outcome(build, tree, heights):
    """What ``build`` makes of ``heights``: a map, or the ValueError's text."""
    try:
        return build(tree, heights)
    except ValueError as exc:
        return str(exc)


def _levels_with_fault(tree, rng):
    """Seeded levels in interior preorder, proper or with a fault, the same
    heights as the constructor's mapping, and the fault; past 64 at times."""
    interior = tree.interior_vertices()
    at = {}
    for v in reversed(interior):  # children first
        below = max((at[c] for c in tree.children(v) if c in at), default=-1)
        at[v] = below + 1 + rng.choice((0, 0, 1, 5, 70))
    fault = rng.choice(("none", "negative", "drop", "both", "short", "long"))
    if fault in ("negative", "both") and interior:
        at[rng.choice(interior)] = -rng.randint(1, 3)
    if fault in ("drop", "both") and len(interior) > 1:
        v = rng.choice(interior[1:])
        at[v] = at[tree.parent(v)] + rng.choice((0, 1))
    levels = [at[v] for v in interior]
    heights = {v: Fraction(at[v]) for v in interior}  # in the levels' order
    if fault == "short" and interior:
        del levels[-1], heights[interior[-1]]
    if fault == "long":
        levels.append(rng.randint(0, 3))
        heights[tree.leaf_vertex(min(tree.leaf_labels))] = Fraction(levels[-1])
    return levels, heights, fault


def test_levels_constructor_matches_the_constructor():
    # integer levels give the map and hash, or the error text, that the
    # constructor gives for the same heights as Fractions, with its
    # precedence: coverage, then the first negative, then the first drop
    rng = random.Random(31)
    trees = [XTree("a"), STAR3, *enumerate_xtrees(LABELS4), *enumerate_xtrees(LABELS5)]
    seen = Counter()
    for tree in trees:
        for _ in range(20):
            levels, heights, fault = _levels_with_fault(tree, rng)
            expected = _outcome(HeightMap, tree, heights)
            got = _outcome(HeightMap._from_levels, tree, levels)
            assert got == expected, (tree, levels)
            if isinstance(expected, str):
                kind = next(k for k in ("negative", "decrease", "cover") if k in expected)
                seen[fault, kind] += 1
                continue
            assert hash(got) == hash(expected)
            assert all(type(x) is Fraction for x in got.heights.values())
            seen[fault, "large" if max(levels, default=0) >= 64 else "small"] += 1
    for case in [
        ("none", "large"), ("none", "small"), ("negative", "negative"), ("drop", "decrease"),
        ("both", "negative"), ("short", "cover"), ("long", "cover"),
    ]:
        assert seen[case] > 20, seen
    for levels in ([63, 62, 0], [64, 63, 0], [65, 64, 63]):  # the shared Fractions end at 63
        heights = dict(zip(CAT4.interior_vertices(), map(Fraction, levels)))
        assert HeightMap._from_levels(CAT4, levels) == HeightMap(CAT4, heights)


def test_height_map_accepts_mixed_exact_input():
    hm = HeightMap(CAT4, {0: 3, 1: Fraction(5, 2), 2: Fraction(1, 3)})
    assert hm.heights == {0: Fraction(3), 1: Fraction(5, 2), 2: Fraction(1, 3)}
    assert all(type(x) is Fraction for x in hm.heights.values())
    # close values still order exactly
    HeightMap(CAT4, {0: Fraction(10**20 + 1, 10**20), 1: 1, 2: Fraction(10**20 - 1, 10**20)})
    with pytest.raises(ValueError):
        HeightMap(CAT4, {0: 1, 1: Fraction(10**20 + 1, 10**20), 2: 0})


def test_height_map_keeps_its_own_copy_of_the_heights():
    given = {0: Fraction(3), 1: Fraction(2), 2: Fraction(1, 2)}
    hm = HeightMap(CAT4, given)
    given[2] = Fraction(5)
    assert hm.heights == {0: Fraction(3), 1: Fraction(2), 2: Fraction(1, 2)}

    class Rational(Fraction):
        pass

    # a Fraction subclass is stored as a plain Fraction, as any exact input is
    hm = HeightMap(CAT4, {0: Fraction(3), 1: Fraction(2), 2: Rational(1, 2)})
    assert all(type(x) is Fraction for x in hm.heights.values())


@pytest.mark.parametrize("v", [-1, -3, -5, 7, 100, 1.0, "0", None, True, False])
def test_height_rejects_ids_that_are_not_vertices(v):
    # negative ids used to index from the end and answer for a leaf
    hm = HeightMap(CAT4, {0: Fraction(3), 1: Fraction(2), 2: Fraction(1)})
    with pytest.raises(ValueError) as raised:
        hm.height(v)
    assert str(raised.value) == f"{v!r} is not a vertex of this tree"


def test_leaf_distance_examples():
    star = HeightMap(STAR3, {STAR3.root: Fraction(1)})
    assert {star.leaf_distance(a, b) for a, b in [("a", "b"), ("a", "c"), ("b", "c")]} == {Fraction(2)}
    hm = HeightMap(CHERRY3, {CHERRY3.root: Fraction(3), CHERRY3.lca("a", "b"): Fraction(1)})
    assert hm.leaf_distance("a", "b") == 2
    assert hm.leaf_distance("a", "c") == 6


def test_three_point_condition_on_random_heights():
    # the largest of the three pairwise distances is always attained twice
    trees = enumerate_xtrees(LABELS5)
    checked = 0
    for seed in range(500):
        t = trees[seed % len(trees)]
        hm = random_proper_heights(t, seed)
        for a, b, c in [("a", "b", "c"), ("b", "d", "e"), ("a", "c", "e")]:
            ds = sorted([hm.leaf_distance(a, b), hm.leaf_distance(a, c), hm.leaf_distance(b, c)])
            assert ds[1] == ds[2]
            checked += 1
    assert checked == 1500


def test_distance_gap_characterizes_triplets():
    # d(a,b) < d(a,c) = d(b,c) exactly when the tree restricted to {a,b,c}
    # has cherry {a,b}
    from itertools import combinations

    for i, t in enumerate(enumerate_xtrees(LABELS4)):
        hm = random_proper_heights(t, 1000 + i)
        for a, b, c in combinations(sorted(t.leaf_labels), 3):
            dab, dac, dbc = hm.leaf_distance(a, b), hm.leaf_distance(a, c), hm.leaf_distance(b, c)
            assert (dab < dac and dac == dbc) == (triplet(a, b, c) in tree_triplets(t))


def test_is_l_isometric():
    h1 = HeightMap(STAR3, {STAR3.root: Fraction(1)})
    h2 = HeightMap(STAR3, {STAR3.root: Fraction(2)})
    assert h1.is_l_isometric(h1, cord_set([("a", "b")]))
    assert h1.is_l_isometric(h2, frozenset())  # vacuous on the empty cord set
    assert not h1.is_l_isometric(h2, cord_set([("a", "b")]))
    with pytest.raises(ValueError):
        h1.is_l_isometric(h2, cord_set([("a", "z")]))
    other = HeightMap(XTree(("a", "b", "z")), {0: Fraction(1)})
    with pytest.raises(ValueError):
        h1.is_l_isometric(other, frozenset())


def test_random_proper_heights_deterministic_and_valid():
    t = enumerate_xtrees(LABELS5)[17]
    assert random_proper_heights(t, 5) == random_proper_heights(t, 5)
    draws = {random_proper_heights(t, s) for s in range(10)}
    assert len(draws) >= 2
    for hm in draws:
        assert HeightMap.from_edge_weights(hm.to_edge_weights()) == hm


@st.composite
def tree_and_heights(draw):
    labels = draw(st.sampled_from([LABELS4, LABELS5]))
    trees = enumerate_xtrees(labels)
    t = trees[draw(st.integers(0, len(trees) - 1))]
    return t, random_proper_heights(t, draw(st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None)
@given(tree_and_heights())
def test_edge_weight_round_trip(pair):
    t, hm = pair
    assert HeightMap.from_edge_weights(hm.to_edge_weights()) == hm


@settings(max_examples=60, deadline=None)
@given(tree_and_heights(), tree_and_heights(), st.integers(0, 10**6))
def test_distance_transfer_between_fitting_weightings(p1, p2, seed):
    """If two weighted trees agree on d(a,a') and d(a,b), the strict gap
    d(a,a') < d(a,b) transfers, the larger value is d(a',b) on both, and the
    cherry {a,a'} vs b appears in both trees or in neither."""
    import random

    from conftest import linear_system, reference_strict_feasible

    t, hm = p1
    t2, _ = p2
    if t.leaf_labels != t2.leaf_labels:
        return
    rng = random.Random(seed)
    a, a2, b = rng.sample(sorted(t.leaf_labels), 3)
    half_aa = hm.leaf_distance(a, a2) / 2
    half_ab = hm.leaf_distance(a, b) / 2
    variables = list(t2.interior_vertices())
    strict = []
    for v in t2.interior_vertices():
        p = t2.parent(v)
        if p is not None:
            strict.append(({p: 1, v: -1}, 0))
    equalities = [({t2.lca(a, a2): 1}, half_aa), ({t2.lca(a, b): 1}, half_ab)]
    point = reference_strict_feasible(
        linear_system(variables, equalities=equalities, strict=strict, nonneg=variables)
    )
    if point is None:
        return  # no fitting weighting of t2 exists; hypotheses unsatisfiable
    hm2 = HeightMap(t2, point)
    assert hm2.leaf_distance(a, a2) == hm.leaf_distance(a, a2)
    assert hm2.leaf_distance(a, b) == hm.leaf_distance(a, b)
    if hm.leaf_distance(a, a2) < hm.leaf_distance(a, b):
        assert hm.leaf_distance(a, b) == hm.leaf_distance(a2, b)
        assert hm2.leaf_distance(a, a2) < hm2.leaf_distance(a, b)
        assert hm2.leaf_distance(a, b) == hm2.leaf_distance(a2, b)
        assert hm2.leaf_distance(a2, b) == hm.leaf_distance(a2, b)
    assert (triplet(a, a2, b) in tree_triplets(t)) == (triplet(a, a2, b) in tree_triplets(t2))
    if hm.leaf_distance(a2, b) == hm2.leaf_distance(a2, b):
        z = {a, a2, b}
        assert restrict(t, z).is_star() == restrict(t2, z).is_star()
