"""Definition-level oracle: enumeration, joint systems, witnesses, route agreement."""

import gc
import hashlib
import random
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import combinations
from types import MappingProxyType

import pytest

from conftest import (
    LABELS4,
    LABELS5,
    LABELS6,
    all_cord_subsets,
    as_linear_system,
    bearded_caterpillar,
    count_binary_xtrees,
    count_xtrees,
    decision_row,
    linear_system,
    outcome,
    random_cords,
    random_proper_heights,
    random_xtree,
    reference_solve_differences,
    reference_strict_feasible,
    seeded_cord_sets,
)
from treelasso import (
    HeightMap,
    Witness,
    XTree,
    all_cords,
    cord_set,
    enumerate_xtrees,
    joint_isometry_system,
    min_equidistant_lasso,
    oracle_equidistant,
    oracle_topological,
    oracle_weak,
    strict_feasible,
    verify_witness,
)
from treelasso import cords as cords_module, heights as heights_module, oracle
from treelasso.cords import validate_cords
from treelasso.oracle import _rival_table
from test_lasso import CONTRACT_INPUTS, CONTRACT_TREES

TRIPLET = XTree((("a", "b"), "c"))
STAR3 = XTree(("a", "b", "c"))
T4 = XTree((("a", "b", "c"), "d"))


def test_enumeration_counts_match_partition_recursion():
    for n, labels in [(3, ("a", "b", "c")), (4, LABELS4), (5, LABELS5)]:
        assert len(enumerate_xtrees(labels)) == count_xtrees(n)
        binaries = [t for t in enumerate_xtrees(labels) if t.is_binary()]
        assert len(binaries) == count_binary_xtrees(n)
    assert [count_xtrees(n) for n in (3, 4, 5)] == [4, 26, 236]
    assert [count_binary_xtrees(n) for n in (3, 4, 5)] == [3, 15, 105]


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_xtrees(["a"])
    with pytest.raises(ValueError):
        enumerate_xtrees(list("abcdefg"))
    with pytest.raises(ValueError):
        enumerate_xtrees(["a", "a", "b"])
    # every label is checked before the set is hashed or sorted
    for labels, bad in ((["a", 1, "b"], "1"), (["a", "b", None], "None"), ([["a"], "b", "c"], r"\['a'\]")):
        with pytest.raises(ValueError, match=f"leaf label must be a nonempty string, got {bad}"):
            enumerate_xtrees(labels)
    assert len(enumerate_xtrees(["a", "b"])) == 1


def test_enumerated_trees_are_pairwise_inequivalent():
    trees = enumerate_xtrees(LABELS4)
    assert len({t.canonical_newick() for t in trees}) == len(trees)


def _joint(tree, rival, cords):
    """The joint system as the general system it stands for."""
    return as_linear_system(joint_isometry_system(tree, rival, cords))


def test_joint_system_examples():
    # a tree always fits the cords jointly with itself
    assert reference_strict_feasible(_joint(T4, T4, all_cords(LABELS4))) is not None
    # the full cord set on three leaves separates the triplet from the star
    full3 = all_cords("abc")
    assert reference_strict_feasible(_joint(TRIPLET, STAR3, full3)) is None
    # a single cherry cord does not
    cherry = cord_set([("a", "b")])
    assert reference_strict_feasible(_joint(TRIPLET, STAR3, cherry)) is not None
    # the library's shim gives the general route's answer on each
    for t, r, cords in ((T4, T4, all_cords(LABELS4)), (TRIPLET, STAR3, full3), (TRIPLET, STAR3, cherry)):
        point = reference_strict_feasible(_joint(t, r, cords))
        assert strict_feasible(joint_isometry_system(t, r, cords)) == point
    # the tree's heights and properness edges come first, then the rival's,
    # each in interior preorder; the cord equalities follow sorted cords
    tree = [("T", 0), ("T", 1), ("T", 2)]
    rival = [("R", 0), ("R", 1)]
    cat = XTree(((("a", "b"), "c"), "d"))
    assert _joint(cat, T4, cord_set([("c", "d"), ("a", "b")])) == linear_system(
        tree + rival,
        equalities=[({("T", 2): 1, ("R", 1): -1}, 0), ({("T", 0): 1, ("R", 0): -1}, 0)],
        strict=[
            ({("T", 0): 1, ("T", 1): -1}, 0),
            ({("T", 1): 1, ("T", 2): -1}, 0),
            ({("R", 0): 1, ("R", 1): -1}, 0),
        ],
    )


def test_joint_system_requires_same_leaf_set():
    with pytest.raises(ValueError):
        joint_isometry_system(TRIPLET, XTree(("a", "b", "z")), frozenset())


def test_oracle_equidistant_examples():
    assert oracle_equidistant(STAR3, cord_set([("a", "b")])) == (True, None)
    ok, witness = oracle_equidistant(T4, frozenset())
    assert not ok
    assert verify_witness(T4, frozenset(), witness, "equidistant")


def test_oracle_weak_star_accepts_everything():
    assert oracle_weak(STAR3, frozenset()) == (True, None)
    star5 = XTree(tuple(LABELS5))
    for cords in (frozenset(), cord_set([("a", "c")]), all_cords(LABELS5)):
        assert oracle_weak(star5, cords)[0]


def test_oracle_weak_counterexample_and_witness():
    cords = cord_set([("a", "b"), ("a", "d")])
    ok, witness = oracle_weak(T4, cords)
    assert not ok
    assert verify_witness(T4, cords, witness, "weak")
    assert not witness.rival.refines(T4)
    # the witness is the canonically first rival that fits, re-derived through
    # the full linear-system route
    for rival in enumerate_xtrees(LABELS4):
        if rival.refines(T4):
            continue
        if strict_feasible(joint_isometry_system(T4, rival, cords)) is not None:
            assert rival == witness.rival
            break


def test_a_witness_edited_after_construction_no_longer_verifies():
    t = XTree(((("a", "b"), "c"), ("d", "e")))
    cords = cord_set([("a", "b"), ("d", "e")])
    ok, witness = oracle_weak(t, cords)
    assert not ok and verify_witness(t, cords, witness, "weak")
    # the heights are read-only: an edit raises and changes neither the map nor its hash
    hm = witness.heights_t
    before, digest = dict(hm.heights), hash(hm)
    with pytest.raises(TypeError):
        hm.heights[t.root] = Fraction(-3)
    with pytest.raises(TypeError):
        del hm.heights[t.root]
    assert dict(hm.heights) == before and hash(hm) == digest
    assert verify_witness(t, cords, witness, "weak")
    # the witness's height maps are re-validated: a negative root height,
    # where no cord meets and so the cord distances still agree, fails
    # properness as a new HeightMap would
    object.__setattr__(hm, "heights", {**before, t.root: Fraction(-3)})
    with pytest.raises(ValueError, match="negative"):
        HeightMap(t, witness.heights_t.heights)
    assert not verify_witness(t, cords, witness, "weak")
    # an edit that breaks only properness, on the rival's side, fails too
    ok, witness = oracle_topological(t, cords)
    top, below = witness.rival.interior_vertices()[:2]
    rival_heights = dict(witness.heights_rival.heights)
    rival_heights[below] = rival_heights[top]
    object.__setattr__(witness.heights_rival, "heights", rival_heights)
    assert not verify_witness(t, cords, witness, "topological")


def test_oracle_topological_examples():
    ok, witness = oracle_topological(STAR3, cord_set([("a", "b"), ("a", "c")]))
    assert not ok
    assert witness.rival == XTree((("b", "c"), "a"))
    assert verify_witness(STAR3, cord_set([("a", "b"), ("a", "c")]), witness, "topological")
    cat = XTree(((("a", "b"), "c"), "d"))
    assert oracle_topological(cat, cord_set([("a", "b"), ("a", "c"), ("a", "d")])) == (True, None)


def test_oracle_domain_guards():
    with pytest.raises(ValueError):
        oracle_weak(XTree(("a", "b")), frozenset())
    # six leaves decide exhaustively
    six = XTree(tuple("abcdef"))
    assert oracle_weak(six, frozenset()) == (True, None)
    ok, witness = oracle_topological(six, frozenset())
    assert not ok and verify_witness(six, frozenset(), witness, "topological")
    # a 25-rival sample can miss every violating rival; the full scan cannot
    t6 = XTree(((("a", "b"), "c"), (("d", "e"), "f")))
    cords = cord_set([("a", "c"), ("b", "c"), ("b", "e"), ("c", "d"), ("d", "e"), ("d", "f")])
    ok, witness = oracle_weak(t6, cords)
    assert not ok and verify_witness(t6, cords, witness, "weak")
    assert oracle_weak(t6, cords, rival_sample=25, seed=1) == (True, None)
    # sampled mode still works at six leaves
    assert oracle_weak(six, frozenset(), rival_sample=25, seed=1)[0]
    # seven leaves are past the enumeration, sampled or not
    seven = XTree(tuple("abcdefg"))
    for decide, sampling in (
        (oracle_weak, {}),
        (oracle_weak, {"rival_sample": 25, "seed": 1}),
        (oracle_topological, {}),
    ):
        with pytest.raises(ValueError, match=r"2\.\.6 leaves, got 7"):
            decide(seven, frozenset(), **sampling)


def test_rival_sample_below_one_rejected():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="rival_sample must be at least 1"):
            oracle_weak(T4, frozenset(), rival_sample=bad)
    # anything but an int, a bool included, is named in the error; it once
    # escaped from random.sample or from a raw comparison.  Its check keeps
    # its place: after the cords, before the leaf cap
    seven = XTree(tuple("abcdefg"))
    for bad, shown in (
        (1.5, "1.5"), ("5", "'5'"), (True, "True"), (False, "False"), (2.0, "2.0"), ([3], r"\[3\]"),
    ):
        for tree in (T4, seven):
            with pytest.raises(TypeError, match=f"^rival_sample must be an int, got {shown}$"):
                oracle_weak(tree, frozenset(), rival_sample=bad)
            error = outcome(validate_cords, [("a", "z")], tree.leaf_labels)
            assert outcome(partial(oracle_weak, rival_sample=bad), tree, [("a", "z")]) == error
    with pytest.raises(ValueError, match="lasso questions need at least 3 leaves"):
        oracle_weak(XTree(("a", "b")), frozenset(), rival_sample=1.5)
    assert oracle_weak(T4, frozenset(), rival_sample=None) == oracle_weak(T4, frozenset())
    # a sample's seed is an int: None would draw an unrepeatable sample, and
    # a list once escaped as random.Random's own TypeError.  It is checked
    # right after rival_sample, and only when a sample is asked for
    for bad, shown in ((None, "None"), (True, "True"), (1.5, "1.5"), ("7", "'7'"), ([1], r"\[1\]")):
        for tree in (T4, seven):
            for size in (3, 30):  # fewer rivals than the 26 rows of T4, and more
                with pytest.raises(TypeError, match=f"^seed must be an int, got {shown}$"):
                    oracle_weak(tree, frozenset(), rival_sample=size, seed=bad)
            error = outcome(validate_cords, [("a", "z")], tree.leaf_labels)
            assert outcome(partial(oracle_weak, rival_sample=3, seed=bad), tree, [("a", "z")]) == error
            assert outcome(partial(oracle_weak, rival_sample=0, seed=bad), tree, []) == (
                ValueError, "rival_sample must be at least 1, got 0"
            )
        assert oracle_weak(T4, frozenset(), seed=bad) == oracle_weak(T4, frozenset())
    with pytest.raises(ValueError, match="lasso questions need at least 3 leaves"):
        oracle_weak(XTree(("a", "b")), frozenset(), rival_sample=3, seed=None)
    sampled = partial(oracle_weak, T4, frozenset(), rival_sample=3)
    assert sampled(seed=-5) == sampled(seed=-5)  # any int seeds a repeatable sample


def _height_pairs(tree):
    """Height maps to compare with a cord set on ``tree``: a map against
    itself, against the same map with a higher root (cords that meet at the
    root then differ, the rest agree), and against a map on another tree."""
    own = random_proper_heights(tree, 1)
    higher = HeightMap(tree, {**own.heights, tree.root: own.heights[tree.root] + 1})
    apart = random_proper_heights(XTree((("a", "d"), ("b", "c"))), 2)
    return [(own, own), (own, higher), (own, apart)]


def _decisions(tree):
    """Every cord-taking oracle call on ``tree``, by name."""
    calls = {
        "weak": partial(oracle_weak, tree),
        "topological": partial(oracle_topological, tree),
        "equidistant": partial(oracle_equidistant, tree),
    }
    for n, (mine, other) in enumerate(_height_pairs(tree)):
        calls[f"is_l_isometric {n}"] = partial(HeightMap.is_l_isometric, mine, other)
    return calls


@pytest.mark.parametrize("name, make", CONTRACT_INPUTS, ids=[n for n, _ in CONTRACT_INPUTS])
def test_decisions_keep_the_input_contract_of_validate_cords(name, make):
    for tree in CONTRACT_TREES:
        checked = outcome(validate_cords, make(), tree.leaf_labels)
        for call_name, call in _decisions(tree).items():
            expected = outcome(call, checked[1]) if checked[0] == "ok" else checked
            assert outcome(call, make()) == expected, call_name


def test_the_cord_error_comes_before_the_sample_and_the_cap():
    t4, seven, two = XTree((("a", "b"), ("c", "d"))), XTree(tuple("abcdefg")), XTree(("a", "b"))
    cap = (ValueError, "enumeration supports 2..6 leaves, got 7")
    sample = (ValueError, "rival_sample must be at least 1, got 0")
    domain = (ValueError, "lasso questions need at least 3 leaves")
    malformed = (
        lambda: [("a", "b"), ("a", "z")],
        lambda: [("a", "b"), ("b", "b")],
        lambda: [("a", "b"), None],
        lambda: (p for p in [("b", "a"), ("a", 5)]),
        lambda: 5,
    )
    for make in malformed:
        for tree in (t4, seven):
            error = outcome(validate_cords, make(), tree.leaf_labels)
            assert error[0] in (TypeError, ValueError)
            for decide in (oracle_weak, oracle_topological, oracle_equidistant):
                assert outcome(decide, tree, make()) == error
            assert outcome(partial(oracle_weak, rival_sample=0), tree, make()) == error
        for decide in (oracle_weak, oracle_topological, oracle_equidistant):
            assert outcome(decide, two, make()) == domain
    for make in (lambda: [("b", "a")], lambda: iter([("a", "b"), ("a", "b")]), frozenset):
        assert outcome(partial(oracle_weak, rival_sample=0), t4, make()) == sample
        assert outcome(partial(oracle_weak, rival_sample=0), seven, make()) == sample
        for decide in (oracle_weak, oracle_topological):
            assert outcome(decide, seven, make()) == cap
        assert outcome(oracle_equidistant, seven, make())[0] == "ok"


def test_is_l_isometric_resolves_every_cord_before_comparing():
    tree = XTree((("a", "b"), ("c", "d")))
    _, (own, higher), _ = _height_pairs(tree)
    assert not own.is_l_isometric(higher, [("a", "c")])  # meets at the root
    for bad in (("a", "z"), ("b", "b"), ("a",), 5):
        error = outcome(validate_cords, [("a", "c"), bad], tree.leaf_labels)
        assert error[0] is ValueError
        assert outcome(own.is_l_isometric, higher, [("a", "c"), bad]) == error
        assert outcome(own.is_l_isometric, higher, iter([("a", "c"), bad])) == error


def test_no_decision_validates_a_normal_set_again(monkeypatch):
    instances = [(t, cords) for t, cords in _five_leaf_sweep() if len(cords) % 3 == 0][::7]
    instances += [(T4, frozenset(all_cords(LABELS4)))]
    big = random_xtree(60, 3)
    instances += [(big, random_cords(big, 40, seed=3))]
    assert all(type(cords) is frozenset for _, cords in instances)

    def decide_all():
        out = []
        for t, cords in instances:
            for kind, decide in (
                ("weak", oracle_weak),
                ("topological", oracle_topological),
                ("equidistant", oracle_equidistant),
            ):
                if kind == "equidistant" or len(t.leaf_labels) <= 6:
                    ok, witness = decide(t, cords)
                    verified = witness is not None and verify_witness(t, cords, witness, kind)
                    out.append((ok, witness, verified))
        return out

    def fail(*args):
        raise AssertionError("a normal cord set was checked again")

    expected = decide_all()
    # raising=False: a module that does not import the name gets the failing
    # one too, so a later import of it is caught as well
    for module in (cords_module, oracle, heights_module):
        monkeypatch.setattr(module, "validate_cords", fail, raising=False)
    assert decide_all() == expected
    assert sum(verified for _, _, verified in expected) > 50


def test_cord_consumers_meet_each_cord_once_per_tree(monkeypatch):
    tree, rival = random_xtree(60, 3), random_xtree(60, 4)
    assert tree.leaf_labels == rival.leaf_labels and tree != rival
    cords = random_cords(tree, 40, seed=3)
    mine, theirs = random_proper_heights(tree, 1), random_proper_heights(rival, 2)
    calls = {
        "equidistant": (lambda: oracle_equidistant(tree, cords), [tree]),
        "is_l_isometric": (lambda: mine.is_l_isometric(theirs, cords), [tree, rival]),
        "mirrored": (lambda: mine.is_l_isometric(mine, cords), [tree, tree]),
        "joint system": (lambda: joint_isometry_system(tree, rival, cords), [tree, rival]),
    }
    expected = {name: call() for name, (call, _) in calls.items()}
    assert expected["mirrored"] and not expected["is_l_isometric"]
    met = []  # the tree of each pair handed to the batched climb
    climb = XTree._meets

    def counting_climb(self, pairs):
        met.extend(id(self) for _ in pairs)
        return climb(self, pairs)

    monkeypatch.setattr(XTree, "_meets", counting_climb)
    for name, (call, trees) in calls.items():
        del met[:]
        assert call() == expected[name], name
        assert sorted(met) == sorted(id(t) for t in trees for _ in cords), name


def _first_fitting(t, cords, rivals, skip):
    """The first rival, not skipped, whose full joint system is feasible."""
    return next(
        (
            r
            for r in rivals
            if not skip(r)
            and strict_feasible(joint_isometry_system(t, r, cords)) is not None
        ),
        None,
    )


def test_scan_route_matches_full_system_route():
    # each witness rival is the first rival in canonical order, not skipped,
    # whose full joint system is feasible; no witness means no such rival
    cases = []
    trees4 = enumerate_xtrees(LABELS4)
    for t in trees4[::3]:
        for cords in all_cord_subsets(LABELS4)[::17]:
            cases.append((t, cords, trees4, {}))
    trees5 = enumerate_xtrees(LABELS5)
    rng = random.Random(5)
    for t in rng.sample(trees5, 6):
        for size in (2, 4, 6, 9):
            cases.append((t, random_cords(t, size, rng.randrange(10**6)), trees5, {}))
    # sampled mode, weak only: the scan runs over the sampled rivals in
    # canonical order
    trees6 = enumerate_xtrees("abcdef")
    for seed in range(4):
        t = trees6[seed * 611]
        picked = random.Random(seed).sample(trees6, 40)
        rivals = sorted(picked, key=lambda r: r.canonical_newick())
        for size in (3, 7, 11):
            cords = random_cords(t, size, seed * 31 + size)
            cases.append((t, cords, rivals, {"rival_sample": 40, "seed": seed}))
    found = decided = 0
    for t, cords, rivals, sampling in cases:
        scans = [(oracle_weak, lambda r: r.refines(t))]
        if not sampling:
            scans.append((oracle_topological, lambda r: r == t))
        for decide, skip in scans:
            _, witness = decide(t, cords, **sampling)
            first = _first_fitting(t, cords, rivals, skip)
            assert (None if witness is None else witness.rival) == first
            found += first is not None
            decided += 1
    assert 0 < found < decided


def _order_conflicts(t, r):
    """Cord pairs met strictly higher in one tree and weakly lower in the other.

    Written against leaf sets: a vertex lies on or above another exactly when
    its leaf set contains the other's.
    """
    pool = sorted(all_cords(t.leaf_labels))
    meets = [
        (t.leaves_below(t.lca(*c)), r.leaves_below(r.lca(*c))) for c in pool
    ]
    out = []
    for (i, (ti, ri)), (j, (tj, rj)) in combinations(enumerate(meets), 2):
        if (ti > tj and ri <= rj) or (ri > rj and ti <= tj) or (
            tj > ti and rj <= ri
        ) or (rj > ri and tj <= ti):
            out.append((pool[i], pool[j]))
    return out


def _pairwise_rejects(t, r, cords):
    """The scan's conflict test, read off the rival table: the rival's bit in
    the tree's conflict mask of some pair of the given cords."""
    table = _rival_table(t.leaf_labels)
    relation = table.rows[table.row_of[t]][3]
    bit = 1 << table.row_of[r]
    index = sorted(table.cord_index[c] for c in cords)
    pairs = [table.pair_base[i] + j for i, j in combinations(index, 2)]
    return any(table.conflicts[p][relation[p]] & bit for p in pairs)


def test_pairwise_order_test_rejects_only_infeasible_rivals():
    # every four-leaf (tree, rival, cord subset): the table's test rejects
    # exactly the pairs with a cord-order conflict, and each rejected joint
    # system is infeasible
    trees = enumerate_xtrees(LABELS4)
    rejected = 0
    for t in trees:
        for r in trees:
            conflicts = _order_conflicts(t, r)
            for cords in all_cord_subsets(LABELS4):
                expected = any(c in cords and d in cords for c, d in conflicts)
                assert _pairwise_rejects(t, r, cords) == expected
                if expected:
                    assert strict_feasible(joint_isometry_system(t, r, cords)) is None
                    rejected += 1
    assert rejected


def _refiner_mask(table, row):
    """The weak scan's skip mask, read off the rival table: the rows that
    have every cluster of the row's tree."""
    mask = (1 << len(table.rows)) - 1
    for cluster in row[4]:
        mask &= table.containing[cluster]
    return mask


def test_refiner_masks_match_refines():
    # bit s of row r's refiner mask says that tree s refines tree r: every
    # ordered pair of five-leaf trees, and seeded six-leaf trees against
    # every tree, as the refined tree and as the refining one
    table5 = _rival_table(frozenset(LABELS5))
    trees5 = [row[0] for row in table5.rows]
    for row in table5.rows:
        assert [_refiner_mask(table5, row) >> s & 1 for s in range(len(trees5))] == [
            rival.refines(row[0]) for rival in trees5
        ]
    table6 = _rival_table(frozenset(LABELS6))
    trees6 = [row[0] for row in table6.rows]
    refiners = [_refiner_mask(table6, row) for row in table6.rows]
    refining = 0
    for r in random.Random(66).sample(range(len(trees6)), 12):
        t = trees6[r]
        assert [refiners[r] >> s & 1 for s in range(len(trees6))] == [
            rival.refines(t) for rival in trees6
        ]
        assert [mask >> r & 1 for mask in refiners] == [t.refines(u) for u in trees6]
        refining += refiners[r].bit_count()
    assert refining > 12


def _least_levels(t):
    """The least levels of ``t`` by vertex: 0 at a vertex whose children are
    all leaves, else one above its highest interior child."""
    level = {}
    for v in reversed(t.interior_vertices()):
        level[v] = max((level[c] + 1 for c in t.children(v) if not t.is_leaf(c)), default=0)
    return level


def _floors_agree(t, r, cords):
    """Do the least levels of ``t`` and ``r`` agree at every cord's meeting vertices?"""
    mine, theirs = _least_levels(t), _least_levels(r)
    return all(mine[t.lca(a, b)] == theirs[r.lca(a, b)] for a, b in cords)


def test_scan_calls_the_engine_only_past_the_pairwise_test(monkeypatch):
    # the engine sees, in canonical order, exactly the rivals that are neither
    # skipped nor in cord-order conflict, up to the first feasible one; a
    # rival whose least levels agree with the tree's on every cord is
    # feasible and ends the scan with no call
    engine = oracle._solve_levels
    calls = []

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(oracle, "_solve_levels", counted)
    trees = enumerate_xtrees(LABELS4)
    floors = engine_calls = 0
    for t in trees[::2]:
        conflicts = {r: _order_conflicts(t, r) for r in trees}
        for cords in all_cord_subsets(LABELS4)[::5]:
            for decide, skip in (
                (oracle_weak, lambda r: r.refines(t)),
                (oracle_topological, lambda r: r == t),
            ):
                expected = 0
                for r in trees:
                    if skip(r) or any(c in cords and d in cords for c, d in conflicts[r]):
                        continue
                    feasible = strict_feasible(joint_isometry_system(t, r, cords)) is not None
                    if _floors_agree(t, r, cords):
                        assert feasible
                        floors += 1
                        break
                    expected += 1
                    if feasible:
                        break
                calls.clear()
                decide(t, cords)
                assert len(calls) == expected
                engine_calls += expected
    assert floors and engine_calls


def _scan_witnesses(cases):
    """(tree, cords, skip, witness, floor) of each weak and topological
    decision; ``floor`` says the witness shares the rows' height views."""
    for t, cords in cases:
        table = _rival_table(t.leaf_labels)
        for decide, skip in (
            (oracle_weak, lambda r: r.refines(t)),
            (oracle_topological, lambda r: r == t),
        ):
            _, witness = decide(t, cords)
            floor = witness is not None and (
                witness.heights_t.heights is table.rows[table.row_of[t]][7]
            )
            if floor:
                rival_row = table.rows[table.row_of[witness.rival]]
                assert witness.heights_rival.heights is rival_row[7]
            yield t, cords, skip, witness, floor


def _six_leaf_corpus():
    """Every six-leaf tree with the seeded cord set of the six-leaf sweep."""
    for index, t in enumerate(enumerate_xtrees(LABELS6)):
        yield t, next(seeded_cord_sets(LABELS6, 1, index))


def test_every_floor_witness_is_the_engine_point():
    # a floor witness is exactly the engine's least point of its joint
    # system, on all 4-leaf trees with all cord subsets, the five-leaf
    # sweep and the six-leaf corpus
    four = [(t, c) for t in enumerate_xtrees(LABELS4) for c in all_cord_subsets(LABELS4)]
    for cases in (four, _five_leaf_sweep(), _six_leaf_corpus()):
        floors = 0
        for t, cords, _, witness, floor in _scan_witnesses(cases):
            if floor:
                point = strict_feasible(joint_isometry_system(t, witness.rival, cords))
                assert witness.heights_t.heights == {v: point["T", v] for v in t._interior}
                rival = witness.rival
                assert witness.heights_rival.heights == {v: point["R", v] for v in rival._interior}
                floors += 1
        assert floors


def test_the_floor_path_fires_exactly_when_the_least_levels_agree():
    # a witness is a floor witness exactly when the two trees' least levels
    # agree on every cord; with no witness, no rival the scan may try has
    # agreeing least levels
    four = [(t, c) for t in enumerate_xtrees(LABELS4) for c in all_cord_subsets(LABELS4)]
    trees4 = enumerate_xtrees(LABELS4)
    seen = set()
    for cases in (four, _five_leaf_sweep()):
        for t, cords, skip, witness, floor in _scan_witnesses(cases):
            if witness is not None:
                assert floor == _floors_agree(t, witness.rival, cords)
                seen.add(floor)
            elif len(t.leaf_labels) == 4:
                assert not any(_floors_agree(t, r, cords) for r in trees4 if not skip(r))
    assert seen == {False, True}


def test_every_witness_is_built_by_its_constructor(monkeypatch):
    # the floor and engine witnesses of the rival scan and the equidistant
    # decision's witnesses all pass through Witness.__init__
    built = {}  # id -> witness; holding each keeps its id from being reused
    init = Witness.__init__

    def recorded(self, *fields):
        init(self, *fields)
        built[id(self)] = self

    monkeypatch.setattr(Witness, "__init__", recorded)
    four = [(t, c) for t in enumerate_xtrees(LABELS4) for c in all_cord_subsets(LABELS4)]
    seen = set()
    for t, cords, _, witness, floor in _scan_witnesses(four):
        if witness is not None:
            assert built.get(id(witness)) is witness
            seen.add("floor" if floor else "engine")
    for t, cords in four:
        _, witness = oracle_equidistant(t, cords)
        if witness is not None:
            assert built.get(id(witness)) is witness
            seen.add("equidistant")
    assert seen == {"floor", "engine", "equidistant"}


def test_an_edited_floor_witness_leaves_the_next_one_intact():
    # floor witnesses share the rows' views, but each gets its own height
    # maps: replacing one map's heights changes no later witness
    t = XTree(((("a", "b"), "c"), ("d", "e")))
    ok, first = oracle_topological(t, frozenset())
    table = _rival_table(t.leaf_labels)
    assert not ok and first.heights_t.heights is table.rows[table.row_of[t]][7]
    before = dict(first.heights_t.heights), dict(first.heights_rival.heights)
    for heights in (first.heights_t, first.heights_rival):
        object.__setattr__(heights, "heights", {v: Fraction(-1) for v in heights.heights})
    assert not verify_witness(t, frozenset(), first, "topological")
    ok, second = oracle_topological(t, frozenset())
    assert not ok and second.rival == first.rival
    assert second.heights_t is not first.heights_t
    assert (dict(second.heights_t.heights), dict(second.heights_rival.heights)) == before
    assert verify_witness(t, frozenset(), second, "topological")


def test_every_four_leaf_witness_verifies():
    decide = {
        "equidistant": oracle_equidistant,
        "weak": oracle_weak,
        "topological": oracle_topological,
    }
    failures = 0
    for t in enumerate_xtrees(LABELS4):
        for cords in all_cord_subsets(LABELS4):
            for kind, oracle in decide.items():
                ok, witness = oracle(t, cords)
                assert ok == (witness is None)
                if not ok:
                    assert verify_witness(t, cords, witness, kind)
                    failures += 1
    assert failures


def test_oracle_side_implications():
    for t in enumerate_xtrees(LABELS4)[::5]:
        for cords in all_cord_subsets(LABELS4)[::13]:
            topo = oracle_topological(t, cords)[0]
            weak = oracle_weak(t, cords)[0]
            eq = oracle_equidistant(t, cords)[0]
            if topo:
                assert weak
            if weak and cords:
                assert eq


def test_witness_on_the_wrong_tree_is_rejected():
    # The cords are all six, so the tree is a strong lasso and no witness
    # can exist; heights that sit on another tree than the one they claim
    # would otherwise pass every distance check.
    t = XTree(((("a", "b"), "c"), "d"))
    rival = XTree(((("a", "c"), "b"), "d"))
    cords = all_cords(LABELS4)
    on_rival = random_proper_heights(rival, 1)
    on_t = random_proper_heights(t, 1)
    for witness in (
        Witness(rival=rival, heights_t=on_rival, heights_rival=on_rival),
        Witness(rival=rival, heights_t=on_t, heights_rival=on_t),
        Witness(rival=t, heights_t=on_rival, heights_rival=on_rival),
    ):
        for kind in ("equidistant", "weak", "topological"):
            assert not verify_witness(t, cords, witness, kind)


def test_witness_on_another_leaf_set_is_rejected():
    # A rival over other leaves is no rival: every kind says False, rather
    # than raising because the two height maps cover different leaf sets.
    t = XTree(((("a", "b"), "c"), ("d", "e")))
    rival = XTree(((("a", "b"), "c"), ("d", "f")))
    ab = cord_set([("a", "b")])
    witness = Witness(rival, random_proper_heights(t, 1), random_proper_heights(rival, 1))
    for kind in ("equidistant", "weak", "topological"):
        assert not verify_witness(t, ab, witness, kind)
    with pytest.raises(ValueError, match="unknown witness kind 'bogus'"):
        verify_witness(t, ab, witness, "bogus")


def test_witness_kind_validation():
    _, witness = oracle_equidistant(T4, frozenset())
    with pytest.raises(ValueError):
        verify_witness(T4, frozenset(), witness, "strong")
    # the kind is checked first: a witness whose heights sit on another
    # tree, whose rival heights sit on another tree, or whose cord
    # distances differ raises as a valid witness does, not False
    t = XTree(((("a", "b"), "c"), "d"))
    ab = cord_set([("a", "b")])
    _, witness = oracle_weak(t, ab)
    rival = witness.rival
    failing = [
        (Witness(rival, random_proper_heights(rival, 1), witness.heights_rival), ab),
        (Witness(rival, witness.heights_t, random_proper_heights(t, 1)), ab),
        (witness, cord_set([("a", "c")])),
    ]
    for w, cords in failing:
        assert not verify_witness(t, cords, w, "weak")
    assert verify_witness(t, ab, witness, "weak")
    for w, cords in failing + [(witness, ab)]:
        with pytest.raises(ValueError, match="unknown witness kind 'bogus'"):
            verify_witness(t, cords, w, "bogus")


def _decision_rows(trees, cord_sets):
    """Every verdict, witness rival and witness height (value and type)."""
    rows = []
    for t in trees:
        for cords in cord_sets:
            for kind, decide in (
                ("weak", oracle_weak),
                ("topological", oracle_topological),
                ("equidistant", oracle_equidistant),
            ):
                rows.append(decision_row(kind, *decide(t, cords)))
    return rows


# Recorded before the equidistant scan skipped met vertices and the engine
# built its points from integer numerators.
FOUR_LEAF_DECISIONS_SHA256 = "9cd2d2b99ebf5d8b74f48e8054e65f5a466d161ac068e4764356b16338e70cb4"


def test_four_leaf_decisions_match_the_recorded_corpus():
    rows = _decision_rows(enumerate_xtrees(LABELS4), all_cord_subsets(LABELS4))
    assert len(rows) == 26 * 64 * 3
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FOUR_LEAF_DECISIONS_SHA256


def _five_leaf_sweep():
    """Every five-leaf tree with one seeded cord set of each size 0-10, the
    mix of the benchmark's oracle sweep."""
    pool = sorted(all_cords(LABELS5))
    for index, t in enumerate(enumerate_xtrees(LABELS5)):
        rng = random.Random(index)
        for k in range(len(pool) + 1):
            yield t, frozenset(rng.sample(pool, k))


# Recorded before the decisions resolved cords by lookup and witness height
# maps were checked in one pass.
FIVE_LEAF_DECISIONS_SHA256 = "456f96abf7322a6b8d723f47198ff7f9ead2826cfbf7a7421c26cc880631f70f"


def test_five_leaf_decisions_match_the_recorded_sweep():
    rows = [row for t, cords in _five_leaf_sweep() for row in _decision_rows([t], [cords])]
    assert len(rows) == 236 * 11 * 3 == 7788
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FIVE_LEAF_DECISIONS_SHA256


def _rival_table_fields(labels):
    """Every field of a leaf set's rival table, each row's tree as its
    canonical Newick and each dict as its sorted items."""
    table = _rival_table(frozenset(labels))
    return (
        table.offset,
        sorted(table.cord_index.items()),
        table.pair_base,
        table.conflicts,
        sorted(table.containing.items()),
        [(row[0].canonical_newick(),) + row[1:6] for row in table.rows],
        sorted((t.canonical_newick(), r) for t, r in table.row_of.items()),
    )


# The digest of the table that read relations off every vertex's leaf set,
# its edges then stored as ``(x, y, 0, True)``, with each edge mapped to the
# pair ``(x, y)``.
RIVAL_TABLE_SHA256 = "27241f75b02940b653f2f9a1c420f48eeec61e5c22131f19926fe52e07d6db77"


def test_rival_tables_match_the_recorded_digest():
    # the digest covers each row's first six fields; its least levels and
    # their height view are checked against the engine and the map builder
    fields = [_rival_table_fields(labels) for labels in (LABELS4, LABELS5, LABELS6)]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == RIVAL_TABLE_SHA256
    for labels in (LABELS4, LABELS5, LABELS6):
        for row in _rival_table(frozenset(labels)).rows:
            tree, own_edges, least, view = row[0], row[5], row[6], row[7]
            assert list(least) == oracle._solve_levels(len(tree._interior), (), own_edges)
            assert all(type(a) is int for a in least)
            assert view == HeightMap._from_levels(tree, least).heights
            assert type(view) is MappingProxyType


def test_rows_share_few_height_views():
    # one view per distinct interior ids and least levels, shared by the rows
    for labels, most in ((LABELS5, 8), (LABELS6, 17)):
        rows = _rival_table(frozenset(labels)).rows
        assert len({id(row[7]) for row in rows}) <= most


def _equidistant_reference(t, cords, i):
    """Two proper height vectors of ``t`` agreeing on every cord, the first
    strictly above the second at interior vertex ``i``, through the generic
    route; None when there are none."""
    interior = t.interior_vertices()
    variables = [(side, v) for side in "TR" for v in interior]
    strict = [
        ({(side, t.parent(v)): 1, (side, v): -1}, 0)
        for side in "TR"
        for v in interior
        if v != t.root
    ]
    strict.append(({("T", i): 1, ("R", i): -1}, 0))
    equalities = [({("T", t.lca(a, b)): 1, ("R", t.lca(a, b)): -1}, 0) for a, b in cords]
    return reference_strict_feasible(
        linear_system(variables, equalities=equalities, strict=strict, nonneg=variables)
    )


def test_equidistant_matches_every_vertex_reference_and_skips_met_vertices(monkeypatch):
    # the reference tries every interior vertex in order; the oracle's engine
    # sees only the vertices where no given cord meets, up to the first
    # feasible one, and its verdict and witness equal the reference's
    engine = oracle._solve_levels
    calls = []

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(oracle, "_solve_levels", counted)
    cases = [(t, c) for t in enumerate_xtrees(LABELS4) for c in all_cord_subsets(LABELS4)]
    rng = random.Random(8)
    for t in rng.sample(enumerate_xtrees(LABELS5), 40):
        for size in (0, 2, 4, 6, 9):
            cases.append((t, random_cords(t, size, rng.randrange(10**6))))
    skipped = 0
    for t, cords in cases:
        met = {t.lca(a, b) for a, b in cords}
        expected_calls, point = 0, None
        for i in t.interior_vertices():
            point = _equidistant_reference(t, cords, i)
            if i in met:
                assert point is None  # the skip is exact
                skipped += 1
                continue
            expected_calls += 1
            if point is not None:
                break
        calls.clear()
        ok, witness = oracle_equidistant(t, cords)
        assert len(calls) == expected_calls
        assert ok == (point is None)
        if point is not None:
            interior = t.interior_vertices()
            assert witness.rival == t
            assert witness.heights_t.heights == {v: point[("T", v)] for v in interior}
            assert witness.heights_rival.heights == {v: point[("R", v)] for v in interior}
            for heights in (witness.heights_t.heights, witness.heights_rival.heights):
                assert all(type(x) is Fraction for x in heights.values())
    assert skipped


def _reference_levels(system):
    """The reference engine's least point of a joint system, in its variables' order."""
    ids = {v: i for i, v in enumerate(system.variables)}
    equal = [(ids[x], ids[y], 0) for x, y in system.equalities]
    greater = [(ids[x], ids[y], 0, True) for x, y in system.strict_inequalities]
    return reference_solve_differences(len(ids), equal, greater)


def test_every_oracle_engine_call_matches_the_reference_engine(monkeypatch):
    # every engine call of the three decisions, on all 4-leaf trees with all
    # cord subsets and on 40 seeded 5-leaf trees with a cord set of each
    # size, returns the reference engine's list value for value, as plain
    # ints, and every witness built from it holds Fractions.  The masks
    # leave the engine feasible rivals only, so the infeasible answers are
    # compared in test_feasibility.py.
    engine = oracle._solve_levels
    calls = []

    def compared(n, equal, greater):
        got = engine(n, equal, greater)
        reference = reference_solve_differences(
            n, [(x, y, 0) for x, y in equal], [(x, y, 0, True) for x, y in greater]
        )
        assert got == reference, (n, equal, greater)
        assert got is None or all(type(v) is int for v in got)
        calls.append(n)
        return got

    monkeypatch.setattr(oracle, "_solve_levels", compared)
    cases = [(t, c) for t in enumerate_xtrees(LABELS4) for c in all_cord_subsets(LABELS4)]
    rng = random.Random(7)
    pool = sorted(all_cords(LABELS5))
    for t in rng.sample(enumerate_xtrees(LABELS5), 40):
        cases += [(t, frozenset(rng.sample(pool, k))) for k in range(len(pool) + 1)]
    witnesses = floors = 0
    for t, cords in cases:
        for decide in (oracle_weak, oracle_topological, oracle_equidistant):
            before = len(calls)
            _, witness = decide(t, cords)
            if witness is not None:
                for heights in (witness.heights_t.heights, witness.heights_rival.heights):
                    assert all(type(x) is Fraction for x in heights.values())
                witnesses += 1
                if len(calls) == before:  # a floor witness: the reference solves its system
                    assert decide is not oracle_equidistant
                    levels = _reference_levels(joint_isometry_system(t, witness.rival, cords))
                    maps = (witness.heights_t, witness.heights_rival)
                    assert [h for m in maps for h in m.heights.values()] == levels
                    floors += 1
    assert len(calls) + floors > 4000
    assert floors and witnesses == len(calls) + floors  # no engine call was infeasible


def test_a_non_proper_engine_point_is_never_returned(monkeypatch):
    # witnesses are validated as height maps: an engine point that breaks
    # properness raises instead of coming back as a witness.  With no cords
    # the rival scans end at a floor witness, so they get a cord meeting
    # where the least levels of T4 and of the first rival tried differ, and
    # the engine runs
    monkeypatch.setattr(oracle, "_solve_levels", lambda n, equal, greater: [0] * n)
    for decide, cords in (
        (oracle_weak, cord_set([("c", "d")])),
        (oracle_topological, cord_set([("c", "d")])),
        (oracle_equidistant, frozenset()),
    ):
        with pytest.raises(ValueError, match="strictly decrease"):
            decide(T4, cords)


@pytest.mark.parametrize(
    "shape",
    [
        ((("a", "b"), ("c", "d")), (("e", "f"), "g")),
        (((("a", "b"), "c"), ("d", "e", "f")), ("g", "h")),
    ],
)
def test_equidistant_oracle_has_no_leaf_cap(shape):
    # the equidistant oracle reads no rival table, so it decides trees past
    # the enumeration cap and leaves the rival tables alone
    t = XTree(shape)
    info = _rival_table.cache_info()
    lasso = min_equidistant_lasso(t)
    assert oracle_equidistant(t, lasso) == (True, None)
    for c in sorted(lasso):
        fewer = lasso - {c}
        ok, witness = oracle_equidistant(t, fewer)
        assert not ok
        assert verify_witness(t, fewer, witness, "equidistant")
    assert _rival_table.cache_info() == info


def test_equidistant_decision_at_2000_leaves_reads_only_the_given_cords():
    # a seeded 2000-leaf tree with its minimum equidistant lasso and with
    # one cord fewer: the meeting vertices are walked per given cord, so no
    # table over all leaf pairs is built
    t = random_xtree(2000, 17)
    lasso = min_equidistant_lasso(t)
    fewer = lasso - {min(lasso)}
    start = time.process_time()
    tracemalloc.start()
    try:
        assert oracle_equidistant(t, lasso) == (True, None)
        ok, witness = oracle_equidistant(t, fewer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elapsed = time.process_time() - start
    assert not ok and verify_witness(t, fewer, witness, "equidistant")
    assert peak < 10 * 2**20
    assert elapsed < 1


def test_equidistant_decisions_keep_nothing_per_tree():
    # 20 seeded 2000-leaf trees, each decided once with its minimum
    # equidistant lasso: a decision works out its tables and drops them, so
    # nothing is held even while the trees live, nor once they are dropped.
    # A cache keyed by tree kept every tree and its tables, about 6.8 MB.
    cases = [(t, min_equidistant_lasso(t)) for t in map(partial(random_xtree, 2000), range(20))]
    gc.collect()
    tracemalloc.start()
    try:
        # One decision first: the interpreter's free list of small tuples
        # keeps up to a few thousand freed blocks, and this fills it with
        # traced ones, so what follows counts only memory that is held.
        oracle_equidistant(*cases[0])
        before = tracemalloc.get_traced_memory()[0]
        for t, lasso in cases:
            assert oracle_equidistant(t, lasso) == (True, None)
        held = tracemalloc.get_traced_memory()[0] - before
        del cases, t, lasso
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**16, f"{held / 2**20:.2f} MB held after 20 decisions"
    assert retained < 2**16, f"{retained / 2**20:.2f} MB retained after the trees were dropped"


def test_equal_trees_built_apart_decide_alike():
    # two equal trees built apart give the same verdict and the same height
    # maps, whichever is decided first and whether or not the other lives
    shape = ((("m1", "m2"), "m3"), ("m4", "m5"))
    first, second = XTree(shape), XTree(shape)
    assert first == second and first is not second
    cords = cord_set([("m1", "m2"), ("m3", "m4")])

    def decide(t):  # the decision without references to the tree
        ok, witness = oracle_equidistant(t, cords)
        return ok, witness.heights_t.heights, witness.heights_rival.heights

    expected = decide(first)
    assert not expected[0]
    assert decide(second) == expected
    del first
    gc.collect()
    assert decide(second) == expected


def test_equidistant_witness_on_a_66_leaf_caterpillar():
    # 65 interior vertices on one path and no cords: the first vertex tried,
    # the root, gives the witness, with the second copy's root at 64, one
    # past the engine's shared small values, and the first copy's at 65
    t = bearded_caterpillar(2, 65)
    assert len(t.leaf_labels) == 66 and len(t.interior_vertices()) == 65
    ok, witness = oracle_equidistant(t, frozenset())
    assert not ok and verify_witness(t, frozenset(), witness, "equidistant")
    assert witness.heights_rival.height(t.root) == 64
    assert witness.heights_t.height(t.root) == 65


def test_rival_tables_of_a_few_leaf_sets_only_are_kept():
    # one weak decision on each of 16 distinct five-leaf label sets: the
    # trees and rival tables of the older sets are dropped.  Caches without
    # a bound kept all 16 sets, about 11 MB.
    leaf_sets = [tuple(f"{x}{i}" for x in "abcde") for i in range(16)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a, b, c, d, e in leaf_sets:
            ok, _ = oracle_weak(XTree((((a, b), c), (d, e))), [(a, b), (d, e)])
            assert not ok
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 5 * 2**20, f"{retained / 2**20:.2f} MB retained"
    assert _rival_table.cache_info().currsize == oracle._KEPT_LEAF_SETS
    hits = _rival_table.cache_info().hits
    _rival_table(frozenset(leaf_sets[-1]))  # the last set asked for is kept
    assert _rival_table.cache_info().hits == hits + 1
