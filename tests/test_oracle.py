"""Definition-level oracle: enumeration, joint systems, witnesses, route agreement."""

import pytest

from conftest import LABELS4, LABELS5, all_cord_subsets, count_binary_xtrees, count_xtrees
from treelasso import (
    XTree,
    all_cords,
    cord_set,
    enumerate_binary_xtrees,
    enumerate_xtrees,
    joint_isometry_system,
    oracle_equidistant,
    oracle_topological,
    oracle_weak,
    strict_feasible,
    verify_witness,
)

TRIPLET = XTree((("a", "b"), "c"))
STAR3 = XTree(("a", "b", "c"))
T4 = XTree((("a", "b", "c"), "d"))


def test_enumeration_counts_match_partition_recursion():
    for n, labels in [(3, ("a", "b", "c")), (4, LABELS4), (5, LABELS5)]:
        assert len(enumerate_xtrees(labels)) == count_xtrees(n)
        assert len(enumerate_binary_xtrees(labels)) == count_binary_xtrees(n)
    assert [count_xtrees(n) for n in (3, 4, 5)] == [4, 26, 236]
    assert [count_binary_xtrees(n) for n in (3, 4, 5)] == [3, 15, 105]


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_xtrees(["a"])
    with pytest.raises(ValueError):
        enumerate_xtrees(list("abcdefg"))
    with pytest.raises(ValueError):
        enumerate_xtrees(["a", "a", "b"])
    assert len(enumerate_xtrees(["a", "b"])) == 1


def test_enumerated_trees_are_pairwise_inequivalent():
    trees = enumerate_xtrees(LABELS4)
    assert len({t.canonical_newick() for t in trees}) == len(trees)


def test_joint_system_examples():
    # a tree always fits the cords jointly with itself
    assert strict_feasible(joint_isometry_system(T4, T4, all_cords(LABELS4))) is not None
    # the full cord set on three leaves separates the triplet from the star
    full3 = all_cords("abc")
    assert strict_feasible(joint_isometry_system(TRIPLET, STAR3, full3)) is None
    # a single cherry cord does not
    assert strict_feasible(joint_isometry_system(TRIPLET, STAR3, cord_set([("a", "b")]))) is not None


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
    six = XTree(tuple("abcdef"))
    with pytest.raises(ValueError):
        oracle_weak(six, frozenset())
    # sampled mode is allowed at six leaves and labeled as non-exhaustive
    assert oracle_weak(six, frozenset(), rival_sample=25, seed=1)[0]
    ok, witness = oracle_topological(six, frozenset(), rival_sample=25, seed=1)
    assert not ok and verify_witness(six, frozenset(), witness, "topological")


def test_scan_route_matches_full_system_route():
    # each witness rival is the first rival in canonical order, not skipped,
    # whose full joint system is feasible; no witness means no such rival
    trees = enumerate_xtrees(LABELS4)
    for t in trees[::3]:
        for cords in all_cord_subsets(LABELS4)[::17]:
            for decide, skip in (
                (oracle_weak, lambda r: r.refines(t)),
                (oracle_topological, lambda r: r == t),
            ):
                _, witness = decide(t, cords)
                first = next(
                    (
                        r
                        for r in trees
                        if not skip(r)
                        and strict_feasible(joint_isometry_system(t, r, cords)) is not None
                    ),
                    None,
                )
                assert (None if witness is None else witness.rival) == first


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


def test_witness_kind_validation():
    _, witness = oracle_equidistant(T4, frozenset())
    with pytest.raises(ValueError):
        verify_witness(T4, frozenset(), witness, "strong")
