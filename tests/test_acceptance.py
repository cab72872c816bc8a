"""Acceptance suite: one test per exit criterion, exact agreement everywhere.

Each criterion prints its own pass/fail line on the real stdout (bypassing
pytest capture) so a plain ``pytest -v`` run shows the twelve verdicts.
"""

import random
import sys
from itertools import combinations
from math import comb

import pytest

from conftest import (
    LABELS4,
    LABELS5,
    LABELS6,
    all_cord_subsets,
    count_binary_xtrees,
    count_xtrees,
    seeded_cord_sets,
)
from treelasso import (
    Bipartition,
    HeightMap,
    XTree,
    all_cords,
    bipartition_lasso,
    circular_lasso,
    circular_order,
    classify,
    enumerate_binary_xtrees,
    enumerate_xtrees,
    is_covering,
    is_equidistant_lasso,
    is_topological_lasso,
    is_weak_lasso,
    min_equidistant_lasso,
    min_topological_lasso,
    min_weak_lasso,
    oracle_equidistant,
    oracle_topological,
    oracle_weak,
    random_proper_heights,
    reduction_check,
    verify_witness,
)
from treelasso.feasibility import linear_system, strict_feasible
from treelasso.tree import triplet


def announce(line: str) -> None:
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@pytest.fixture(scope="module")
def sweep4():
    """Characterization-side and definition-side flags for every (tree,
    cord set) pair on four leaves: 26 trees x 64 cord subsets."""
    records = []
    for t in enumerate_xtrees(LABELS4):
        for cords in all_cord_subsets(LABELS4):
            combinatorial = (
                is_equidistant_lasso(t, cords),
                is_weak_lasso(t, cords),
                is_topological_lasso(t, cords),
            )
            oracle = (
                oracle_equidistant(t, cords)[0],
                oracle_weak(t, cords)[0],
                oracle_topological(t, cords)[0],
            )
            records.append((t, cords, combinatorial, oracle))
    return records


def test_c01_equidistant_characterization_exhaustive_n4(sweep4):
    bad = [(t, c) for t, c, th, orc in sweep4 if th[0] != orc[0]]
    assert not bad
    announce(f"PASS  criterion 1: equidistant characterization, {len(sweep4)} instances, exact agreement")


def test_c02_weak_characterization_exhaustive_n4(sweep4):
    bad = [(t, c) for t, c, th, orc in sweep4 if th[1] != orc[1]]
    assert not bad
    announce(f"PASS  criterion 2: weak-lasso characterization, {len(sweep4)} instances, exact agreement")


def test_c03_topological_characterization_exhaustive_n4(sweep4):
    bad = [(t, c) for t, c, th, orc in sweep4 if th[2] != orc[2]]
    assert not bad
    announce(f"PASS  criterion 3: topological characterization, {len(sweep4)} instances, exact agreement")


def test_c04_five_leaf_spot_check():
    mismatches = 0
    instances = 0
    for index, t in enumerate(enumerate_xtrees(LABELS5)):
        for cords in seeded_cord_sets(LABELS5, 200, index):
            instances += 1
            if is_equidistant_lasso(t, cords) != oracle_equidistant(t, cords)[0]:
                mismatches += 1
            if is_weak_lasso(t, cords) != oracle_weak(t, cords)[0]:
                mismatches += 1
            if is_topological_lasso(t, cords) != oracle_topological(t, cords)[0]:
                mismatches += 1
    assert mismatches == 0
    announce(f"PASS  criterion 4: five-leaf spot check, {instances} instances x 3 kinds, exact agreement")


def test_c05_binary_trees_collapse_the_hierarchy():
    checked = 0
    for t in enumerate_binary_xtrees(LABELS4):
        for cords in all_cord_subsets(LABELS4):
            report = classify(t, cords)
            assert report.equidistant == report.weak == report.topological
            assert report.strong == report.equidistant
            checked += 1
    for index, t in enumerate(enumerate_binary_xtrees(LABELS5)):
        for cords in seeded_cord_sets(LABELS5, 200, 1000 + index):
            report = classify(t, cords)
            assert report.equidistant == report.weak == report.topological
            assert report.strong == report.equidistant
            checked += 1
    announce(f"PASS  criterion 5: binary coincidence (all kinds agree, all strong), {checked} instances")


def test_c06_cherry_reduction_equivalence():
    # The equivalence is a statement about cherry mates: for x, y inside a
    # pseudo-cherry of three or more leaves it genuinely fails (see the
    # counterexamples in test_lasso), so the sweep runs over 2-leaf cherries.
    checked = 0
    for t in enumerate_xtrees(LABELS4):
        pairs = [
            (x, y)
            for _, leaves in t.pseudo_cherries()
            if len(leaves) == 2
            for x in leaves
            for y in leaves
            if x != y
        ]
        for cords in all_cord_subsets(LABELS4):
            for x, y in pairs:
                for kind in ("equidistant", "weak", "topological"):
                    if kind == "weak" and not cords:
                        continue
                    assert reduction_check(t, cords, x, y, kind)
                    checked += 1
    announce(f"PASS  criterion 6: cherry-reduction equivalence, {checked} checks, zero violations")


def test_c07_builder_guarantees():
    trees = []
    for labels in (("a", "b", "c"), LABELS4, LABELS5):
        trees.extend(enumerate_xtrees(labels))
    for t in trees:
        interior = t.interior_vertices()

        eq = min_equidistant_lasso(t)
        assert len(eq) == len(interior)
        assert is_equidistant_lasso(t, eq) and oracle_equidistant(t, eq)[0]
        for dropped in eq:
            assert not is_equidistant_lasso(t, eq - {dropped})

        topo = min_topological_lasso(t)
        assert len(topo) == sum(comb(len(t.children(v)), 2) for v in interior)
        assert is_topological_lasso(t, topo) and oracle_topological(t, topo)[0]
        for dropped in topo:
            assert not is_topological_lasso(t, topo - {dropped})

        weak = min_weak_lasso(t)
        assert is_weak_lasso(t, weak) and oracle_weak(t, weak)[0]
        for dropped in weak:
            assert not is_weak_lasso(t, weak - {dropped})
    announce(f"PASS  criterion 7: builder sizes, lasso status and removal-minimality on {len(trees)} trees")


def _circular_topological_condition(t: XTree) -> bool:
    # every interior vertex has two children; the root alone may have three
    for v in t.interior_vertices():
        k = len(t.children(v))
        if v == t.root:
            if k > 3:
                return False
        elif k != 2:
            return False
    return True


def test_c08_circular_and_bipartition_constructions():
    checked = 0
    for labels in (("a", "b", "c"), LABELS4, LABELS5):
        universe = set(labels)
        for t in enumerate_xtrees(labels):
            lc = circular_lasso(circular_order(t))
            assert is_equidistant_lasso(t, lc)
            assert is_topological_lasso(t, lc) == _circular_topological_condition(t)
            checked += 1

            cherries = [leaves for _, leaves in t.pseudo_cherries()]
            for r in range(1, len(labels)):
                for a_side in combinations(sorted(universe), r):
                    a = frozenset(a_side)
                    b = frozenset(universe - a)
                    if not all(pc & a and pc & b for pc in cherries):
                        continue
                    cords = bipartition_lasso(Bipartition(a, b))
                    assert is_weak_lasso(t, cords)
                    assert is_equidistant_lasso(t, cords)
                    if t.is_star():
                        assert not is_topological_lasso(t, cords)
                    checked += 1
    announce(f"PASS  criterion 8: circular and bipartition constructions, {checked} checks, zero violations")


def _transfer_instance(seed, pools):
    rng = random.Random(seed)
    labels, pool = pools[seed % 2]
    t = rng.choice(pool)
    rival = rng.choice(pool)
    hm = random_proper_heights(t, rng.randrange(1 << 30))
    a, a2, b = rng.sample(labels, 3)
    half_aa = hm.leaf_distance(a, a2) / 2
    half_ab = hm.leaf_distance(a, b) / 2
    variables = list(rival.interior_vertices())
    strict = []
    for v in variables:
        p = rival.parent(v)
        if p is not None:
            strict.append(({p: 1, v: -1}, 0))
    equalities = [({rival.lca(a, a2): 1}, half_aa), ({rival.lca(a, b): 1}, half_ab)]
    point = strict_feasible(
        linear_system(variables, equalities=equalities, strict=strict, nonneg=variables)
    )
    if point is None:
        return None
    return t, hm, rival, HeightMap(rival, point), (a, a2, b)


def test_c09_distance_transfer_property_suite():
    pools = [
        (LABELS4, enumerate_xtrees(LABELS4)),
        (LABELS5, enumerate_xtrees(LABELS5)),
    ]
    produced = 0
    seed = 0
    strict_cases = 0
    while produced < 10_000:
        instance = _transfer_instance(seed, pools)
        seed += 1
        if instance is None:
            continue
        produced += 1
        t, hm, rival, hm2, (a, a2, b) = instance
        # hypotheses: the two weighted trees agree on d(a,a') and d(a,b)
        assert hm.leaf_distance(a, a2) == hm2.leaf_distance(a, a2)
        assert hm.leaf_distance(a, b) == hm2.leaf_distance(a, b)
        if hm.leaf_distance(a, a2) < hm.leaf_distance(a, b):
            strict_cases += 1
            assert hm.leaf_distance(a, b) == hm.leaf_distance(a2, b)
            assert hm2.leaf_distance(a, a2) < hm2.leaf_distance(a, b)
            assert hm2.leaf_distance(a, b) == hm2.leaf_distance(a2, b)
            assert hm2.leaf_distance(a2, b) == hm.leaf_distance(a2, b)
        assert (triplet(a, a2, b) in t.triplets()) == (
            triplet(a, a2, b) in rival.triplets()
        )
        if hm.leaf_distance(a2, b) == hm2.leaf_distance(a2, b):
            z = {a, a2, b}
            assert t.restrict(z).is_star() == rival.restrict(z).is_star()
    assert strict_cases > 1000  # the conditional conclusions were exercised
    announce(f"PASS  criterion 9: distance-transfer suite, {produced} instances ({strict_cases} strict-gap cases)")


def test_c10_covering_necessity(sweep4):
    checked = 0
    for t, cords, combinatorial, _ in sweep4:
        _, weak, topological = combinatorial
        if weak and not t.is_star():
            assert is_covering(cords, t.leaf_labels)
            checked += 1
        if topological:
            assert is_covering(cords, t.leaf_labels)
            if t.is_star():
                assert cords == all_cords(t.leaf_labels)
            checked += 1
    announce(f"PASS  criterion 10: covering necessity, {checked} lassos checked")


def test_c11_enumeration_counts_against_independent_recursion():
    for n, labels in [(3, ("a", "b", "c")), (4, LABELS4), (5, LABELS5)]:
        trees = enumerate_xtrees(labels)
        binaries = enumerate_binary_xtrees(labels)
        assert len(trees) == count_xtrees(n)
        assert len(binaries) == count_binary_xtrees(n)
        assert len({t.canonical_newick() for t in trees}) == len(trees)
    assert [count_xtrees(n) for n in (3, 4, 5)] == [4, 26, 236]
    assert [count_binary_xtrees(n) for n in (3, 4, 5)] == [3, 15, 105]
    announce("PASS  criterion 11: enumeration counts 4/26/236 and 3/15/105 match the recursion")


def test_c12_six_leaf_sweep():
    # every six-leaf tree with one seeded cord set: the oracle decides each
    # kind exhaustively, and each False verdict comes with a witness that
    # re-verifies
    decide = {
        "equidistant": oracle_equidistant,
        "weak": oracle_weak,
        "topological": oracle_topological,
    }
    trees = enumerate_xtrees(LABELS6)
    verdicts = {kind: [0, 0] for kind in decide}  # [False, True] counts
    for index, t in enumerate(trees):
        cords = next(seeded_cord_sets(LABELS6, 1, index))
        report = classify(t, cords)
        for kind, oracle in decide.items():
            ok, witness = oracle(t, cords)
            assert ok == getattr(report, kind), (t, cords, kind)
            assert (witness is None) == ok
            if not ok:
                assert verify_witness(t, cords, witness, kind)
            verdicts[kind][ok] += 1
    assert len(trees) == count_xtrees(6) == 2752
    assert all(no and yes for no, yes in verdicts.values())
    announce(f"PASS  criterion 12: six-leaf sweep, {len(trees)} instances x 3 kinds, exact agreement, every witness verified")
