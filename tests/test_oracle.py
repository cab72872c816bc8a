"""Definition-level oracle: enumeration, joint systems, witnesses, route agreement."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    LABELS4,
    LABELS5,
    all_cord_subsets,
    count_binary_xtrees,
    count_xtrees,
    random_cords,
)
from treelasso import (
    XTree,
    all_cords,
    cord_set,
    enumerate_binary_xtrees,
    enumerate_xtrees,
    joint_isometry_system,
    linear_system,
    min_equidistant_lasso,
    oracle_equidistant,
    oracle_topological,
    oracle_weak,
    strict_feasible,
    verify_witness,
)
from treelasso import oracle
from treelasso.oracle import _rival_table

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
    ok, witness = oracle_topological(six, frozenset(), rival_sample=25, seed=1)
    assert not ok and verify_witness(six, frozenset(), witness, "topological")
    # seven leaves are past the enumeration, sampled or not
    seven = XTree(tuple("abcdefg"))
    for decide in (oracle_weak, oracle_topological):
        for sampling in ({}, {"rival_sample": 25, "seed": 1}):
            with pytest.raises(ValueError, match=r"2\.\.6 leaves, got 7"):
                decide(seven, frozenset(), **sampling)


def test_rival_sample_below_one_rejected():
    for decide in (oracle_weak, oracle_topological):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="rival_sample must be at least 1"):
                decide(T4, frozenset(), rival_sample=bad)


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
    # sampled mode: the scan runs over the sampled rivals in canonical order
    trees6 = enumerate_xtrees("abcdef")
    for seed in range(4):
        t = trees6[seed * 611]
        picked = random.Random(seed).sample(trees6, 40)
        rivals = sorted(picked, key=lambda r: r.canonical_newick())
        for size in (3, 7, 11):
            cords = random_cords(t, size, seed * 31 + size)
            cases.append((t, cords, rivals, {"rival_sample": 40, "seed": seed}))
    found = 0
    for t, cords, rivals, sampling in cases:
        for decide, skip in (
            (oracle_weak, lambda r: r.refines(t)),
            (oracle_topological, lambda r: r == t),
        ):
            _, witness = decide(t, cords, **sampling)
            first = _first_fitting(t, cords, rivals, skip)
            assert (None if witness is None else witness.rival) == first
            found += first is not None
    assert 0 < found < 2 * len(cases)


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
    """The scan's two-AND test, read off the rival table."""
    table = _rival_table(tuple(sorted(t.leaf_labels)))
    m = len(table.cord_index)
    index = [table.cord_index[c] for c in cords]
    pairs = sum(1 << (i * m + j) for i in index for j in index)
    _, _, _, t_above, t_below = table.rows[table.row_of[t]]
    _, _, _, above, below = table.rows[table.row_of[r]]
    return bool(t_above & pairs & below or t_below & pairs & above)


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


def test_scan_calls_the_engine_only_past_the_pairwise_test(monkeypatch):
    # the engine sees, in canonical order, exactly the rivals that are neither
    # skipped nor in cord-order conflict, up to the first feasible one
    engine = oracle._solve_differences
    calls = []

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(oracle, "_solve_differences", counted)
    trees = enumerate_xtrees(LABELS4)
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
                    expected += 1
                    if strict_feasible(joint_isometry_system(t, r, cords)) is not None:
                        break
                calls.clear()
                decide(t, cords)
                assert len(calls) == expected


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
                ok, w = decide(t, cords)
                if w is None:
                    rows.append((kind, ok, None))
                else:
                    rows.append((
                        kind,
                        ok,
                        w.rival.canonical_newick(),
                        sorted(w.heights_t.heights.items()),
                        sorted(w.heights_rival.heights.items()),
                    ))
    return rows


# Recorded before the equidistant scan skipped met vertices and the engine
# built its points from integer numerators.
FOUR_LEAF_DECISIONS_SHA256 = "9cd2d2b99ebf5d8b74f48e8054e65f5a466d161ac068e4764356b16338e70cb4"


def test_four_leaf_decisions_match_the_recorded_corpus():
    rows = _decision_rows(enumerate_xtrees(LABELS4), all_cord_subsets(LABELS4))
    assert len(rows) == 26 * 64 * 3
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FOUR_LEAF_DECISIONS_SHA256


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
    return strict_feasible(
        linear_system(variables, equalities=equalities, strict=strict, nonneg=variables)
    )


def test_equidistant_matches_every_vertex_reference_and_skips_met_vertices(monkeypatch):
    # the reference tries every interior vertex in order; the oracle's engine
    # sees only the vertices where no given cord meets, up to the first
    # feasible one, and its verdict and witness equal the reference's
    engine = oracle._solve_differences
    calls = []

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(oracle, "_solve_differences", counted)
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
    assert skipped


def test_a_non_proper_engine_point_is_never_returned(monkeypatch):
    # witnesses are validated as height maps: an engine point that breaks
    # properness raises instead of coming back as a witness
    monkeypatch.setattr(oracle, "_solve_differences", lambda n, equal, greater: [Fraction(0)] * n)
    for decide in (oracle_weak, oracle_topological, oracle_equidistant):
        with pytest.raises(ValueError, match="strictly decrease"):
            decide(T4, frozenset())


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
    tables = _rival_table.cache_info().currsize
    lasso = min_equidistant_lasso(t)
    assert oracle_equidistant(t, lasso) == (True, None)
    for c in sorted(lasso):
        fewer = lasso - {c}
        ok, witness = oracle_equidistant(t, fewer)
        assert not ok
        assert verify_witness(t, fewer, witness, "equidistant")
    assert _rival_table.cache_info().currsize == tables
