"""Lasso classification from child-edge graphs, reductions, diagnostics."""

import copy
import dataclasses
import inspect
import operator
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations
from types import MappingProxyType

import pytest

import conftest
import treelasso
from conftest import (
    CORD_CORPUS,
    LABELS4,
    all_cord_subsets,
    bearded_caterpillar,
    brute_child_edge_pairs,
    cord_graph,
    is_covering,
    outcome,
    pseudo_cherries,
    random_cords,
    random_xtree,
    reduce_by_cherry,
    reduction_check,
)
from treelasso import (
    LassoReport,
    XTree,
    all_cords,
    build_child_edge_graph,
    child_edge_graphs,
    classify,
    cord_set,
    enumerate_xtrees,
    min_equidistant_lasso,
    min_topological_lasso,
    min_weak_lasso,
    oracle_equidistant,
    oracle_topological,
    oracle_weak,
)
from treelasso import cords as cords_module, lasso
from treelasso.cords import validate_cords

CAT = XTree(((("a", "b"), "c"), "d"))
T4 = XTree((("a", "b", "c"), "d"))
STAR3 = XTree(("a", "b", "c"))


def c(*pairs):
    return cord_set(pairs)


def test_equidistant_examples():
    assert not classify(CAT, frozenset()).equidistant
    assert classify(STAR3, c(("a", "b"))).equidistant
    assert classify(CAT, c(("a", "b"), ("a", "c"), ("a", "d"))).equidistant
    assert not classify(CAT, c(("a", "b"), ("a", "c"))).equidistant


def test_weak_examples():
    assert classify(STAR3, frozenset()).weak
    assert classify(XTree(("a", "b", "c", "d")), c(("a", "c"))).weak
    assert classify(T4, c(("a", "b"), ("b", "c"), ("a", "d"))).weak
    assert not classify(T4, c(("a", "b"), ("a", "d"))).weak
    assert not classify(T4, frozenset()).weak


def test_topological_examples():
    assert classify(STAR3, all_cords("abc")).topological
    for missing_one in all_cords("abc"):
        assert not classify(STAR3, all_cords("abc") - {missing_one}).topological
    assert classify(CAT, c(("a", "b"), ("a", "c"), ("a", "d"))).topological
    assert not classify(T4, c(("a", "b"), ("b", "c"), ("a", "d"))).topological


def test_classify_example_report():
    report = classify(T4, c(("a", "b"), ("b", "c"), ("a", "d")))
    assert (report.equidistant, report.weak, report.topological, report.strong) == (
        True,
        True,
        False,
        False,
    )
    assert report.failing_vertices["topological"] == (T4.lca("a", "b"),)
    assert report.failing_vertices["weak"] == ()


def test_classify_full_cord_set_gives_every_flag():
    for labels in (("a", "b", "c"), LABELS4):
        for t in enumerate_xtrees(labels):
            report = classify(t, all_cords(labels))
            assert report.equidistant and report.weak and report.topological and report.strong


def test_classify_flags_are_internally_consistent_everywhere():
    for t in enumerate_xtrees(LABELS4):
        for cords in all_cord_subsets(LABELS4)[::3]:
            report = classify(t, cords)
            assert report.strong == (report.equidistant and report.topological)
            if report.topological:
                assert report.weak
            if report.weak and cords:
                assert report.equidistant


def test_binary_trees_collapse_the_hierarchy():
    for t in filter(XTree.is_binary, enumerate_xtrees(LABELS4)):
        for cords in all_cord_subsets(LABELS4):
            report = classify(t, cords)
            assert report.equidistant == report.topological == report.weak


def test_adding_cords_never_breaks_a_lasso():
    pool = sorted(all_cords(LABELS4))
    for t in enumerate_xtrees(LABELS4)[::4]:
        for cords in all_cord_subsets(LABELS4)[::5]:
            before = classify(t, cords)
            for extra in pool:
                if extra in cords:
                    continue
                after = classify(t, cords | {extra})
                for kind in ("equidistant", "weak", "topological", "strong"):
                    assert not (getattr(before, kind) and not getattr(after, kind))


def test_report_rejects_inconsistent_flags():
    with pytest.raises(ValueError):
        LassoReport(True, False, True, {})
    assert LassoReport(True, True, False, {}).strong is False
    assert LassoReport(True, True, True, {}).strong is True


# Constructor calls of each record, as functions of the module that defines
# the classes (``treelasso`` or ``conftest``), with the number of good calls,
# which come first (some with an unhashable field); the others fail a check
# or the signature.
T5 = XTree(((("a", "b"), "c"), ("d", "e")))
ROOT, ABC, AB, DE = T5.interior_vertices()
HEIGHTS = {ROOT: 3, ABC: 2, AB: 1, DE: 1}
WEIGHTS = {v: 1 for v in T5.vertices() if v != ROOT}
FAILING = {"equidistant": (), "weak": (), "topological": ()}
RECORD_CALLS = {
    "LassoReport": (4, [
        lambda R: R.LassoReport(True, True, True, dict(FAILING)),
        lambda R: R.LassoReport(True, True, False, failing_vertices={**FAILING, "topological": (4, 7)}),
        lambda R: R.LassoReport(equidistant=False, weak=False, topological=False, failing_vertices={
            "equidistant": (0,), "weak": (0, 2), "topological": (0,)}),
        lambda R: R.LassoReport(False, True, False, ()),
        lambda R: R.LassoReport(True, False, True, {}),
        lambda R: R.LassoReport(True, True),
        lambda R: R.LassoReport(True, True, True, {}, 5),
        lambda R: R.LassoReport(True, equidistant=True, weak=True, topological=True, failing_vertices={}),
    ]),
    "HeightMap": (3, [
        lambda R: R.HeightMap(T5, HEIGHTS),
        lambda R: R.HeightMap(tree=T5, heights={**HEIGHTS, DE: Fraction(1, 2)}),
        lambda R: R.HeightMap(T5, {v: Fraction(h) for v, h in HEIGHTS.items()}),
        lambda R: R.HeightMap(T5, {**HEIGHTS, AB: -1}),
        lambda R: R.HeightMap(T5, {**HEIGHTS, ABC: 3}),
        lambda R: R.HeightMap(T5, {ROOT: 1}),
        lambda R: R.HeightMap(T5, {**HEIGHTS, DE: 0.5}),
        lambda R: R.HeightMap(T5),
        lambda R: R.HeightMap(T5, HEIGHTS, heights=HEIGHTS),
    ]),
    "EdgeWeighting": (3, [
        lambda R: R.EdgeWeighting(T5, WEIGHTS),
        lambda R: R.EdgeWeighting(T5, by_child={**WEIGHTS, DE: Fraction(1, 2)}),
        lambda R: R.EdgeWeighting(T5, {v: Fraction(w) for v, w in WEIGHTS.items()}),
        lambda R: R.EdgeWeighting(T5, {**WEIGHTS, ROOT: 1}),
        lambda R: R.EdgeWeighting(T5, {**WEIGHTS, DE: 1.0}),
        lambda R: R.EdgeWeighting(T5, [1, 2]),
        lambda R: R.EdgeWeighting(by_child=WEIGHTS),
    ]),
    "StrictLinearSystem": (4, [
        lambda R: R.StrictLinearSystem(("x", "y"), (("x", "y"),), ()),
        lambda R: R.StrictLinearSystem(("x", "y"), (), strict_inequalities=(("x", "y"),)),
        lambda R: R.StrictLinearSystem(variables=("x", "y"), equalities=(("x", "y"),), strict_inequalities=()),
        lambda R: R.StrictLinearSystem(["x"], [], []),
        lambda R: R.StrictLinearSystem(("x",), ()),
        lambda R: R.StrictLinearSystem((), (), (), ()),
    ]),
    "ChildEdgeGraph": (3, [
        lambda R: R.ChildEdgeGraph(T5, ROOT, (ABC, DE), {ABC: frozenset(), DE: frozenset()},
                                   frozenset(), frozenset((ABC, DE))),
        lambda R: R.ChildEdgeGraph(T5, DE, (7, 8), {7: frozenset({8}), 8: frozenset({7})},
                                   leaf_edges=frozenset((7, 8)), subtree_edges=frozenset()),
        lambda R: R.ChildEdgeGraph(T5, DE, (7, 8), (), frozenset(), frozenset()),
        lambda R: R.ChildEdgeGraph(T5, ROOT, (ABC, DE)),
        lambda R: R.ChildEdgeGraph(T5, ROOT, (), {}, frozenset(), frozenset(), owner=ROOT),
    ]),
    "CircularOrdering": (4, [
        lambda R: R.CircularOrdering(("a", "b", "c")),
        lambda R: R.CircularOrdering(["c", "a", "b"]),
        lambda R: R.CircularOrdering(order=iter("abc")),
        lambda R: R.CircularOrdering("ba"),
        lambda R: R.CircularOrdering(("a", "b", "a")),
        lambda R: R.CircularOrdering(()),
        lambda R: R.CircularOrdering(5),
        lambda R: R.CircularOrdering(),
        lambda R: R.CircularOrdering([["a"]]),
    ]),
    "Bipartition": (3, [
        lambda R: R.Bipartition({"a"}, {"b", "c"}),
        lambda R: R.Bipartition(frozenset("a"), b_side="cb"),
        lambda R: R.Bipartition(a_side=["d", "e"], b_side=("a",)),
        lambda R: R.Bipartition((), {"a"}),
        lambda R: R.Bipartition({"a", "b"}, {"b"}),
        lambda R: R.Bipartition({"a"}, 5),
        lambda R: R.Bipartition({"a"}),
    ]),
    "Witness": (3, [
        lambda R: R.Witness(T5, R.HeightMap(T5, HEIGHTS), R.HeightMap(T5, {**HEIGHTS, DE: 2})),
        lambda R: R.Witness(rival=T4, heights_t=R.HeightMap(T5, HEIGHTS),
                            heights_rival=R.HeightMap(T4, {T4.root: 2, 1: 1})),
        lambda R: R.Witness(T5, R.HeightMap(T5, HEIGHTS), R.HeightMap(T5, {**HEIGHTS, DE: 2})),
        lambda R: R.Witness(T5, R.HeightMap(T5, HEIGHTS)),
        lambda R: R.Witness(T5, None, None, rival=T5),
    ]),
}
# The one intended difference: these fields hold a read-only view of a
# private dict where the dataclasses held the dict itself.
READ_ONLY = {"heights", "by_child"}


def slotted_repr(old) -> str:
    """The dataclass's repr, with each read-only field shown as the view the record holds."""
    text, stack = repr(old), [old]
    while stack:
        record = stack.pop()
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if dataclasses.is_dataclass(value):
                stack.append(value)
            elif field.name in READ_ONLY:
                text = text.replace(f"{field.name}={value!r}", f"{field.name}=mappingproxy({value!r})")
    return text


def record_repr(record) -> str:
    """``_Record.__repr__`` spelled out: the class name and each field's own repr."""
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record.__match_args__)
    return f"{type(record).__qualname__}({fields})"


def check_record_contract(name: str) -> list:
    """Compares ``treelasso.<name>`` with the frozen dataclass it replaced, call by call.

    Returns the (record, dataclass) pairs of the good calls.
    """
    new_cls, old_cls = getattr(treelasso, name), getattr(conftest, name)
    n_good, calls = RECORD_CALLS[name]
    built = [(outcome(call, treelasso), outcome(call, conftest)) for call in calls]
    assert [got[0] == "ok" for got, _ in built] == [True] * n_good + [False] * (len(calls) - n_good)
    for got, want in built:
        if got[0] != "ok":
            assert got == want
    pairs = [(got[1], want[1]) for got, want in built if got[0] == "ok"]
    assert new_cls.__match_args__ == old_cls.__match_args__
    params = [[str(p) for p in inspect.signature(c).parameters.values()] for c in (new_cls, old_cls)]
    assert params[0] == params[1]
    fields = new_cls.__match_args__
    for new, old in pairs:
        assert repr(new) == slotted_repr(old)
        for field in READ_ONLY.intersection(fields):
            assert type(getattr(new, field)) is MappingProxyType
            assert type(getattr(old, field)) is dict
        assert outcome(hash, new) == outcome(hash, old)
        assert outcome(operator.lt, new, new) == outcome(operator.lt, old, old)
        match new:
            case new_cls(first):
                assert first == getattr(old, fields[0])
            case _:
                pytest.fail("the positional pattern did not match")
        properties = [n for n, v in vars(new_cls).items() if isinstance(v, property)]
        for attr in (*fields, *properties, "other"):
            before = repr(new)
            for act, other in ((setattr, (attr, 0)), (delattr, (attr,))):
                # The dataclass raises FrozenInstanceError, an AttributeError.
                got, want = outcome(act, new, *other), outcome(act, old, *other)
                assert issubclass(got[0], AttributeError) and issubclass(want[0], AttributeError)
                assert got[1] == want[1]
            assert repr(new) == before
        copies = [copy.copy(new), copy.deepcopy(new)]
        copies += [pickle.loads(pickle.dumps(new, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            # A rebuilt frozenset may iterate in another order than an equal
            # one, so the twin's repr is checked against its own fields.
            assert type(twin) is new_cls and twin == new and repr(twin) == record_repr(twin)
        for clone in (copy.copy, copy.deepcopy):
            twin, old_twin = clone(new), clone(old)
            for field in fields:
                shared = getattr(twin, field) is getattr(new, field)
                if field in READ_ONLY:  # the copy checks a fresh view again
                    assert not shared and type(getattr(twin, field)) is MappingProxyType
                else:
                    assert shared == (getattr(old_twin, field) is getattr(old, field))
    for (a, old_a), (b, old_b) in combinations(pairs + pairs[:1], 2):
        assert (a == b, a != b) == (old_a == old_b, old_a != old_b)
        assert (a == old_b, a != old_b) == (False, True)
    return pairs


def test_report_keeps_the_frozen_dataclass_contract():
    for new, old in check_record_contract("LassoReport"):
        assert new.strong == old.strong


@pytest.mark.parametrize("name", [n for n in RECORD_CALLS if n != "LassoReport"])
def test_every_record_keeps_the_frozen_dataclass_contract(name):
    check_record_contract(name)


def test_small_leaf_sets_rejected():
    # classification, the builders and the oracles share one domain guard
    two = XTree(("a", "b"))
    for ask in (
        lambda: classify(two, frozenset()),
        lambda: min_equidistant_lasso(two),
        lambda: min_topological_lasso(two),
        lambda: min_weak_lasso(two),
        lambda: oracle_equidistant(two, frozenset()),
        lambda: oracle_weak(two, frozenset()),
        lambda: oracle_topological(two, frozenset()),
    ):
        with pytest.raises(ValueError, match="at least 3 leaves"):
            ask()


def failing_by_graphs(tree, cords):
    """Failing vertices per kind, from the ChildEdgeGraph predicates."""
    graphs = child_edge_graphs(tree, cords)
    pc_parents = {v for v, _ in pseudo_cherries(tree)}
    interior = tree.interior_vertices()
    weak = () if tree.is_star() else tuple(
        v
        for v in interior
        if not (graphs[v].is_connected() if v in pc_parents else graphs[v].is_rich())
    )
    return {
        "equidistant": tuple(v for v in interior if not graphs[v].has_edge()),
        "weak": weak,
        "topological": tuple(v for v in interior if not graphs[v].is_clique()),
    }


def failing_by_paths(tree, cords):
    """Failing vertices per kind, from child-edge pairs found by path walking."""
    linked = brute_child_edge_pairs(tree, cords)
    out = {"equidistant": [], "weak": [], "topological": []}
    for v in tree.interior_vertices():
        kids = tree.children(v)
        have = linked.get(v, set())
        every = {frozenset(p) for p in combinations(kids, 2)}
        if not have:
            out["equidistant"].append(v)
        if have != every:
            out["topological"].append(v)
        if tree.is_star():
            continue
        if any(not tree.is_leaf(k) for k in kids):
            rich = {p for p in every if any(not tree.is_leaf(k) for k in p)}
            if not rich <= have:
                out["weak"].append(v)
        else:  # a pseudo-cherry parent: flood fill from its first child
            reached, grown = {kids[0]}, True
            while grown:
                grown = False
                for p in have:
                    if len(p & reached) == 1:
                        reached |= p
                        grown = True
            if len(reached) < len(kids):
                out["weak"].append(v)
    return {kind: tuple(vs) for kind, vs in out.items()}


def cord_families(tree, seed):
    """Random sparse and dense cord sets, one random cord per vertex, the
    minimum builders' sets, and each of those with one cord removed."""
    rng = random.Random(seed)
    n = len(tree.leaf_labels)
    per_vertex = set()
    for v in tree.interior_vertices():
        u, w = rng.sample(tree.children(v), 2)
        per_vertex.add(tuple(sorted((
            rng.choice(sorted(tree.leaves_below(u))),
            rng.choice(sorted(tree.leaves_below(w))),
        ))))
    families = [
        random_cords(tree, n, seed),
        random_cords(tree, min(3 * n, n * (n - 1) // 2), seed + 1),
        frozenset(per_vertex),
        min_equidistant_lasso(tree),
        min_topological_lasso(tree),
        min_weak_lasso(tree),
    ]
    for cords in families[2:]:
        if cords:
            families.append(cords - {rng.choice(sorted(cords))})
    return families


def disconnected_pseudo_cherry_cases():
    """Pseudo-cherries of three to five leaves, some left in pieces by the
    cords: (tree, cords, the leaf sets of the disconnected ones)."""
    tree = XTree((("a", "b", "c", "d"), ("e", "f", "g"), ("h", ("i", "j", "k", "l", "m")), "n"))
    cover = c(("a", "e"), ("a", "h"), ("a", "n"), ("e", "h"), ("e", "n"), ("h", "n"), ("h", "i"))
    abcd, efg, ijklm = frozenset("abcd"), frozenset("efg"), frozenset("ijklm")
    return [
        (tree, cover | c(("a", "b"), ("c", "d"), ("e", "f"), ("i", "j"), ("k", "l"), ("l", "m")),
         {abcd, efg, ijklm}),
        (tree, cover | c(("a", "b"), ("b", "c"), ("e", "f"), ("f", "g"), ("i", "m")),
         {abcd, ijklm}),
        (tree, cover | c(("a", "d"), ("b", "c"), ("b", "d"), ("e", "g"), ("i", "j"), ("j", "k"),
                          ("k", "l"), ("l", "m")),
         {efg}),
    ]


# Labels starting with "!" sort before "(", so those trees list leaf
# children before interior ones, unlike the others.
DIFFERENTIAL_TREES = [
    *(("random", 300, seed) for seed in range(3)),
    *(("binary", 300, seed) for seed in range(2)),
    ("bang", 300, 3),
    *(("bearded", k, length) for k, length in ((2, 99), (3, 40), (5, 20))),
    *(("star", n, 0) for n in (3, 7, 40)),
]


@pytest.mark.parametrize("kind, size, arg", DIFFERENTIAL_TREES)
def test_counting_pass_matches_graphs_and_path_oracle(kind, size, arg):
    if kind in ("random", "binary"):
        tree = random_xtree(size, arg, binary=kind == "binary")
    elif kind == "bang":
        tree = random_xtree(size, arg, prefix="!t")
    elif kind == "bearded":
        tree = bearded_caterpillar(size, arg)
    else:
        tree = XTree(tuple(f"s{i}" for i in range(size)))
    for cords in cord_families(tree, size + arg):
        report = classify(tree, cords)
        assert report.failing_vertices == failing_by_graphs(tree, cords)
        assert report.failing_vertices == failing_by_paths(tree, cords)
        for flag, failing in report.failing_vertices.items():
            vacuous = flag == "weak" and tree.is_star()
            assert getattr(report, flag) == (vacuous or (bool(cords) and not failing))


class Label(str):
    """A str subclass: its instances are labels all the same."""


def _case_ids(cords) -> list[str]:
    """The ids of a corpus case. A set's repr lists its members in an order
    that follows string hashing, so a set case is checked once under each
    order of its members: every id it could take from its repr is stable."""
    if not isinstance(cords, (set, frozenset)):
        return [repr(cords)]
    form = "{}" if type(cords) is set else "frozenset({})"
    orders = permutations(sorted(map(repr, cords)))
    return [form.format("{" + ", ".join(order) + "}") for order in orders]


# Factories of fresh cord inputs on the labels a-d, since a generator can
# be read only once.
CONTRACT_INPUTS = [
    (name, lambda cords=cords: cords) for cords in CORD_CORPUS for name in _case_ids(cords)
] + [
    ("generator", lambda: (p for p in [("b", "a"), ("c", "d")])),
    ("bad generator", lambda: (p for p in [("a", "b"), ("a", 5)])),
    ("empty generator", lambda: iter(())),
    ("duplicates", lambda: [("a", "b"), ("b", "a"), ("a", "b")]),
    ("normal duplicates", lambda: [("a", "b"), ("c", "d"), ("a", "b"), ("c", "d")]),
    ("set", lambda: {("a", "c"), ("b", "d")}),
    ("connecting", lambda: [("a", "b"), ("b", "c"), ("a", "d")]),
    ("string item", lambda: ["ab", ("c", "d")]),
    ("frozenset item", lambda: [frozenset({"c", "a"}), ("b", "d")]),
    ("one-label frozenset item", lambda: [frozenset({"a"})]),
    ("str subclass", lambda: [(Label("a"), "b"), ("c", Label("d"))]),
    ("str subclass self-pair", lambda: [(Label("a"), "a")]),
    ("unhashable label", lambda: [(["a"], "b")]),
    ("None", lambda: None),
    ("int", lambda: 5),
    ("None item", lambda: [("a", "b"), None]),
    ("int item", lambda: [5]),
    ("empty", lambda: []),
    ("string", lambda: "ab"),
]
CONTRACT_TREES = [CAT, T4, XTree(("a", "b", "c", "d"))]


def _linked(graphs):
    return {v: {frozenset(e) for e in g.edges()} for v, g in graphs.items()}


@pytest.mark.parametrize("name, make", CONTRACT_INPUTS, ids=[n for n, _ in CONTRACT_INPUTS])
def test_single_pass_keeps_the_input_contract_of_validate_cords(name, make):
    for tree in CONTRACT_TREES:
        checked = outcome(validate_cords, make(), tree.leaf_labels)
        if checked[0] == "ok":
            cords = checked[1]
            failing = failing_by_paths(tree, cords)
            flags = {kind: bool(cords) and not vs for kind, vs in failing.items()}
            flags["weak"] = flags["weak"] or tree.is_star()
            report = ("ok", LassoReport(failing_vertices=failing, **flags))
            pairs = brute_child_edge_pairs(tree, cords)
            linked = ("ok", {v: pairs.get(v, set()) for v in tree.interior_vertices()})
        else:
            report = linked = checked
        assert outcome(classify, tree, make()) == report
        got = outcome(child_edge_graphs, tree, make())
        assert (got if got[0] != "ok" else ("ok", _linked(got[1]))) == linked
        for v in tree.interior_vertices():
            got = outcome(build_child_edge_graph, tree, make(), v)
            if got[0] == "ok":
                got = ("ok", _linked({v: got[1]})[v])
            assert got == (linked if linked[0] != "ok" else ("ok", linked[1][v]))


def test_classify_meets_each_cord_once_and_never_revalidates_a_normal_set(monkeypatch):
    tree = random_xtree(300, 11)
    cords = random_cords(tree, 900, seed=11)
    report = classify(tree, cords)
    pairs = brute_child_edge_pairs(tree, cords)
    meets = []  # the pairs handed to the batched climb
    climb = XTree._meets

    def counting_climb(self, pairs):
        meets.extend(pairs)
        return climb(self, pairs)

    def fail(*args):
        raise AssertionError("a normal cord set was checked again")

    monkeypatch.setattr(XTree, "_meets", counting_climb)
    monkeypatch.setattr(XTree, "leaf_vertex", fail)
    for module in (cords_module, lasso):  # lasso reaches it through cords
        monkeypatch.setattr(module, "validate_cords", fail, raising=False)
    assert classify(tree, cords) == report
    assert len(meets) == len(cords)
    del meets[:]
    graphs = child_edge_graphs(tree, cords)
    assert len(meets) == len(cords)
    assert _linked(graphs) == {v: pairs.get(v, set()) for v in tree.interior_vertices()}


def test_counting_pass_on_disconnected_pseudo_cherries():
    for tree, cords, disconnected in disconnected_pseudo_cherry_cases():
        report = classify(tree, cords)
        assert {tree.leaves_below(v) for v in report.failing_vertices["weak"]} == disconnected
        assert report.equidistant and not report.weak
        assert report.failing_vertices == failing_by_graphs(tree, cords)
        assert report.failing_vertices == failing_by_paths(tree, cords)


def test_reduce_by_cherry():
    assert reduce_by_cherry(c(("a", "b"), ("a", "c"), ("b", "d")), "a", "b") == c(
        ("b", "d"), ("b", "c")
    )
    assert reduce_by_cherry(frozenset(), "a", "b") == frozenset()
    assert reduce_by_cherry(c(("x", "y")), "x", "y") == frozenset()
    with pytest.raises(ValueError):
        reduce_by_cherry(frozenset(), "a", "a")


def test_reduction_check_examples():
    assert reduction_check(T4, c(("a", "b"), ("b", "c"), ("a", "d")), "c", "b", "weak")
    # when the cherry cord is absent both sides of the equivalence are false
    assert reduction_check(CAT, c(("a", "c"), ("a", "d")), "a", "b", "topological")


def test_reduction_equivalence_fails_inside_wide_pseudo_cherries():
    # {ab, ad} pins both interior heights of ((a,b,c),d) without the cord ca,
    # so the biconditional cannot hold for the pair (c, a); same for the
    # clique condition once the rewiring drops the x-z cord.
    assert not reduction_check(T4, c(("a", "b"), ("a", "d")), "c", "a", "equidistant")
    assert not reduction_check(
        T4, c(("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")), "c", "a", "topological"
    )


def test_reduction_equivalence_holds_for_every_cherry_pair():
    for t in enumerate_xtrees(LABELS4):
        pairs = [
            (x, y)
            for _, leaves in pseudo_cherries(t)
            if len(leaves) == 2
            for x in leaves
            for y in leaves
            if x != y
        ]
        for cords in all_cord_subsets(LABELS4)[::9]:
            for x, y in pairs:
                for kind in ("equidistant", "weak", "topological"):
                    if kind == "weak" and not cords:
                        continue
                    assert reduction_check(t, cords, x, y, kind)
    with pytest.raises(ValueError):
        reduction_check(CAT, c(("a", "b")), "a", "c", "weak")  # not a cherry pair
    with pytest.raises(ValueError):
        reduction_check(CAT, frozenset(), "a", "b", "weak")  # weak needs cords
    with pytest.raises(ValueError):
        reduction_check(CAT, frozenset(), "a", "b", "strong")  # unknown kind


def test_is_covering():
    assert is_covering(c(("a", "b"), ("c", "d")), "abcd")
    assert not is_covering(c(("a", "b")), "abc")


def test_cord_graph():
    connected, snb = cord_graph(c(("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")), "abcd")
    assert connected and not snb  # a 4-cycle is bipartite
    assert cord_graph(c(("a", "b"), ("c", "d")), "abcd") == (False, False)
    triangle = c(("a", "b"), ("b", "c"), ("a", "c"))
    assert cord_graph(triangle, "abc") == (True, True)
    assert cord_graph(triangle, "abcd") == (False, False)  # isolated d is bipartite
    two_triangles = triangle | c(("d", "e"), ("e", "f"), ("d", "f"))
    assert cord_graph(two_triangles, "abcdef") == (False, True)
