"""Lasso classification: which cord sets pin down an equidistant tree.

A cord set is an equidistant lasso for a tree when it forces the weighting
to be unique, a topological lasso when it forces the shape to be unique, a
weak lasso (equivalently: it corrals the tree) when any tree fitting the
same cord distances must be a refinement, and a strong lasso when it is both
equidistant and topological.  All four are decided purely combinatorially
from the child-edge graphs of the interior vertices:

* equidistant  <=>  every interior vertex's graph has at least one edge;
* topological  <=>  every interior vertex's graph is a clique;
* weak         <=>  the graph is rich at every interior vertex that is not a
  pseudo-cherry parent, and connected at every pseudo-cherry parent.

The star tree is corralled by every cord set, the empty set included, and is
handled separately from the rich/connected conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .childgraph import _child_edge_graphs
from .cords import Cord, cord, cord_set, validate_cords
from .tree import XTree

__all__ = [
    "LassoReport",
    "classify",
    "cord_graph",
    "is_covering",
    "is_equidistant_lasso",
    "is_topological_lasso",
    "is_weak_lasso",
    "reduce_by_cherry",
    "reduction_check",
]

KINDS = ("equidistant", "weak", "topological")


@dataclass(frozen=True)
class LassoReport:
    """Classification flags plus the interior vertices that break each condition."""

    equidistant: bool
    weak: bool
    topological: bool
    strong: bool
    failing_vertices: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        # Internal consistency of the four flags; violations indicate a bug.
        if self.strong != (self.equidistant and self.topological):
            raise ValueError("strong must equal equidistant AND topological")
        if self.topological and not self.weak:
            raise ValueError("a topological lasso is always a weak lasso")


def _require_domain(tree: XTree) -> None:
    if len(tree.leaf_labels) < 3:
        raise ValueError("lasso classification needs at least 3 leaves")


def classify(tree: XTree, cords: Iterable[Cord]) -> LassoReport:
    """Full classification of a cord set against one tree."""
    _require_domain(tree)
    checked = validate_cords(cords, tree.leaf_labels)
    graphs = _child_edge_graphs(tree, checked)

    eq_fail = tuple(v for v in tree.interior_vertices() if not graphs[v].has_edge())
    topo_fail = tuple(v for v in tree.interior_vertices() if not graphs[v].is_clique())
    equidistant = bool(checked) and not eq_fail
    topological = bool(checked) and not topo_fail

    if tree.is_star():
        # Every cord set, the empty set included, corrals the star tree.
        weak = True
        weak_fail: tuple[int, ...] = ()
    else:
        pc_parents = {v for v, _ in tree.pseudo_cherries()}
        fails = []
        for v in tree.interior_vertices():
            g = graphs[v]
            if v in pc_parents:
                if not g.is_connected():
                    fails.append(v)
            elif not g.is_rich():
                fails.append(v)
        weak_fail = tuple(fails)
        weak = bool(checked) and not weak_fail

    if weak and checked and not equidistant:
        raise AssertionError("a nonempty weak lasso must be an equidistant lasso")
    return LassoReport(
        equidistant=equidistant,
        weak=weak,
        topological=topological,
        strong=equidistant and topological,
        failing_vertices={
            "equidistant": eq_fail,
            "weak": weak_fail,
            "topological": topo_fail,
        },
    )


def is_equidistant_lasso(tree: XTree, cords: Iterable[Cord]) -> bool:
    """Does the cord set force a unique equidistant proper weighting?

    Holds exactly when every interior vertex is the last common vertex of
    some cord, i.e. every child-edge graph has at least one edge.
    """
    return classify(tree, cords).equidistant


def is_weak_lasso(tree: XTree, cords: Iterable[Cord]) -> bool:
    """Does every tree fitting the cord distances refine this tree?"""
    return classify(tree, cords).weak


def is_topological_lasso(tree: XTree, cords: Iterable[Cord]) -> bool:
    """Does the cord set force the tree shape up to equivalence?

    Holds exactly when the cord set is nonempty and every child-edge graph
    is a clique.
    """
    return classify(tree, cords).topological


def reduce_by_cherry(cords: Iterable[Cord], x: str, y: str) -> frozenset[Cord]:
    """Rewrite a cord set for the removal of leaf x, replacing x by its cherry mate y.

    Keeps every cord avoiding x and adds ``{a, y}`` for every cord ``{a, x}``;
    the degenerate pair arising from the cord xy itself is dropped.  Intended
    for x, y in a common pseudo-cherry (not enforced here).
    """
    if x == y:
        raise ValueError("reduction needs two distinct labels")
    out: set[Cord] = set()
    for a, b in cord_set(cords):
        if x not in (a, b):
            out.add((a, b))
        else:
            other = b if a == x else a
            if other != y:
                out.add(cord(other, y))
    return frozenset(out)


def reduction_check(
    tree: XTree, cords: Iterable[Cord], x: str, y: str, kind: str
) -> bool:
    """Check the cherry-reduction equivalence for one lasso kind.

    Returns whether ``L is a <kind> lasso`` agrees with ``xy in L and
    (reduced L) + {xy} is a <kind> lasso``, where the reduction replaces x
    by y as in :func:`reduce_by_cherry`.  Requires x and y to lie in a
    common pseudo-cherry, and a nonempty cord set for kind ``weak``.

    The equivalence is guaranteed when {x, y} is a cherry (a pseudo-cherry
    of exactly two leaves).  Inside larger pseudo-cherries it can fail: on
    the tree ((a,b,c),d) the set {ab, ad} is an equidistant lasso although
    the cord ca is absent, so the call with x=c, y=a returns False.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    checked = validate_cords(cords, tree.leaf_labels)
    if not any(
        x in leaves and y in leaves for _, leaves in tree.pseudo_cherries()
    ):
        raise ValueError(f"{x!r} and {y!r} are not in a common pseudo-cherry")
    if kind == "weak" and not checked:
        raise ValueError("the weak-lasso reduction requires a nonempty cord set")
    predicate = {
        "equidistant": is_equidistant_lasso,
        "weak": is_weak_lasso,
        "topological": is_topological_lasso,
    }[kind]
    xy = cord(x, y)
    lhs = predicate(tree, checked)
    rhs = xy in checked and predicate(
        tree, reduce_by_cherry(checked, x, y) | {xy}
    )
    return lhs == rhs


def is_covering(cords: Iterable[Cord], labels: Iterable[str]) -> bool:
    """True iff the union of the cords is the whole label set."""
    union: set[str] = set()
    for a, b in cord_set(cords):
        union.add(a)
        union.add(b)
    return union == set(labels)


def cord_graph(
    cords: Iterable[Cord], labels: Iterable[str]
) -> tuple[bool, bool]:
    """Connectivity diagnostics of the graph with vertex set X and edge set L.

    Returns ``(connected, strongly_non_bipartite)`` where the second flag
    holds when every connected component contains an odd cycle (an isolated
    vertex is a bipartite component).
    """
    verts = sorted(set(labels))
    checked = validate_cords(cords, verts)
    adj: dict[str, set[str]] = {v: set() for v in verts}
    for a, b in checked:
        adj[a].add(b)
        adj[b].add(a)

    color: dict[str, int] = {}
    components = 0
    strongly_non_bipartite = True
    for start in verts:
        if start in color:
            continue
        components += 1
        color[start] = 0
        stack = [start]
        bipartite = True
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    bipartite = False
        if bipartite:
            strongly_non_bipartite = False
    connected = components <= 1
    return connected, strongly_non_bipartite
