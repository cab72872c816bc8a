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

:func:`classify` decides all four in one counting pass, without building the
graphs.  Each cord is one edge, at its endpoints' last common vertex, so the
distinct edges give per-vertex counts, and a vertex with k children, s of
them interior, has at least one edge when its count is > 0, is a clique when
its count is C(k, 2), and is rich when C(s, 2) + s * (k - s) of its edges
touch an interior child.  The cords become edges in one pass, in
:func:`_child_pairs`, which also checks their labels; the per-vertex pass
then reads the tree's child and label arrays directly.
Connectivity matters only at pseudo-cherry parents, and is decided by the
count first: fewer than k - 1 edges leave a parent disconnected, and a
clique (every cherry with its one edge) is connected, so only the rest run a
union-find over their children.
:class:`~treelasso.childgraph.ChildEdgeGraph` stays as the on-demand view of
one vertex's graph, built from the same :func:`_child_pairs`.  That module
imports this one, not the other way round, so ``classify`` runs without
loading it (or :mod:`dataclasses`, which :class:`LassoReport` does not use).

:func:`classify` is the one way to ask any of the four questions: read the
flag off its :class:`LassoReport`, as ``classify(tree, cords).weak``, and
call it once when several kinds of one instance are wanted.  ``strong`` is
not stored; the report derives it from the other two flags.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .cords import Cord, cord, cord_set, validate_cords
from .tree import XTree

__all__ = [
    "LassoReport",
    "classify",
    "cord_graph",
    "is_covering",
    "reduce_by_cherry",
    "reduction_check",
]

KINDS = ("equidistant", "weak", "topological")


class LassoReport:
    """Classification flags plus the interior vertices that break each condition.

    A frozen record of four fields, ``equidistant``, ``weak``,
    ``topological`` (bools) and ``failing_vertices`` (kind -> vertex ids),
    which behaves as a frozen dataclass of them would: the same constructor,
    ``==``, repr, hash, ``match`` arguments and errors on assignment and
    deletion.  It is a plain ``__slots__`` class so that the classify path
    does not import :mod:`dataclasses`.
    """

    __slots__ = _FIELDS = ("equidistant", "weak", "topological", "failing_vertices")
    __match_args__ = _FIELDS

    equidistant: bool
    weak: bool
    topological: bool
    failing_vertices: Mapping[str, tuple[int, ...]]

    def __init__(
        self,
        equidistant: bool,
        weak: bool,
        topological: bool,
        failing_vertices: Mapping[str, tuple[int, ...]],
    ) -> None:
        if topological and not weak:  # a bug if it ever fires
            raise ValueError("a topological lasso is always a weak lasso")
        set_field = object.__setattr__
        set_field(self, "equidistant", equidistant)
        set_field(self, "weak", weak)
        set_field(self, "topological", topological)
        set_field(self, "failing_vertices", failing_vertices)

    def _values(self) -> tuple:
        return (self.equidistant, self.weak, self.topological, self.failing_vertices)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())  # a TypeError for the usual dict of failing vertices

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor: the default slot-state path would
        # restore the fields with ``setattr``, which a frozen record refuses.
        return (type(self), self._values())

    @property
    def strong(self) -> bool:
        """A strong lasso is both an equidistant and a topological lasso."""
        return self.equidistant and self.topological


def _require_domain(tree: XTree) -> None:
    """The paper's domain, |X| >= 3, shared by classification, builders and oracles."""
    if len(tree.leaf_labels) < 3:
        raise ValueError("lasso questions need at least 3 leaves")


def _child_pairs(tree: XTree, cords: Iterable[Cord]) -> set[tuple[int, int, int]]:
    """The distinct graph edges a cord set makes, as ``(v, u, w)``.

    A cord is the edge ``u < w`` of the graph at its endpoints' last common
    vertex v, between the two children of v toward the endpoints.  Every
    cord makes one edge, so the set is empty exactly when the cord set is.

    This is the one place where cords become edges, and it takes the
    caller's cords as given: each end is resolved by one lookup in the
    tree's label index, which is the label check.  An item that does not
    unpack to two distinct leaf labels sends the whole input to
    :func:`~treelasso.cords.validate_cords`, which raises the error the
    caller would get from it; a one-shot iterable is read into a list first.
    """
    if not isinstance(cords, (frozenset, set, list, tuple)):
        cords = list(cords)
    try:
        return _meet_pairs(tree, cords)
    except (TypeError, ValueError, KeyError):
        return _meet_pairs(tree, validate_cords(cords, tree.leaf_labels))


def _meet_pairs(tree: XTree, cords: Iterable[Cord]) -> set[tuple[int, int, int]]:
    """The pass itself; a malformed cord raises TypeError, ValueError or KeyError."""
    leaf, meet = tree._leaf_id, tree._meet
    out = set()
    for a, b in cords:
        if a == b:
            raise ValueError("a cord needs two distinct labels")
        v, u, w = meet(leaf[a], leaf[b])
        out.add((v, u, w) if u < w else (v, w, u))
    return out


def classify(tree: XTree, cords: Iterable[Cord]) -> LassoReport:
    """Full classification of a cord set against one tree, in one counting pass."""
    _require_domain(tree)
    pairs = _child_pairs(tree, cords)  # empty exactly when the cord set is
    children, vlabel = tree._children, tree._vlabel
    edges = [0] * len(vlabel)  # distinct child pairs joined at each vertex
    leaf_pairs: dict[int, list[tuple[int, int]]] = {}  # ... of two leaves, per vertex
    for v, u, w in pairs:
        edges[v] += 1
        if vlabel[u] is not None and vlabel[w] is not None:
            leaf_pairs.setdefault(v, []).append((u, w))

    star = tree.is_star()
    eq_fail, topo_fail, weak_fail = [], [], []
    for v in tree.interior_vertices():
        kids = children[v]
        k = len(kids)
        e = edges[v]
        if not e:
            eq_fail.append(v)
        if e == k * (k - 1) // 2:
            continue  # a clique is rich, and connected
        topo_fail.append(v)
        if star:
            # Every cord set, the empty set included, corrals the star tree.
            continue
        s = [vlabel[c] for c in kids].count(None)  # interior children
        if s:
            # Rich: every pair with an interior child is joined.
            if e - len(leaf_pairs.get(v, ())) != s * (s - 1) // 2 + s * (k - s):
                weak_fail.append(v)
        # All children are leaves and the tree is no star: v is a
        # pseudo-cherry parent, which fewer than k - 1 pairs cannot connect.
        elif e < k - 1 or not _connected(kids, leaf_pairs[v]):
            weak_fail.append(v)

    nonempty = bool(pairs)
    equidistant = nonempty and not eq_fail
    topological = nonempty and not topo_fail
    weak = star or (nonempty and not weak_fail)
    if weak and nonempty and not equidistant:
        raise AssertionError("a nonempty weak lasso must be an equidistant lasso")
    return LassoReport(
        equidistant=equidistant,
        weak=weak,
        topological=topological,
        failing_vertices={
            "equidistant": tuple(eq_fail),
            "weak": tuple(weak_fail),
            "topological": tuple(topo_fail),
        },
    )


def _connected(nodes: tuple[int, ...], pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether the pairs connect the nodes: a union-find that counts merges."""
    root = {u: u for u in nodes}

    def find(u: int) -> int:
        while root[u] != u:
            root[u] = root[root[u]]  # path halving
            u = root[u]
        return u

    merges = 0
    for u, w in pairs:
        ru, rw = find(u), find(w)
        if ru != rw:
            root[ru] = rw
            merges += 1
    return merges == len(nodes) - 1


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
    xy = cord(x, y)
    lhs = getattr(classify(tree, checked), kind)
    rhs = xy in checked and getattr(
        classify(tree, reduce_by_cherry(checked, x, y) | {xy}), kind
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
