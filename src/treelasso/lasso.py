"""Lasso classification: :func:`classify` decides which lassos a cord set is.

A cord set is an equidistant lasso for a tree when it forces the weighting
to be unique, a topological lasso when it forces the shape to be unique, a
weak lasso (equivalently: it corrals the tree) when any tree fitting the
same cord distances must be a refinement, and a strong lasso when it is both
equidistant and topological.  :func:`classify` decides all four from the
child-edge graphs of the interior vertices:

* equidistant  <=>  every interior vertex's graph has at least one edge;
* topological  <=>  every interior vertex's graph is a clique;
* weak         <=>  the graph is rich at every interior vertex that is not a
  pseudo-cherry parent, and connected at every pseudo-cherry parent.

The star tree is corralled by every cord set, the empty set included.

It does so in one counting pass, without building the graphs.  Each cord is
one edge, at its endpoints' last common vertex, so the distinct edges give
per-vertex counts, and a vertex with k children, s of them interior, has at
least one edge when its count is > 0, is a clique when its count is C(k, 2),
and is rich when C(s, 2) + s * (k - s) of its edges touch an interior child.
The cords become edges in one pass, in :func:`_child_pairs`, over the
meeting vertices that :meth:`~treelasso.tree.XTree._cord_meets` resolves
and checks.  Connectivity matters only at pseudo-cherry parents, and is
decided by the count first: fewer than k - 1 edges leave a parent
disconnected, and a clique is connected, so only the rest run a union-find
over their children.  The on-demand graph views in
:mod:`~treelasso.childgraph` are built from the same :func:`_child_pairs`;
that module imports this one, so ``classify`` runs without loading it.

:class:`LassoReport` and every other record of the package are frozen
``__slots__`` classes on one base, :class:`_Record`, defined here because
importing the package loads this module; none of them is a dataclass.

Read each flag off the :class:`LassoReport`, as ``classify(tree, cords).weak``,
and call it once when several kinds of one instance are wanted.  ``strong``
is not stored; the report derives it from the other two flags.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from .cords import Cord
from .tree import XTree

__all__ = ["LassoReport", "classify"]

KINDS = ("equidistant", "weak", "topological")


class _Record:
    """A frozen record: the fields named in ``__match_args__``, held in slots.

    A subclass lists its fields as ``__slots__ = __match_args__ = (...)``,
    and its ``__init__`` sets them with :meth:`_set` after its checks;
    :meth:`_set` stores through the fields' slot descriptors, bound once
    when the class is defined, in ``_setters``, whose stores a constructor
    on a timed path calls one by one.  The record then behaves as a frozen
    dataclass of those fields would: ``==`` between records of one class
    compares the field tuples, the hash is the field tuple's, the repr is
    ``Name(field=value, ...)``, assignment and deletion raise
    ``AttributeError``, and copy, deepcopy and pickle rebuild through the
    constructor, so the checks run again.  Every record of the package is
    one, so no module imports :mod:`dataclasses`, which loads
    :mod:`inspect`, ``ast`` and ``dis``.

    A field may hold a read-only view (:class:`types.MappingProxyType`) of
    a dict the constructor checked, as the weighting records' mappings do.
    The hash takes such a field as its sorted items, and copy, deepcopy and
    pickle hand the constructor a plain dict copy of it, since a view
    neither hashes nor pickles.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__match_args__])

    def _set(self, *values: object) -> None:
        for store, value in zip(self._setters, values):
            store(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        values = self._values()  # a TypeError when a field other than a view is unhashable
        return hash(tuple([tuple(sorted(x.items())) if type(x) is MappingProxyType else x for x in values]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor: the default slot-state path would
        # restore the fields with ``setattr``, which a frozen record refuses.
        values = self._values()
        return (type(self), tuple([dict(x) if type(x) is MappingProxyType else x for x in values]))


class LassoReport(_Record):
    """Classification flags plus the interior vertices that break each condition.

    A frozen record (:class:`_Record`) of four fields, ``equidistant``,
    ``weak``, ``topological`` (bools) and ``failing_vertices`` (kind -> vertex
    ids); its hash is a ``TypeError`` for the usual dict of failing vertices.
    """

    __slots__ = __match_args__ = ("equidistant", "weak", "topological", "failing_vertices")

    def __init__(
        self,
        equidistant: bool,
        weak: bool,
        topological: bool,
        failing_vertices: Mapping[str, tuple[int, ...]],
    ) -> None:
        if topological and not weak:  # a bug if it ever fires
            raise ValueError("a topological lasso is always a weak lasso")
        self._set(equidistant, weak, topological, failing_vertices)

    @property
    def strong(self) -> bool:
        """A strong lasso is both an equidistant and a topological lasso."""
        return self.equidistant and self.topological


def _require_domain(tree: XTree) -> None:
    """The paper's domain, |X| >= 3, shared by classification, builders and oracles."""
    if len(tree.leaf_labels) < 3:
        raise ValueError("lasso questions need at least 3 leaves")


def _check_seed(seed: object) -> int:
    """``seed`` itself when it is an ``int``, the rule of the rival sample and the circular order.

    Any other seed, a bool included, raises ``TypeError``.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, got {seed!r}")
    return seed


def _child_pairs(tree: XTree, cords: Iterable[Cord]) -> set[tuple[int, int, int]]:
    """The distinct graph edges a cord set makes, as ``(v, u, w)``.

    A cord is the edge ``u < w`` of the graph at its endpoints' last common
    vertex v, between the two children of v toward the endpoints.  Every
    cord makes one edge, so the set is empty exactly when the cord set is.
    The cords meet, and are checked, in :meth:`~treelasso.tree.XTree._cord_meets`.
    """
    [meets] = tree._cord_meets(cords)
    return {(v, u, w) if u < w else (v, w, u) for v, u, w in meets}


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
