"""Equidistant proper edge-weightings, stored as interior-vertex heights.

An equidistant weighting puts every leaf at the same distance from the root
and keeps distances monotone along root-to-leaf paths.  Such a weighting is
the same thing as a height function on the interior vertices: the height of
a vertex is its distance to any leaf below it (leaves sit at height zero),
the weight of an edge is the height difference of its endpoints, and
properness (strictly positive interior edges) becomes strict monotonicity of
heights along interior edges.  Heights make distance queries trivial: the
distance between two leaves is twice the height of their last common vertex.

All values are exact rationals; strict inequalities are never approximated.
:class:`EdgeWeighting` and :class:`HeightMap` are frozen records whose
mapping, ``by_child`` or ``heights``, is a read-only view
(:class:`types.MappingProxyType`) of the copy their constructor checked, so
no edit can skip the checks or change the hash; copy, deepcopy and pickle
hand the constructor a plain dict and check it again.  Cord distances are
compared at the vertices :meth:`~treelasso.tree.XTree._cord_meets` gives.

The oracles build witness maps from the engine's integer levels with
``HeightMap._from_levels``, which runs the constructor's checks on the ints
and stores each level below 64 as one shared ``Fraction`` of ``_SMALL``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .lasso import _Record
from .tree import XTree

__all__ = [
    "EdgeWeighting",
    "HeightMap",
    "WeightingError",
]


# Witness heights reuse these: a Fraction is immutable, so one object per small level serves
# every map.  A list, never changed, because a list's bound __getitem__ is a fast builtin to map.
_SMALL = list(map(Fraction, range(64)))


def _as_fraction(value, what: str) -> Fraction:
    """``value`` as an exact ``Fraction``; a float raises ``TypeError`` naming ``what``."""
    if type(value) is Fraction:  # not isinstance: Fraction's ABC check is slow
        return value
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact rationals, not floats")
    return Fraction(value)


class WeightingError(ValueError):
    """An edge-weighting violates the equidistant/proper contract."""


class EdgeWeighting(_Record):
    """Edge weights of a tree, keyed by the child endpoint of each edge.

    Every non-root vertex identifies its parent edge, so ``by_child`` must
    have exactly the non-root vertex ids as keys.  Values are not validated
    beyond being exact rationals; nonnegativity, properness and equidistance
    are checked by :meth:`HeightMap.from_edge_weights`.  ``by_child`` is a
    read-only view of the checked copy.
    """

    __slots__ = __match_args__ = ("tree", "by_child")

    def __init__(self, tree: XTree, by_child: Mapping[int, Fraction]) -> None:
        weights = {
            v: _as_fraction(w, "edge weights and heights") for v, w in by_child.items()
        }
        expected = set(tree.vertices()) - {tree.root}
        if set(weights) != expected:
            raise ValueError("weighting must cover exactly the non-root vertices")
        self._set(tree, MappingProxyType(weights))

    def __hash__(self) -> int:
        return hash((self.tree, tuple(sorted(self.by_child.items()))))

    def __reduce__(self) -> tuple:
        return (type(self), (self.tree, dict(self.by_child)))  # a view does not pickle


class HeightMap(_Record):
    """Nonnegative rational heights on the interior vertices of a tree.

    Valid height maps are strictly decreasing along interior edges away
    from the root (that is the properness condition) and nonnegative
    everywhere; a pendant edge may have weight zero.  ``heights`` is a
    read-only view of the checked copy, so the checks and the hash hold for
    the life of the map.
    """

    __slots__ = __match_args__ = ("tree", "heights")

    def __init__(self, tree: XTree, heights: Mapping[int, Fraction]) -> None:
        h = {v: _as_fraction(x, "edge weights and heights") for v, x in heights.items()}
        interior = tree._interior
        if len(h) != len(interior) or not all(map(h.__contains__, interior)):
            raise ValueError("heights must cover exactly the interior vertices")
        for v, x in h.items():  # the first negative height in the given order is named
            if x < 0:
                raise ValueError(f"height of vertex {v} is negative: {x}")
        parent = tree._parent
        for v in interior[1:]:  # preorder, after the root
            p = parent[v]
            if h[v] >= h[p]:
                raise ValueError(
                    f"heights must strictly decrease along interior edges "
                    f"({p} -> {v}: {h[p]} -> {h[v]})"
                )
        self._set(tree, MappingProxyType(h))

    @classmethod
    def _from_levels(cls, tree: XTree, levels: Sequence[int]) -> "HeightMap":
        """The height map of integer levels given in interior preorder.

        The constructor's checks run on the ints: coverage (the list's
        length), nonnegativity and strict decrease along interior edges.  A
        fault found is raised by the constructor itself, so its message and
        precedence are the constructor's.  A level below 64 is stored as the
        one shared ``Fraction`` of ``_SMALL``.
        """
        interior = tree._interior
        if len(levels) != len(interior):
            raise ValueError("heights must cover exactly the interior vertices")
        # Vertex ids are preorder positions, so ``interior`` is sorted and a
        # parent's level is found by bisection; the root, vertex 0, has none.
        parent = tree._parent
        for v, a in zip(interior, levels):
            if a < 0 or v and levels[bisect_left(interior, parent[v])] <= a:
                return cls(tree, dict(zip(interior, map(Fraction, levels))))  # raises
        if not levels or levels[0] < len(_SMALL):  # the root's level is the largest
            fractions = map(_SMALL.__getitem__, levels)
        else:
            fractions = [_SMALL[a] if a < len(_SMALL) else Fraction(a) for a in levels]
        self = cls.__new__(cls)
        store_tree, store_heights = cls._setters  # _set's stores, without its loop
        store_tree(self, tree)
        store_heights(self, MappingProxyType(dict(zip(interior, fractions))))
        return self

    def __hash__(self) -> int:
        return hash((self.tree, tuple(sorted(self.heights.items()))))

    def __reduce__(self) -> tuple:
        return (type(self), (self.tree, dict(self.heights)))  # a view does not pickle

    def height(self, v: int) -> Fraction:
        """Height of a vertex; leaves are at height zero.

        An id that is not a vertex of the tree raises ``ValueError``.
        """
        if self.tree.is_leaf(v):  # raises for an id that is not a vertex
            return Fraction(0)
        return self.heights[v]

    def to_edge_weights(self) -> EdgeWeighting:
        """The per-edge weights: weight of an edge = height drop across it."""
        t = self.tree
        weights = {
            v: self.height(t.parent(v)) - self.height(v)
            for v in t.vertices()
            if v != t.root
        }
        return EdgeWeighting(t, weights)

    @classmethod
    def from_edge_weights(cls, weighting: EdgeWeighting) -> "HeightMap":
        """Recover heights from per-edge weights, validating the contract.

        Raises :class:`WeightingError` if any weight is negative, if an
        interior edge has weight <= 0, or if two leaves below some vertex
        end up at different distances from it; the message says which.
        """
        t = weighting.tree
        w = weighting.by_child
        for v, value in w.items():
            if value < 0:
                raise WeightingError(f"edge into vertex {v} has weight {value}")
        for v in t.interior_vertices():
            if v != t.root and w[v] <= 0:
                raise WeightingError(f"interior edge into vertex {v} has weight {w[v]}")
        heights: dict[int, Fraction] = {}
        for v in reversed(t.interior_vertices()):
            candidates = set()
            for c in t.children(v):
                below = Fraction(0) if t.is_leaf(c) else heights[c]
                candidates.add(w[c] + below)
            if len(candidates) > 1:
                raise WeightingError(
                    f"leaves below vertex {v} are at distances {sorted(candidates)} from it"
                )
            heights[v] = candidates.pop()
        return cls(t, heights)

    def leaf_distance(self, a: str, b: str) -> Fraction:
        """Induced distance between two distinct leaves: 2 * height(lca)."""
        return 2 * self.heights[self.tree.lca(a, b)]

    def is_l_isometric(self, other: "HeightMap", cords: Iterable[tuple[str, str]]) -> bool:
        """True iff the two weighted trees induce equal distances on every cord.

        Every cord is resolved, and so checked, before any is compared.
        """
        if self.tree.leaf_labels != other.tree.leaf_labels:
            raise ValueError("height maps are over different leaf sets")
        mine, theirs = self.tree._cord_meets(cords, other.tree)
        h, g = self.heights, other.heights
        # equal meeting heights are equal distances: no doubling needed
        return [h[v] for v, _, _ in mine] == [g[v] for v, _, _ in theirs]
