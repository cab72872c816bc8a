"""Constructions of cord sets of each lasso type.

Minimum-size builders pick, under every child edge, the lexicographically
smallest leaf as the representative of that edge, so outputs are
deterministic.  The circular and bipartition constructions build the two
classical families: consecutive pairs of a planar leaf ordering, and all
pairs crossing a 2-coloring of the leaves.
"""

from __future__ import annotations

import random
from itertools import combinations
from .cords import Cord, cord
from .lasso import _Record, _require_domain
from .tree import XTree

__all__ = [
    "Bipartition",
    "CircularOrdering",
    "bipartition_lasso",
    "circular_lasso",
    "circular_order",
    "min_equidistant_lasso",
    "min_topological_lasso",
    "min_weak_lasso",
]


class CircularOrdering(_Record):
    """A cyclic leaf sequence, as produced by walking a planar embedding."""

    __slots__ = __match_args__ = ("order",)

    def __init__(self, order: tuple[str, ...]) -> None:
        self._set(tuple(order))
        if len(set(self.order)) != len(self.order):
            raise ValueError("a circular ordering must not repeat labels")
        if not self.order:
            raise ValueError("a circular ordering must be nonempty")


class Bipartition(_Record):
    """A split of the leaf set into two disjoint nonempty blocks."""

    __slots__ = __match_args__ = ("a_side", "b_side")

    def __init__(self, a_side: frozenset[str], b_side: frozenset[str]) -> None:
        self._set(frozenset(a_side), frozenset(b_side))
        if not self.a_side or not self.b_side:
            raise ValueError("both sides of a bipartition must be nonempty")
        if self.a_side & self.b_side:
            raise ValueError("the two sides of a bipartition must be disjoint")


def _representatives(tree: XTree) -> list[str]:
    """The smallest leaf label below each vertex, in one reverse-preorder sweep."""
    low = list(tree._vlabel)  # each leaf is its own representative
    for v in reversed(tree.interior_vertices()):
        low[v] = min([low[c] for c in tree.children(v)])
    return low


def min_equidistant_lasso(tree: XTree) -> frozenset[Cord]:
    """One cord per interior vertex, pinning that vertex as a cord's meeting point.

    The output has exactly one cord for each interior vertex (the two
    lexicographically smallest child representatives), which is the minimum
    possible size for an equidistant lasso.
    """
    _require_domain(tree)
    low = _representatives(tree)
    out = set()
    for v in tree.interior_vertices():
        reps = sorted(low[c] for c in tree.children(v))
        out.add(cord(reps[0], reps[1]))
    return frozenset(out)


def min_topological_lasso(tree: XTree) -> frozenset[Cord]:
    """All representative pairs across distinct child edges, per interior vertex.

    Realizes the clique condition at every vertex with the fewest cords:
    the size is the sum over interior vertices of (children choose 2).
    """
    _require_domain(tree)
    low = _representatives(tree)
    out = set()
    for v in tree.interior_vertices():
        reps = sorted(low[c] for c in tree.children(v))
        for a, b in combinations(reps, 2):
            out.add(cord(a, b))
    return frozenset(out)


def min_weak_lasso(tree: XTree) -> frozenset[Cord]:
    """A smallest corralling cord set; empty for the star tree.

    Pseudo-cherry parents get a spanning path over their leaves (children
    minus one cords); every other interior vertex gets the representative
    cords realizing the subtree-edge clique plus all leaf-to-subtree pairs.
    """
    _require_domain(tree)
    if tree.is_star():
        return frozenset()
    low = _representatives(tree)
    out = set()
    for v in tree.interior_vertices():
        leaf_reps = sorted(
            tree.label(c) for c in tree.children(v) if tree.is_leaf(c)
        )
        sub_reps = sorted(low[c] for c in tree.children(v) if not tree.is_leaf(c))
        if not sub_reps:  # all children are leaves, off a star: a pseudo-cherry parent
            for a, b in zip(leaf_reps, leaf_reps[1:]):
                out.add(cord(a, b))
            continue
        for a, b in combinations(sub_reps, 2):
            out.add(cord(a, b))
        for a in leaf_reps:
            for b in sub_reps:
                out.add(cord(a, b))
    return frozenset(out)


def circular_order(tree: XTree, seed: int | None = None) -> CircularOrdering:
    """Leaf sequence of a depth-first traversal of one planar embedding.

    With ``seed=None`` the canonical child order is used; an integer seed
    deterministically shuffles the child order at every vertex, choosing a
    different embedding.
    """
    rng = random.Random(seed) if seed is not None else None
    order: list[str] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if tree.is_leaf(v):
            order.append(tree.label(v))
            continue
        kids = list(tree.children(v))
        if rng is not None:
            rng.shuffle(kids)
        stack.extend(reversed(kids))
    return CircularOrdering(tuple(order))


def circular_lasso(ordering: CircularOrdering) -> frozenset[Cord]:
    """The consecutive-pair cords of a circular ordering, wraparound included."""
    n = len(ordering.order)
    if n < 3:
        raise ValueError("a circular lasso needs at least 3 leaves")
    return frozenset(
        cord(ordering.order[i], ordering.order[(i + 1) % n]) for i in range(n)
    )


def bipartition_lasso(bipartition: Bipartition) -> frozenset[Cord]:
    """All cords with one endpoint on each side of the bipartition."""
    return frozenset(
        cord(a, b) for a in bipartition.a_side for b in bipartition.b_side
    )

