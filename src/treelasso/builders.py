"""Constructions of cord sets of each lasso type.

Minimum-size builders pick, under every child edge, the lexicographically
smallest leaf as the representative of that edge, so outputs are
deterministic.  The three share one reverse-preorder walk over the
interior vertices, :func:`_min_lasso`, which finds each vertex's
representative as it goes and hands its leaf labels, already in label
order, and its interior children's representatives to the builder's own
pair rule; only the equidistant rule sorts, to find the two smallest.  The
circular and bipartition constructions build the two classical families:
consecutive pairs of a planar leaf ordering, and all pairs crossing a
2-coloring of the leaves.  The minimum-lasso pass and
:func:`circular_order` read the tree's arrays, as every walk in the
package does: the ids they visit come from the tree, so none is checked.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, product, starmap
from .cords import Cord, cord
from .lasso import _Record, _check_seed, _require_domain
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


def _min_lasso(tree: XTree, pairs_at) -> frozenset[Cord]:
    """The cords that ``pairs_at`` picks at each interior vertex, as one set.

    One reverse-preorder walk, children before parents, sets each vertex's
    representative, the smallest leaf label below it, as it goes.  At each
    vertex, ``pairs_at(leaves, subs)`` gets the labels of its leaf children
    and the representatives of its interior children, and returns label
    pairs, which :func:`~treelasso.cords.cord` normalizes.  Children are in
    canonical order, in which a leaf's key is its label, so ``leaves`` is in
    label order; ``subs`` is in no useful order.
    """
    _require_domain(tree)
    vlabel, children = tree._vlabel, tree._children
    low = list(vlabel)  # each leaf is its own representative
    out = set()
    for v in reversed(tree._interior):
        kids = children[v]
        leaves = [vlabel[c] for c in kids if vlabel[c] is not None]
        subs = [low[c] for c in kids if vlabel[c] is None]
        low[v] = min(leaves + subs)
        out.update(starmap(cord, pairs_at(leaves, subs)))
    return frozenset(out)


def min_equidistant_lasso(tree: XTree) -> frozenset[Cord]:
    """One cord per interior vertex, pinning that vertex as a cord's meeting point.

    The output has exactly one cord for each interior vertex (the two
    lexicographically smallest child representatives), which is the minimum
    possible size for an equidistant lasso.
    """
    return _min_lasso(tree, lambda leaves, subs: [sorted(leaves + subs)[:2]])


def min_topological_lasso(tree: XTree) -> frozenset[Cord]:
    """All representative pairs across distinct child edges, per interior vertex.

    Realizes the clique condition at every vertex with the fewest cords:
    the size is the sum over interior vertices of (children choose 2).
    """
    return _min_lasso(tree, lambda leaves, subs: combinations(leaves + subs, 2))


def _corral_pairs(leaves: list[str], subs: list[str]):
    """The weak rule at one vertex: see :func:`min_weak_lasso`."""
    if not subs:  # all children are leaves, off a star: a pseudo-cherry parent
        return zip(leaves, leaves[1:])  # in label order, so the path is the sorted one
    return chain(combinations(subs, 2), product(leaves, subs))


def min_weak_lasso(tree: XTree) -> frozenset[Cord]:
    """A smallest corralling cord set; empty for the star tree.

    Pseudo-cherry parents get a spanning path over their leaves (children
    minus one cords); every other interior vertex gets the representative
    cords realizing the subtree-edge clique plus all leaf-to-subtree pairs.
    """
    # every cord set corrals the star, the empty set included
    return _min_lasso(tree, (lambda leaves, subs: ()) if tree.is_star() else _corral_pairs)


def circular_order(tree: XTree, seed: int | None = None) -> CircularOrdering:
    """Leaf sequence of a depth-first traversal of one planar embedding.

    With ``seed=None`` the canonical child order is used; an integer seed
    deterministically shuffles the child order at every vertex, choosing a
    different embedding.  Any other seed, a bool included, raises ``TypeError``.
    """
    rng = random.Random(_check_seed(seed)) if seed is not None else None
    vlabel, children = tree._vlabel, tree._children
    order: list[str] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if vlabel[v] is not None:
            order.append(vlabel[v])
            continue
        kids = list(children[v])
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

