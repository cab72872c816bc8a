"""Shared helpers: independent oracles used to freeze expected values.

Everything here is deliberately written against the raw definitions (path
walking, restriction, counting by partition type) rather than through the
library's own shortcuts, so tests cross two independent routes.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from treelasso import XTree
from treelasso.tree import Triplet, triplet

LABELS3 = ("a", "b", "c")
LABELS4 = ("a", "b", "c", "d")
LABELS5 = ("a", "b", "c", "d", "e")
LABELS6 = ("a", "b", "c", "d", "e", "f")


# -- counting oracles (independent of the enumeration code) -----------------


def _partition_types(n: int, max_part: int | None = None):
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_types(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def count_xtrees(n: int) -> int:
    """Rooted trees on n labeled leaves without unary vertices, by recursion
    over the root's child-block partition type."""
    if n == 1:
        return 1
    total = 0
    for parts in _partition_types(n):
        if len(parts) < 2:
            continue
        ways = factorial(n)
        for p in parts:
            ways //= factorial(p)
        for m in Counter(parts).values():
            ways //= factorial(m)
        prod = 1
        for p in parts:
            prod *= count_xtrees(p)
        total += ways * prod
    return total


def count_binary_xtrees(n: int) -> int:
    """Double factorial (2n-3)!!, the classical count of binary shapes."""
    out = 1
    for k in range(1, 2 * n - 2, 2):
        out *= k
    return out


# -- path-walking oracle for child-edge graphs -------------------------------


def leaf_path_edges(tree: XTree, a: str, b: str) -> list[tuple[int, int]]:
    """All (parent, child) edges on the path between two leaves, by walking."""
    u = tree.leaf_vertex(a)
    w = tree.leaf_vertex(b)
    edges = []
    while tree.depth(u) > tree.depth(w):
        edges.append((tree.parent(u), u))
        u = tree.parent(u)
    while tree.depth(w) > tree.depth(u):
        edges.append((tree.parent(w), w))
        w = tree.parent(w)
    while u != w:
        edges.append((tree.parent(u), u))
        edges.append((tree.parent(w), w))
        u = tree.parent(u)
        w = tree.parent(w)
    return edges


def brute_child_edge_pairs(tree: XTree, cords) -> dict[int, set[frozenset[int]]]:
    """Per vertex, the child-edge pairs joined by some cord's path, straight
    off the paths: a path uses two child edges of a vertex only at its top."""
    out: dict[int, set[frozenset[int]]] = {}
    for a, b in cords:
        below: dict[int, list[int]] = {}
        for p, c in leaf_path_edges(tree, a, b):
            below.setdefault(p, []).append(c)
        for p, children_of_p in below.items():
            if len(children_of_p) == 2:
                out.setdefault(p, set()).add(frozenset(children_of_p))
    return out


def brute_linked_child_edges(tree: XTree, cords, v: int) -> set[frozenset[int]]:
    """Child-edge pairs of v joined by some cord's path, straight off the paths."""
    return brute_child_edge_pairs(tree, cords).get(v, set())


# -- restriction-based triplet oracle ----------------------------------------


def triplets_by_restriction(tree: XTree) -> frozenset[Triplet]:
    """Triplets computed literally: restrict to each 3-subset and compare shapes."""
    out = []
    for a, b, c in combinations(sorted(tree.leaf_labels), 3):
        sub = tree.restrict({a, b, c})
        for cherry_pair, outlier in (((a, b), c), ((a, c), b), ((b, c), a)):
            if sub == XTree((cherry_pair, outlier)):
                out.append(triplet(cherry_pair[0], cherry_pair[1], outlier))
    return frozenset(out)


# -- exact point checking for feasibility systems ----------------------------


def point_satisfies(system, point) -> bool:
    """Exact check that a returned assignment satisfies a whole system."""

    def value(coeffs):
        return sum((Fraction(c) * point[v] for v, c in coeffs.items()), Fraction(0))

    for coeffs, rhs in system.equalities:
        if value(coeffs) != rhs:
            return False
    for coeffs, rhs in system.strict_inequalities:
        if not value(coeffs) > rhs:
            return False
    return all(point[v] >= 0 for v in system.nonneg)


# -- misc ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def all_cord_subsets(labels: tuple[str, ...]) -> tuple[frozenset, ...]:
    """Every subset of all cords on the label set (1024 at five leaves)."""
    pool = sorted(combinations(sorted(labels), 2))
    out = []
    for r in range(len(pool) + 1):
        for chosen in combinations(pool, r):
            out.append(frozenset(chosen))
    return tuple(out)


def bearded_caterpillar(k: int, length: int, prefix: str = "x") -> XTree:
    """A rooted path of ``length`` vertices, each with k children: k-1 pendant
    leaves per path vertex plus the next path vertex, and k leaves at the end."""
    labels = iter(f"{prefix}{i:02d}" for i in range(100))
    shape = tuple(next(labels) for _ in range(k))
    for _ in range(length - 1):
        shape = tuple([shape] + [next(labels) for _ in range(k - 1)])
    return XTree(shape)


def random_shape(n: int, seed: int, prefix: str = "t", binary: bool = False):
    """A seeded random multifurcating shape on labels prefix0 .. prefix{n-1}:
    runs of two to four adjacent nodes (always two if ``binary``) are
    grouped until one node is left."""
    rng = random.Random(seed)
    nodes: list = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        k = 2 if binary else min(len(nodes), rng.choice((2, 2, 3, 4)))
        i = rng.randrange(len(nodes) - k + 1)
        nodes[i : i + k] = [tuple(nodes[i : i + k])]
    return nodes[0]


def random_xtree(n: int, seed: int, prefix: str = "t", binary: bool = False) -> XTree:
    return XTree(random_shape(n, seed, prefix, binary))


def random_cords(tree: XTree, count: int, seed: int) -> frozenset[tuple[str, str]]:
    """``count`` distinct seeded random cords on the tree's leaves."""
    rng = random.Random(seed)
    labels = sorted(tree.leaf_labels)
    out: set[tuple[str, str]] = set()
    while len(out) < count:
        a, b = sorted(rng.sample(labels, 2))
        out.add((a, b))
    return frozenset(out)


def seeded_cord_sets(labels, per_tree: int, tree_index: int):
    """The deterministic cord-set sample used by the five-leaf sweeps."""
    from treelasso import random_cord_set, all_cords

    n_pool = len(all_cords(labels))
    for j in range(per_tree):
        seed = tree_index * 100003 + j
        k = random.Random(seed).randint(0, n_pool)
        yield random_cord_set(labels, k, seed)
