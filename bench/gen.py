"""Seeded input generators for the benchmark, independent of treelasso.

Trees are nested lists (a leaf is a label string, an interior vertex a list
of two or more children).  The tree and cord generators run in time linear
in their output and without recursion, so deep caterpillars are as cheap to
make as wide random trees; only the enumeration of small leaf sets recurses,
once per label.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from itertools import combinations


# --------------------------------------------------------------------------
# trees
# --------------------------------------------------------------------------


def _labels(rng: random.Random, n: int) -> list[str]:
    labels = [f"t{i}" for i in range(n)]
    rng.shuffle(labels)
    return labels


def random_tree(rng: random.Random, n: int, max_children: int) -> list:
    """A random tree on ``n`` leaves with near-even splits of 2..max_children parts.

    Near-even splits keep the depth close to log(n) / log(mean arity), so
    every tree of one size costs about the same.  ``max_children=2`` gives
    binary trees.
    """
    labels = iter(_labels(rng, n))
    root: list = []
    work = [(root, n)]
    while work:
        node, m = work.pop()
        k = min(m, rng.randint(2, max_children))
        prev = 0
        for i in range(1, k + 1):
            if i == k:
                cut = m
            else:
                jitter = rng.uniform(-0.4, 0.4) * m / k
                cut = max(prev + 1, min(int(m * i / k + jitter), m - (k - i)))
            size = cut - prev
            prev = cut
            if size == 1:
                node.append(next(labels))
            else:
                child: list = []
                node.append(child)
                work.append((child, size))
    return root


def caterpillar(rng: random.Random, depth: int, beard: int) -> list:
    """A path of ``depth`` interior vertices, each with ``beard`` pendant leaves.

    ``beard=1`` is the plain caterpillar (two children per path vertex);
    ``beard=2`` the bearded caterpillar (three children per path vertex).
    """
    labels = iter(_labels(rng, depth * beard + 1))
    shape: object = next(labels)
    for _ in range(depth):
        shape = [shape] + [next(labels) for _ in range(beard)]
    return shape


# --------------------------------------------------------------------------
# flat view of a nested shape
# --------------------------------------------------------------------------


class Flat:
    """Parent pointers, children, depths and leaf intervals of a nested shape.

    Vertex 0 is the root.  Leaves below vertex ``v`` are
    ``leaf_order[lo[v]:hi[v]]``.
    """

    def __init__(self, shape) -> None:
        parent = [-1]
        children: list[list[int]] = [[]]
        label: list[str | None] = [None]
        depth = [0]
        nodes = [shape]
        order: list[int] = []  # preorder
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            node = nodes[v]
            if isinstance(node, str):
                label[v] = node
                continue
            for child in node:
                c = len(parent)
                parent.append(v)
                children.append([])
                label.append(None)
                depth.append(depth[v] + 1)
                nodes.append(child)
                children[v].append(c)
            stack.extend(reversed(children[v]))
        lo = [0] * len(parent)
        hi = [0] * len(parent)
        leaf_order: list[str] = []
        for v in order:
            lo[v] = len(leaf_order)
            if label[v] is not None:
                leaf_order.append(label[v])
        for v in reversed(order):
            hi[v] = lo[v] + 1 if label[v] is not None else hi[children[v][-1]]
        self.parent = parent
        self.children = children
        self.label = label
        self.depth = depth
        self.lo = lo
        self.hi = hi
        self.leaf_order = leaf_order
        self.leaf_id = {lab: v for v, lab in enumerate(label) if lab is not None}
        self.interior = [v for v in order if label[v] is None]

    def random_leaf_below(self, rng: random.Random, v: int) -> str:
        return self.leaf_order[rng.randrange(self.lo[v], self.hi[v])]

    def clade(self, v: int) -> str:
        """The clade text the CLI prints: sorted leaf labels in braces."""
        return "{" + ",".join(sorted(self.leaf_order[self.lo[v] : self.hi[v]])) + "}"

    def clusters(self) -> frozenset[frozenset[str]]:
        """Leaf sets of the interior vertices; they determine the tree."""
        return frozenset(
            frozenset(self.leaf_order[self.lo[v] : self.hi[v]]) for v in self.interior
        )


# --------------------------------------------------------------------------
# cord families
# --------------------------------------------------------------------------


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def random_cords(rng: random.Random, flat: Flat, k: int) -> list[tuple[str, str]]:
    """``k`` distinct uniformly random cords."""
    leaves = flat.leaf_order
    out: set[tuple[str, str]] = set()
    while len(out) < k:
        a, b = rng.sample(leaves, 2)
        out.add(_pair(a, b))
    return sorted(out)


def per_vertex_cords(rng: random.Random, flat: Flat) -> dict[int, tuple[str, str]]:
    """One cord meeting at each interior vertex, across two random child edges."""
    out = {}
    for v in flat.interior:
        c1, c2 = rng.sample(flat.children[v], 2)
        out[v] = _pair(flat.random_leaf_below(rng, c1), flat.random_leaf_below(rng, c2))
    return out


def per_pair_cords(rng: random.Random, flat: Flat) -> dict[int, list[tuple[str, str]]]:
    """One cord across every pair of child edges at every interior vertex."""
    out = {}
    for v in flat.interior:
        out[v] = [
            _pair(flat.random_leaf_below(rng, c1), flat.random_leaf_below(rng, c2))
            for c1, c2 in combinations(flat.children[v], 2)
        ]
    return out


FAMILIES = (
    "random_sparse",
    "random_dense",
    "per_vertex",
    "per_vertex_minus_one",
    "per_pair",
    "per_pair_minus_one",
)


def cord_family(rng: random.Random, flat: Flat, family: str):
    """Returns (cords, dropped vertex or None) for one of :data:`FAMILIES`."""
    n = len(flat.leaf_order)
    if family == "random_sparse":
        return random_cords(rng, flat, n), None
    if family == "random_dense":
        return random_cords(rng, flat, 3 * n), None
    if family.startswith("per_vertex"):
        by_vertex = {v: [c] for v, c in per_vertex_cords(rng, flat).items()}
    else:
        by_vertex = per_pair_cords(rng, flat)
    dropped = None
    if family.endswith("minus_one"):
        dropped = rng.choice(flat.interior)
        lost = by_vertex[dropped]
        del lost[rng.randrange(len(lost))]
    cords = [c for v in flat.interior for c in by_vertex[v]]
    rng.shuffle(cords)
    return cords, dropped


# --------------------------------------------------------------------------
# small leaf sets for the oracle
# --------------------------------------------------------------------------


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def all_shapes(labels: list[str]) -> list:
    """Every tree shape on the labels, one per equivalence class."""
    if len(labels) == 1:
        return [labels[0]]
    out = []
    for blocks in _set_partitions(labels):
        if len(blocks) < 2:
            continue
        combos = [[]]
        for block in blocks:
            combos = [c + [s] for c in combos for s in all_shapes(block)]
        out.extend(combos)
    return out


def oracle_instances(rng: random.Random, labels: list[str]):
    """For every tree shape, one random cord set of each size 0..C(n,2).

    One set per size, rather than random sizes, keeps the share of
    expensive instances (lassos, which scan every rival) the same for
    every seed.
    """
    pool = [_pair(a, b) for a, b in combinations(labels, 2)]
    return [
        (shape, sorted(rng.sample(pool, k)))
        for shape in all_shapes(labels)
        for k in range(len(pool) + 1)
    ]


# --------------------------------------------------------------------------
# text formats
# --------------------------------------------------------------------------


def to_newick(shape) -> str:
    parts: list[str] = []
    stack: list = [shape]
    while stack:
        node = stack.pop()
        if isinstance(node, str):  # a label, or punctuation pushed below
            parts.append(node)
            continue
        parts.append("(")
        stack.append(")")
        for i, child in enumerate(reversed(node)):
            stack.append(child)
            if i < len(node) - 1:
                stack.append(",")
    return "".join(parts) + ";"


def from_newick(text: str) -> list:
    """Nested-list shape of topology-only Newick text (no weights)."""
    root: list = []
    stack = [root]
    label = []
    for ch in text.strip():
        if ch in "(),;":
            if label:
                stack[-1].append("".join(label))
                label = []
            if ch == "(":
                child: list = []
                stack[-1].append(child)
                stack.append(child)
            elif ch == ")":
                stack.pop()
        elif not ch.isspace():
            label.append(ch)
    if len(stack) != 1 or len(root) != 1:
        raise ValueError("unbalanced Newick text")
    return root[0]


def to_cord_file(cords) -> str:
    return "".join(f"{a} {b}\n" for a, b in cords)
