"""Rooted leaf-labeled trees without unary vertices.

An :class:`XTree` is a rooted tree whose leaves carry distinct string labels
and whose interior vertices (root included) all have at least two children.
Instances are immutable and canonically ordered: children are stored sorted
by their canonical encoding, vertex ids are assigned in preorder over that
ordering, and two trees compare equal exactly when a root-preserving,
label-fixing isomorphism exists between them.  Equal trees therefore have
identical vertex numbering, which makes ids safe cache keys downstream.

Every subtree is a contiguous run of preorder ids, so a tree keeps, per
vertex, only the id of its last descendant.  Leaf sets are not stored per
vertex: :meth:`XTree.leaves_below` reads the labels off that range when
asked, and the leaf-label set X is stored once.  A tree therefore takes
O(n) memory at any depth.

Last common vertices are found by walking parent pointers: the deeper of two
vertices climbs to the other's depth, then both climb together until they
meet.  One walk yields the meeting vertex and the child of it on each side,
which is all a cord contributes to the child-edge graphs, so a cord costs
O(depth) and no table over leaf pairs is ever built.  Construction,
restriction and canonical keys use explicit stacks or preorder ids instead
of recursion, so deep trees raise no ``RecursionError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

__all__ = ["Triplet", "XTree", "triplet"]

_FORBIDDEN = set("(),:;")


def _check_label(label: object) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError(f"leaf label must be a nonempty string, got {label!r}")
    if any(ch.isspace() or ch in _FORBIDDEN for ch in label):
        raise ValueError(
            f"invalid leaf label {label!r}: whitespace and '(),:;' are reserved"
        )
    return label


def _canonical(shape) -> tuple[str, object]:
    """Return (canonical key, normalized shape) for a nested tree description.

    A shape is either a leaf label (str) or an iterable of two or more
    shapes.  Children are sorted by their canonical keys so that any two
    isomorphic shapes normalize identically.  The walk is a depth-first
    post-order over an explicit stack, checking each node when it is first
    reached, so errors are reported in left-to-right order.
    """
    stack: list[tuple[tuple, list]] = []  # open vertices: (entries, finished child pairs)
    node = shape
    while True:
        if isinstance(node, str):
            label = _check_label(node)
            done = (label, label)
        else:
            try:
                entries = tuple(node)
            except TypeError:
                raise ValueError(f"tree shape must be a label or an iterable, got {node!r}")
            if len(entries) == 0:
                raise ValueError("interior vertex with no children")
            if len(entries) == 1:
                raise ValueError("unary interior vertex is not allowed")
            stack.append((entries, []))
            node = entries[0]
            continue
        while stack:
            entries, pairs = stack[-1]
            pairs.append(done)
            if len(pairs) < len(entries):
                node = entries[len(pairs)]
                break
            stack.pop()
            pairs.sort(key=lambda p: p[0])
            done = ("(" + ",".join(p[0] for p in pairs) + ")", tuple(p[1] for p in pairs))
        else:
            return done


@dataclass(frozen=True)
class Triplet:
    """Rooted triplet ``ab|c``: the binary shape on three leaves with cherry {a, b}."""

    cherry: frozenset[str]
    outlier: str

    def __post_init__(self) -> None:
        if len(self.cherry) != 2 or self.outlier in self.cherry:
            raise ValueError("a triplet needs three pairwise distinct labels")

    def __repr__(self) -> str:
        a, b = sorted(self.cherry)
        return f"{a}{b}|{self.outlier}"


def triplet(a: str, b: str, c: str) -> Triplet:
    """The triplet ``ab|c`` (cherry {a, b}, outlier c)."""
    return Triplet(frozenset((a, b)), c)


class XTree:
    """Immutable rooted tree on a labeled leaf set, no unary vertices.

    Construct from a nested shape: a leaf is a string label, an interior
    vertex is a tuple (or list) of two or more child shapes::

        XTree(((("a", "b"), "c"), "d"))     # caterpillar on four leaves
        XTree(("a", "b", "c"))              # star on three leaves

    Vertices are integer ids; the root is always id 0.
    """

    def __init__(self, shape) -> None:
        key, normalized = _canonical(shape)
        parent: list[int] = []
        children: list[list[int]] = []
        vlabel: list[str | None] = []

        # Preorder ids: children are pushed in reverse, so they pop in order.
        stack = [(normalized, -1)]
        while stack:
            node, par = stack.pop()
            vid = len(parent)
            parent.append(par)
            children.append([])
            if par >= 0:
                children[par].append(vid)
            if isinstance(node, str):
                vlabel.append(node)
            else:
                vlabel.append(None)
                stack.extend((child, vid) for child in reversed(node))
        self._key = key
        self._parent = tuple(parent)
        self._children = tuple(tuple(kids) for kids in children)
        self._vlabel = tuple(vlabel)

        leaf_id: dict[str, int] = {}
        for vid, lab in enumerate(vlabel):
            if lab is not None:
                if lab in leaf_id:
                    raise ValueError(f"duplicate leaf label {lab!r}")
                leaf_id[lab] = vid
        self._leaf_id = leaf_id

        depth = [0] * len(parent)
        for vid in range(1, len(parent)):
            depth[vid] = depth[parent[vid]] + 1
        self._depth = tuple(depth)

        self._leaf_labels = frozenset(leaf_id)

        # A vertex's descendants are the preorder ids v .. last[v]; the last
        # child comes last in preorder, so its range ends the parent's.
        last = list(range(len(parent)))
        for vid in range(len(parent) - 1, -1, -1):
            if children[vid]:
                last[vid] = last[children[vid][-1]]
        self._last = tuple(last)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def star(cls, labels: Iterable[str]) -> "XTree":
        """The tree with a single interior vertex adjacent to every leaf."""
        return cls(tuple(labels))

    # -- basic structure ------------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    @property
    def n_vertices(self) -> int:
        return len(self._parent)

    @property
    def leaf_labels(self) -> frozenset[str]:
        """The leaf-label set X."""
        return self._leaf_labels

    def vertices(self) -> range:
        return range(len(self._parent))

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[v]

    def parent(self, v: int) -> int | None:
        """Parent id of ``v``, or None for the root."""
        p = self._parent[v]
        return None if p < 0 else p

    def depth(self, v: int) -> int:
        return self._depth[v]

    def is_leaf(self, v: int) -> bool:
        return self._vlabel[v] is not None

    def label(self, v: int) -> str:
        lab = self._vlabel[v]
        if lab is None:
            raise ValueError(f"vertex {v} is interior and has no leaf label")
        return lab

    def leaf_vertex(self, label: str) -> int:
        try:
            return self._leaf_id[label]
        except KeyError:
            raise ValueError(f"unknown leaf label {label!r}") from None

    @cached_property
    def _interior(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertices() if self._vlabel[v] is None)

    def interior_vertices(self) -> tuple[int, ...]:
        """All non-leaf vertex ids, in canonical (preorder) order."""
        return self._interior

    def leaves_below(self, v: int) -> frozenset[str]:
        """Labels of the leaves that are descendants of ``v`` (itself, for a leaf)."""
        return frozenset(self._leaves(v))

    def _leaves(self, v: int) -> list[str]:
        """The leaf labels in ``v``'s preorder range, in preorder."""
        # Labels are nonempty strings, so filtering on truth drops the
        # interior vertices' None.
        return list(filter(None, self._vlabel[v : self._last[v] + 1]))

    # -- ancestry queries -----------------------------------------------------

    def _meet(self, u: int, w: int) -> tuple[int, int, int]:
        """Walks up from vertices u and w to their last common vertex m.

        Returns (m, child of m toward u, child of m toward w); a side whose
        vertex is m itself gets -1.
        """
        parent, depth = self._parent, self._depth
        cu = cw = -1
        du, dw = depth[u], depth[w]
        while du > dw:
            cu, u = u, parent[u]
            du -= 1
        while dw > du:
            cw, w = w, parent[w]
            dw -= 1
        while u != w:
            cu, u = u, parent[u]
            cw, w = w, parent[w]
        return u, cu, cw

    def lca(self, a: str, b: str) -> int:
        """Last common vertex of the root-to-``a`` and root-to-``b`` paths."""
        if a == b:
            raise ValueError("lca requires two distinct leaf labels")
        return self._meet(self.leaf_vertex(a), self.leaf_vertex(b))[0]

    def child_toward(self, v: int, label: str) -> int:
        """The child of ``v`` whose subtree contains the leaf ``label``."""
        leaf = self._leaf_id.get(label)
        if leaf is not None and v in range(len(self._parent)):
            meet, child, _ = self._meet(leaf, v)
            if meet == v and child >= 0:
                return child
        raise ValueError(f"leaf {label!r} is not below vertex {v}")

    # -- restriction and triplets ---------------------------------------------

    def restrict(self, labels: Iterable[str]) -> "XTree":
        """The tree induced on a nonempty label subset, unary vertices suppressed."""
        keep = set(labels)
        if not keep:
            raise ValueError("cannot restrict to the empty leaf set")
        unknown = keep - set(self._leaf_id)
        if unknown:
            raise ValueError(f"labels not in this tree: {sorted(unknown)}")

        # Children have larger preorder ids than their parent, so a reverse
        # sweep prunes every subtree before the vertex above it.
        pruned: list[object] = [None] * len(self._parent)
        for v in range(len(self._parent) - 1, -1, -1):
            lab = self._vlabel[v]
            if lab is not None:
                pruned[v] = lab if lab in keep else None
                continue
            kept = [pruned[c] for c in self._children[v] if pruned[c] is not None]
            if len(kept) == 1:
                pruned[v] = kept[0]
            elif kept:
                pruned[v] = tuple(kept)
        return XTree(pruned[0])

    @cached_property
    def _triplets(self) -> frozenset[Triplet]:
        depth = self._depth
        leaf_id = self._leaf_id
        labels = sorted(leaf_id)
        meet_depth = {}
        for a, b in combinations(labels, 2):
            meet_depth[(a, b)] = depth[self._meet(leaf_id[a], leaf_id[b])[0]]
        out = []
        for a, b, c in combinations(labels, 3):
            dab = meet_depth[(a, b)]
            dac = meet_depth[(a, c)]
            dbc = meet_depth[(b, c)]
            top = max(dab, dac, dbc)
            if dab == dac == dbc:
                continue
            if dab == top:
                out.append(triplet(a, b, c))
            elif dac == top:
                out.append(triplet(a, c, b))
            else:
                out.append(triplet(b, c, a))
        return frozenset(out)

    def triplets(self) -> frozenset[Triplet]:
        """All triplets ``ab|c`` whose restriction to {a, b, c} has cherry {a, b}."""
        return self._triplets

    # -- comparisons ------------------------------------------------------------

    def is_equivalent(self, other: "XTree") -> bool:
        """True iff a root-preserving isomorphism fixing all labels exists."""
        if self.leaf_labels != other.leaf_labels:
            raise ValueError("trees are on different leaf sets")
        return self._key == other._key

    def refines(self, other: "XTree") -> bool:
        """True iff ``other`` can be obtained from this tree by collapsing edges.

        Equivalent formulation: every triplet of ``other`` is a triplet of
        this tree.  Every tree refines itself.
        """
        if self.leaf_labels != other.leaf_labels:
            raise ValueError("trees are on different leaf sets")
        return other._triplets <= self._triplets

    # -- degenerate-shape queries -----------------------------------------------

    def pseudo_cherries(self) -> tuple[tuple[int, frozenset[str]], ...]:
        """All (parent vertex, leaf set) pairs where the leaf set is a maximal
        proper subset of X whose members all share that parent."""
        # Only the root has every leaf below it.
        return tuple(
            (v, self.leaves_below(v))
            for v in self._interior
            if v != 0 and all(self._vlabel[c] is not None for c in self._children[v])
        )

    def is_binary(self) -> bool:
        """True iff every interior vertex has exactly two children."""
        return all(len(self._children[v]) == 2 for v in self._interior)

    def is_star(self) -> bool:
        """True iff the tree has exactly one interior vertex."""
        return len(self._interior) == 1

    # -- canonical form -----------------------------------------------------------

    def canonical_newick(self) -> str:
        """Topology-only Newick text in canonical child order."""
        return self._key + ";"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XTree) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"<XTree {self._key};>"
