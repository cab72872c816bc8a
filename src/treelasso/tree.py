"""Rooted leaf-labeled trees without unary vertices.

An :class:`XTree` is a rooted tree whose leaves carry distinct string labels
and whose interior vertices (root included) all have at least two children.
Instances are immutable and canonically ordered: children are stored sorted
by their canonical encoding, vertex ids are assigned in preorder over that
ordering, and two trees compare equal exactly when a root-preserving,
label-fixing isomorphism exists between them.  Equal trees therefore have
identical vertex numbering, which makes ids safe cache keys downstream.

Every tree is built one way: from post-order records, one per vertex
(leaf label or None, and child record ids).  ``XTree(shape)`` flattens its
nested shape into records and the Newick parser emits them directly.  One
bottom-up sweep builds canonical keys, sorting each vertex's children by
key and dropping the children's keys once their parent's is built, so a
deep tree holds O(n) key characters at a time; one top-down sweep numbers
the vertices in preorder.

Every subtree is a contiguous run of preorder ids, so a tree keeps, per
vertex, only the id of its last descendant.  Leaf sets are not stored per
vertex: :meth:`XTree.leaves_below` reads the labels off that range when
asked, and the leaf-label set X is stored once.  A tree therefore takes
O(n) memory at any depth.

Last common vertices are found on heavy paths, which the top-down sweep
fills: each vertex keeps its largest child and the head of the path of
largest children through it.  Two vertices jump from path head to path
head until they share a path, O(log n) jumps at any depth, and the jumps
also give the child of the meeting vertex on each side, which is all a
cord contributes to the child-edge graphs.  No table over leaf pairs is
ever built.  Every cord consumer meets its cords in one place,
:meth:`XTree._cord_meets`, whose label lookups are the cords' check.
Construction and canonical keys use explicit stacks or preorder ids
instead of recursion, so deep trees raise no ``RecursionError``.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable

from .cords import _by_lookup

__all__ = ["XTree"]

# A leaf label: nonempty, without whitespace or any of the Newick
# delimiters "(),:;".  The Newick parser matches labels with this pattern,
# so every label it reads is valid.
_LABEL_RE = re.compile(r"[^\s(),:;]+")


def _check_label(label: object) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError(f"leaf label must be a nonempty string, got {label!r}")
    if _LABEL_RE.fullmatch(label) is None:
        raise ValueError(
            f"invalid leaf label {label!r}: whitespace and '(),:;' are reserved"
        )
    return label


def _not_a_vertex(v: object) -> ValueError:
    return ValueError(f"{v!r} is not a vertex of this tree")


def _self_pair() -> tuple[int, int, int]:
    """Raises for a cord of one label, from inside an expression."""
    raise ValueError("a cord needs two distinct labels")


def _shape_records(shape) -> tuple[list[str | None], list]:
    """Flattens a nested tree description into post-order records.

    A shape is either a leaf label (str) or an iterable of two or more
    shapes.  Record i is a leaf label and ``()``, or ``None`` and the list
    of its children's record ids in the shape's order.  The walk is a
    depth-first post-order over an explicit stack, checking each node when
    it is first reached, so errors are reported in left-to-right order.
    """
    labels: list[str | None] = []
    kids: list = []
    stack: list[tuple[tuple, list[int]]] = []  # open vertices: (entries, finished child ids)
    node = shape
    while True:
        if isinstance(node, str):
            labels.append(_check_label(node))
            kids.append(())
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
            entries, ids = stack[-1]
            ids.append(len(labels) - 1)
            if len(ids) < len(entries):
                node = entries[len(ids)]
                break
            stack.pop()
            labels.append(None)
            kids.append(ids)
        else:
            return labels, kids


class XTree:
    """Immutable rooted tree on a labeled leaf set, no unary vertices.

    Construct from a nested shape: a leaf is a string label, an interior
    vertex is a tuple (or list) of two or more child shapes::

        XTree(((("a", "b"), "c"), "d"))     # caterpillar on four leaves
        XTree(("a", "b", "c"))              # star on three leaves

    Vertices are integer ids; the root is always id 0.
    """

    def __init__(self, shape) -> None:
        self._build(*_shape_records(shape))

    @classmethod
    def _from_records(cls, labels: list[str | None], kids: list) -> tuple["XTree", list[int]]:
        """The tree of post-order records, and the vertex id of each record.

        Records are as :func:`_shape_records` makes them; labels are not
        checked again, so the caller vouches for them.  ``kids`` is sorted in place.
        """
        tree = cls.__new__(cls)
        return tree, tree._build(labels, kids)

    def _build(self, labels: list[str | None], kids: list) -> list[int]:
        """Fills the tree from post-order records; returns each record's vertex id."""
        n = len(labels)
        # Canonical keys, children first: a leaf's key is its label, and an
        # interior vertex's is its children's keys, sorted, in parentheses.
        # A child's key is dropped once its parent's is built, so a deep
        # tree never holds more than O(n) key characters at once.  A subtree
        # is a run of records ending at its root; first[r] is where it starts.
        key: list[str | None] = list(labels)
        first = list(range(n))
        for r in range(n):
            ks = kids[r]
            if ks:
                first[r] = first[ks[0]]
                ks.sort(key=key.__getitem__)
                key[r] = f"({','.join([key[c] for c in ks])})"  # one copy of the keys
                for c in ks:
                    key[c] = None

        # Preorder ids over the sorted children: parents come before their
        # children in reverse post-order, and a vertex's first child takes
        # the id after it, each later child the id after its elder
        # sibling's subtree.
        vid = [0] * n
        parent = [-1] * n
        children: list[tuple[int, ...]] = [()] * n
        vlabel: list[str | None] = [None] * n
        depth = [0] * n
        last = [0] * n  # a vertex's descendants are the ids v .. last[v]
        # Heavy paths: a vertex's heavy child is its largest child (the
        # first in canonical order on ties), and head[v] is the top of the
        # path of heavy children through v.  Every other child starts a path
        # of its own and holds at most half its parent's subtree, so a root
        # path crosses O(log n) paths.
        heavy = [-1] * n
        head = list(range(n))
        for r in range(n - 1, -1, -1):
            v = vid[r]
            last[v] = v + r - first[r]
            ks = kids[r]
            if not ks:
                vlabel[v] = labels[r]
                continue
            d = depth[v] + 1
            u = v + 1
            ids = []
            big = 0
            for c in ks:
                vid[c] = u
                parent[u] = v
                depth[u] = d
                ids.append(u)
                size = c - first[c] + 1
                if size > big:
                    big, heavy[v] = size, u
                u += size
            children[v] = tuple(ids)
            head[heavy[v]] = head[v]

        leaf_id = {lab: v for v, lab in enumerate(vlabel) if lab is not None}
        if len(leaf_id) < n - labels.count(None):
            seen: set[str] = set()
            for lab in vlabel:
                if lab is not None:
                    if lab in seen:
                        raise ValueError(f"duplicate leaf label {lab!r}")
                    seen.add(lab)

        self._key = key[n - 1]
        self._parent = tuple(parent)
        self._children = tuple(children)
        self._vlabel = tuple(vlabel)
        self._leaf_id = leaf_id
        self._depth = tuple(depth)
        self._leaf_labels = frozenset(leaf_id)
        self._last = tuple(last)
        self._heavy = tuple(heavy)
        self._head = tuple(head)
        return vid

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

    # The accessors below take a vertex id, an int 0 <= v < n_vertices; any
    # other id, a negative one or a bool included, raises ValueError.

    def children(self, v: int) -> tuple[int, ...]:
        if type(v) is int and 0 <= v < len(self._parent):
            return self._children[v]
        raise _not_a_vertex(v)

    def parent(self, v: int) -> int | None:
        """Parent id of ``v``, or None for the root."""
        if type(v) is int and 0 <= v < len(self._parent):
            p = self._parent[v]
            return None if p < 0 else p
        raise _not_a_vertex(v)

    def depth(self, v: int) -> int:
        if type(v) is int and 0 <= v < len(self._parent):
            return self._depth[v]
        raise _not_a_vertex(v)

    def is_leaf(self, v: int) -> bool:
        if type(v) is int and 0 <= v < len(self._parent):
            return self._vlabel[v] is not None
        raise _not_a_vertex(v)

    def label(self, v: int) -> str:
        if type(v) is int and 0 <= v < len(self._parent):
            lab = self._vlabel[v]
            if lab is not None:
                return lab
            raise ValueError(f"vertex {v} is interior and has no leaf label")
        raise _not_a_vertex(v)

    def leaf_vertex(self, label: str) -> int:
        try:
            return self._leaf_id[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"unknown leaf label {label!r}") from None

    @cached_property
    def _interior(self) -> tuple[int, ...]:
        return tuple([v for v, lab in enumerate(self._vlabel) if lab is None])

    def interior_vertices(self) -> tuple[int, ...]:
        """All non-leaf vertex ids, in canonical (preorder) order."""
        return self._interior

    def leaves_below(self, v: int) -> frozenset[str]:
        """Labels of the leaves that are descendants of ``v`` (itself, for a leaf)."""
        if type(v) is int and 0 <= v < len(self._parent):
            return frozenset(self._leaves(v))
        raise _not_a_vertex(v)

    def _leaves(self, v: int) -> list[str]:
        """The leaf labels in ``v``'s preorder range, in preorder."""
        # Labels are nonempty strings, so filtering on truth drops the
        # interior vertices' None.
        return list(filter(None, self._vlabel[v : self._last[v] + 1]))

    def _clade_names(self, vertices: Iterable[int]) -> dict[int, str]:
        """``{a,b,...}``, the sorted leaf labels below each vertex, for a batch of vertices.

        Vertices are named in descending preorder, so every named descendant
        of a vertex is named before it.  A vertex's labels are the sorted
        lists of its nearest named descendants plus the leaves in its range
        outside them, and ``list.sort`` merges those sorted runs, so nested
        clades on a deep tree are not each sorted from scratch.
        """
        vlabel, last = self._vlabel, self._last
        names = {}
        # Named vertices whose nearest named ancestor is not named yet,
        # with their sorted labels; the smallest id is on top.
        tops: list[tuple[int, list[str]]] = []
        for v in sorted(set(vertices), reverse=True):
            end = last[v]
            labels: list[str] = []
            start = v
            while tops and tops[-1][0] <= end:
                w, run = tops.pop()
                labels += filter(None, vlabel[start:w])
                labels += run
                start = last[w] + 1
            labels += filter(None, vlabel[start : end + 1])
            labels.sort()
            names[v] = "{" + ",".join(labels) + "}"
            tops.append((v, labels))
        return names

    # -- ancestry queries -----------------------------------------------------

    def _meet(self, u: int, w: int) -> tuple[int, int, int]:
        """The last common vertex m of vertices u and w, by heavy-path jumps.

        Returns (m, child of m toward u, child of m toward w); a side whose
        vertex is m itself gets -1.  While u and w lie on different heavy
        paths, the side whose path starts deeper jumps from its path's head
        to the head's parent; once both share a path, the shallower vertex
        is m.  The child toward a side that jumped onto m's path is the head
        it last jumped from, and toward a side below m on that path it is
        m's heavy child.
        """
        parent, depth, head = self._parent, self._depth, self._head
        cu = cw = -1
        hu, hw = head[u], head[w]
        while hu != hw:
            if depth[hu] > depth[hw]:
                cu, u = hu, parent[hu]
                hu = head[u]
            else:
                cw, w = hw, parent[hw]
                hw = head[w]
        if depth[u] < depth[w]:
            return u, cu, self._heavy[u]
        if depth[w] < depth[u]:
            return w, self._heavy[w], cw
        return u, cu, cw

    def lca(self, a: str, b: str) -> int:
        """Last common vertex of the root-to-``a`` and root-to-``b`` paths."""
        if a == b:
            raise ValueError("lca requires two distinct leaf labels")
        return self._meet(self.leaf_vertex(a), self.leaf_vertex(b))[0]

    def _cord_meets(self, cords: Iterable, *others: "XTree") -> list[list[tuple[int, int, int]]]:
        """Where each cord meets: one list per tree, this one and then ``others``.

        A list holds each cord's :meth:`_meet` triple in that tree, in input
        order; ``others`` are trees on this tree's leaf set.  Each end is
        resolved by one lookup in a label index, which is the label check, and
        a self-pair is rejected; any failure hands the input to
        :func:`~treelasso.cords._by_lookup`, which raises ``validate_cords``'
        error or resolves the normalized set, in its order.
        """
        trees = (self, *others)

        def resolve(given: Iterable) -> list[list[tuple[int, int, int]]]:
            out = []
            for tree in trees:
                leaf, meet = tree._leaf_id, tree._meet
                out.append([meet(leaf[a], leaf[b]) if a != b else _self_pair() for a, b in given])
            return out

        return _by_lookup(resolve, cords, self._leaf_labels)

    def child_toward(self, v: int, label: str) -> int:
        """The child of ``v`` whose subtree contains the leaf ``label``."""
        if not (type(v) is int and 0 <= v < len(self._parent)):
            raise _not_a_vertex(v)
        leaf = self._leaf_id.get(label) if isinstance(label, str) else None
        if leaf is not None:
            meet, child, _ = self._meet(leaf, v)
            if meet == v and child >= 0:
                return child
        raise ValueError(f"leaf {label!r} is not below vertex {v}")

    # -- comparisons ------------------------------------------------------------

    def is_equivalent(self, other: "XTree") -> bool:
        """True iff a root-preserving isomorphism fixing all labels exists."""
        if self.leaf_labels != other.leaf_labels:
            raise ValueError("trees are on different leaf sets")
        return self._key == other._key

    def refines(self, other: "XTree") -> bool:
        """True iff ``other`` can be obtained from this tree by collapsing edges.

        Equivalently, every cluster (leaf set below a vertex) of ``other``
        is a cluster of this tree.  Every tree refines itself.

        Ranking this tree's leaves in preorder makes each of its clusters an
        interval of ranks.  One bottom-up sweep over ``other`` finds each
        cluster's lowest and highest rank and its size; the cluster is one
        of this tree's when it fills its rank interval and that interval
        belongs to a vertex here.  O(n) time and memory.
        """
        if self.leaf_labels != other.leaf_labels:
            raise ValueError("trees are on different leaf sets")
        rank: dict[str, int] = {}
        before = []  # before[v]: leaves with preorder ids below v
        for lab in self._vlabel:
            before.append(len(rank))
            if lab is not None:
                rank[lab] = len(rank)
        before.append(len(rank))
        last = self._last
        runs = {(before[v], before[last[v] + 1] - 1) for v in self._interior}
        n = len(other._vlabel)
        lo, hi, size = [len(rank)] * n, [-1] * n, [0] * n
        for v in range(n - 1, -1, -1):  # children before parents
            lab = other._vlabel[v]
            if lab is not None:
                lo[v] = hi[v] = rank[lab]
                size[v] = 1
            elif hi[v] - lo[v] + 1 != size[v] or (lo[v], hi[v]) not in runs:
                return False
            p = other._parent[v]
            if p >= 0:
                lo[p] = min(lo[p], lo[v])
                hi[p] = max(hi[p], hi[v])
                size[p] += size[v]
        return True

    # -- degenerate-shape queries -----------------------------------------------

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
