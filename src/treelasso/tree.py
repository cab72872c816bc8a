"""Rooted leaf-labeled trees without unary vertices.

An :class:`XTree` is a rooted tree whose leaves carry distinct string labels
and whose interior vertices (root included) all have at least two children.
Instances are immutable and canonically ordered: children are stored sorted
by their canonical encoding, vertex ids are assigned in preorder over that
ordering, and two trees compare equal exactly when a root-preserving,
label-fixing isomorphism exists between them.  Equal trees therefore have
identical vertex numbering, which makes ids safe cache keys downstream.

Every tree is built one way: from the tiles of its leaves, each leaf with
the ``(`` just before it and the ``)`` just after it, which the Newick
parser reads off the text with one pattern and ``XTree(shape)`` makes from
its nested shape.  One loop over the tiles makes post-order records and
builds each vertex's canonical key as soon as its ``)`` closes, sorting
its children by key and dropping their keys, so a deep tree holds O(n) key
characters at a time; one top-down sweep then numbers the vertices in
preorder.

Every subtree is a contiguous run of preorder ids, so a tree keeps, per
vertex, only the id of its last descendant.  Leaf sets are not stored per
vertex: :meth:`XTree.leaves_below` reads the labels off that range when
asked, and the leaf-label set X is stored once.  A tree therefore takes
O(n) memory at any depth.  Every accessor that takes a vertex id checks it
in one place, ``XTree._vertex``, which names an id that is not a vertex.
That check is for ids a caller gives.  Code in the package that walks a
tree reads the arrays ``_children``, ``_parent``, ``_vlabel`` and
``_interior`` directly: every id it visits came from those arrays, so it
checks none.

Last common vertices are found on heavy paths (Sleator and Tarjan, 1983),
which the top-down sweep fills: each vertex keeps its largest child and
the head of the path of largest children through it.  Two vertices jump
from path head to path head until they share a path, O(log n) jumps at any
depth, and the jumps also give the child of the meeting vertex on each
side, which is all a cord contributes to the child-edge graphs.  One loop,
:meth:`XTree._meets`, climbs for any number of leaf pairs, and every cord
consumer meets its cords there through :meth:`XTree._cord_meets`, whose
label lookups are the cords' check, as :meth:`XTree.lca`'s are for its one
pair.  No table over leaf pairs is ever built, and no recursion is used,
so deep trees raise no ``RecursionError``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
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


def _shape_tiles(shape) -> list[list]:
    """The leaf tiles of a nested tree description, as :func:`_records` reads them.

    A shape is either a leaf label (str) or an iterable of two or more
    shapes.  The walk is depth-first over an explicit stack and checks each
    node when it is first reached, so errors come in left-to-right order.
    """
    tiles: list[list] = []  # [the '(' before, label, the ')' after]
    before = ""
    stack: list = []  # open vertices: an iterator over the entries still to walk
    node = shape
    while True:
        if isinstance(node, str):
            tiles.append([before, _check_label(node), ""])
            before = ""
        else:
            try:
                entries = tuple(node)
            except TypeError:
                raise ValueError(f"tree shape must be a label or an iterable, got {node!r}")
            if len(entries) == 0:
                raise ValueError("interior vertex with no children")
            if len(entries) == 1:
                raise ValueError("unary interior vertex is not allowed")
            before += "("
            stack.append(iter(entries))
        while stack:  # on to the next entry of the innermost vertex with one left
            node = next(stack[-1], stack)  # the stack itself when none is left
            if node is not stack:
                break
            stack.pop()
            tiles[-1][2] += ")"
        else:
            return tiles


def _records(tiles: Iterable) -> tuple | None:
    """Post-order records of a tree's leaf tiles ``(before, label, after)``, or None.

    ``before`` and ``after`` hold one item per ``(`` or ``)``.  Records come
    children first, the root last, as four results: each record's leaf label
    or None; each interior record's children, sorted by canonical key (a dict
    in post-order); where each record's subtree, a run of records ending at
    it, starts; and the root's key.  A leaf's key is its label, and an
    interior vertex's is its children's keys, sorted, in parentheses.  A
    unary or unclosed vertex, or a second root, gives None.
    """
    labels: list[str | None] = []
    kids: dict[int, list[int]] = {}
    first: list[int] = []
    key: dict[int, str] = {}  # the keys of the subtrees whose parent is still open
    ks: list[int] = []  # the children of the innermost open vertex, or the root
    opens: list[list[int]] = []  # the children of each open vertex around it
    keyof, take = key.__getitem__, key.pop
    for before, label, after in tiles:
        for _ in before:
            opens.append(ks)
            ks = []
        r = len(labels)
        key[r] = label
        labels.append(label)
        first.append(r)
        ks.append(r)
        for _ in after:
            if len(ks) < 2 or not opens:
                return None
            r = len(labels)
            first.append(first[ks[0]])
            ks.sort(key=keyof)
            key[r] = f"({','.join(map(take, ks))})"
            kids[r] = ks
            labels.append(None)
            ks = opens.pop()
            ks.append(r)
    if opens or len(ks) > 1:
        return None
    return labels, kids, first, key[len(labels) - 1]


class XTree:
    """Immutable rooted tree on a labeled leaf set, no unary vertices.

    Construct from a nested shape: a leaf is a string label, an interior
    vertex is a tuple (or list) of two or more child shapes::

        XTree(((("a", "b"), "c"), "d"))     # caterpillar on four leaves
        XTree(("a", "b", "c"))              # star on three leaves

    Vertices are integer ids; the root is always id 0.
    """

    def __init__(self, shape) -> None:
        self._build(*_records(_shape_tiles(shape)))

    def _build(self, labels: list[str | None], kids: dict, first: list[int], key: str) -> list[int]:
        """Fills the tree from :func:`_records`' records; returns each record's vertex id.

        One top-down sweep over the interior records numbers the vertices in
        preorder: a vertex's first child takes the id after it, and each later
        child the id after its elder sibling's subtree.
        """
        n = len(labels)
        vid = [0] * n
        parent = [-1] * n
        children: list[tuple[int, ...]] = [()] * n
        vlabel: list[str | None] = [labels[-1]] * n  # the root's label, or None
        depth = [0] * n
        last = [n - 1] * n  # a vertex's descendants are the ids v .. last[v]
        # Heavy paths: a vertex's heavy child is its largest child (the
        # first in canonical order on ties), and head[v] is the top of the
        # path of heavy children through v.  Every other child starts a path
        # of its own and holds at most half its parent's subtree, so a root
        # path crosses O(log n) paths.
        heavy = [-1] * n
        head = list(range(n))
        for r, ks in reversed(kids.items()):
            v = vid[r]
            d = depth[v] + 1
            u = v + 1
            ids = []
            big = 0
            for c in ks:
                vid[c] = u
                parent[u] = v
                depth[u] = d
                vlabel[u] = labels[c]
                size = c - first[c] + 1
                last[u] = u + size - 1
                ids.append(u)
                if size > big:
                    big, heavy[v] = size, u
                u += size
            children[v] = tuple(ids)
            head[heavy[v]] = head[v]

        leaf_id = dict(zip(vlabel, range(n)))
        leaf_id.pop(None, None)
        if len(leaf_id) < n - len(kids):
            seen: set[str] = set()
            for lab in filter(None, vlabel):  # labels are nonempty
                if lab in seen:
                    raise ValueError(f"duplicate leaf label {lab!r}")
                seen.add(lab)

        self._key = key
        self._parent = tuple(parent)
        self._children = tuple(children)
        self._vlabel = tuple(vlabel)
        self._leaf_id = leaf_id
        self._depth = tuple(depth)
        self._leaf_labels = frozenset(leaf_id)
        self._last = tuple(last)
        self._heavy = tuple(heavy)
        self._head = tuple(head)
        self._interior = tuple(sorted(map(vid.__getitem__, kids)))  # in preorder
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
        return range(self.n_vertices)

    def _vertex(self, v: int) -> int:
        """``v`` itself when it is a vertex id, an int 0 <= v < n_vertices.

        Any other id, a negative one or a bool included, raises ValueError.
        It guards the ids a caller hands an accessor; the package's own walks
        read the arrays, whose ids are the tree's, and do not call it.
        """
        if type(v) is int and 0 <= v < len(self._parent):
            return v
        raise ValueError(f"{v!r} is not a vertex of this tree")

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[self._vertex(v)]

    def parent(self, v: int) -> int | None:
        """Parent id of ``v``, or None for the root."""
        p = self._parent[self._vertex(v)]
        return None if p < 0 else p

    def depth(self, v: int) -> int:
        return self._depth[self._vertex(v)]

    def is_leaf(self, v: int) -> bool:
        return self._vlabel[self._vertex(v)] is not None

    def label(self, v: int) -> str:
        lab = self._vlabel[self._vertex(v)]
        if lab is None:
            raise ValueError(f"vertex {v} is interior and has no leaf label")
        return lab

    def leaf_vertex(self, label: str) -> int:
        try:
            return self._leaf_id[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ValueError(f"unknown leaf label {label!r}") from None

    def interior_vertices(self) -> tuple[int, ...]:
        """All non-leaf vertex ids, in canonical (preorder) order."""
        return self._interior

    def leaves_below(self, v: int) -> frozenset[str]:
        """Labels of the leaves that are descendants of ``v`` (itself, for a leaf)."""
        end = self._last[self._vertex(v)]
        # Labels are nonempty strings, so filtering on truth drops the
        # interior vertices' None.
        return frozenset(filter(None, self._vlabel[v : end + 1]))

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

    def _meets(self, pairs: Iterable) -> list[tuple[int, int, int]]:
        """Each leaf pair's last common vertex m, by heavy-path jumps, in one loop.

        Each end is looked up in the label index, unchecked: an unknown label
        raises ``KeyError`` and an unhashable one ``TypeError``.  Each pair
        gives (m, child of m toward its first leaf, child toward its second),
        in input order, and equal labels raise ``ValueError``.  While the two
        vertices lie on different heavy paths, the one whose path head is
        later in preorder jumps from it to its parent: that head is no
        ancestor of the other vertex.  On one path the earlier vertex is m;
        the child toward a side that jumped is the head it last left, else
        m's heavy child.
        """
        parent, head, heavy, leaf_id = self._parent, self._head, self._heavy, self._leaf_id
        out = []
        for a, b in pairs:
            u, w = leaf_id[a], leaf_id[b]
            cu = cw = -1
            hu, hw = head[u], head[w]
            while hu != hw:
                if hu > hw:
                    cu, u = hu, parent[hu]
                    hu = head[u]
                else:
                    cw, w = hw, parent[hw]
                    hw = head[w]
            if u < w:
                out.append((u, cu, heavy[u]))
            elif w < u:
                out.append((w, heavy[w], cw))
            elif cu == cw:  # neither side moved: the ends were one vertex
                raise ValueError("a cord needs two distinct labels")
            else:
                out.append((u, cu, cw))
        return out

    def lca(self, a: str, b: str) -> int:
        """Last common vertex of the root-to-``a`` and root-to-``b`` paths."""
        if a == b:
            raise ValueError("lca requires two distinct leaf labels")
        try:  # the label index is the check, as in _cord_meets
            return self._meets(((a, b),))[0][0]
        except (KeyError, TypeError):
            self.leaf_vertex(a)
            self.leaf_vertex(b)
            raise

    def _cord_meets(self, cords: Iterable, *others: "XTree") -> list[list[tuple[int, int, int]]]:
        """Each cord's :meth:`_meets` triple, in input order, in this tree and then ``others``.

        ``others`` are trees on this tree's leaf set.  Each end is resolved
        by one lookup in a tree's label index, which is the label check, and
        a self-pair raises in the climb; any failure hands the input to
        :func:`~treelasso.cords._by_lookup`, which raises ``validate_cords``'
        error or resolves the normalized set.
        """
        trees = (self, *others)
        return _by_lookup(
            lambda given: [t._meets(given) for t in trees], cords, self._leaf_labels
        )

    def child_toward(self, v: int, label: str) -> int:
        """The child of ``v`` whose subtree contains the leaf ``label``."""
        # The leaf lies strictly inside v's preorder range, in the range of the
        # last child that starts at or before it.
        end = self._last[self._vertex(v)]
        x = self._leaf_id.get(label, -1) if isinstance(label, str) else -1
        if v < x <= end:
            kids = self._children[v]
            return kids[bisect_right(kids, x) - 1]
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
