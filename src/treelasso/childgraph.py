"""Child-edge graphs: how a cord set links the child edges of a vertex.

For an interior vertex v, the child-edge graph has one node per child edge
of v, and an edge between two child edges exactly when some cord's leaf-to-
leaf path uses both, i.e. when some cord has its last common vertex at v
with one endpoint under each child edge.  Child edges are identified by
their child vertex id.  Nodes split into leaf edges (child is a leaf) and
subtree edges (child is interior); "rich" means the subtree edges form a
clique and every leaf edge is joined to every subtree edge.

Cords become edges in one place, :func:`~treelasso.lasso._child_pairs`,
which :func:`~treelasso.lasso.classify`, :func:`child_edge_graphs` and
:func:`build_child_edge_graph` all call; it builds on the one cord
resolver, :meth:`~treelasso.tree.XTree._cord_meets`, so malformed cords
raise the same error as everywhere else.  It lives in ``lasso`` so that
``classify`` does not load this module; the package loads it on first
access to one of its names.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .cords import Cord
from .lasso import _Record, _child_pairs
from .tree import XTree

__all__ = ["ChildEdgeGraph", "build_child_edge_graph", "child_edge_graphs"]


class ChildEdgeGraph(_Record):
    """Graph on the child edges of one interior vertex, induced by a cord set."""

    __slots__ = __match_args__ = (
        "tree", "owner", "nodes", "adjacency", "leaf_edges", "subtree_edges",
    )

    def __init__(
        self,
        tree: XTree,
        owner: int,
        nodes: tuple[int, ...],
        adjacency: Mapping[int, frozenset[int]],
        leaf_edges: frozenset[int],
        subtree_edges: frozenset[int],
    ) -> None:
        self._set(tree, owner, nodes, adjacency, leaf_edges, subtree_edges)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All graph edges as ordered (smaller id, larger id) pairs."""
        for u in self.nodes:
            for w in self.adjacency[u]:
                if u < w:
                    yield (u, w)

    def has_edge(self) -> bool:
        return any(self.adjacency[u] for u in self.nodes)

    def is_connected(self) -> bool:
        """Standard connectivity; a one-node graph counts as connected."""
        if len(self.nodes) <= 1:
            return True
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.nodes)

    def is_clique(self) -> bool:
        """Every pair of nodes adjacent; one-node graphs count as cliques."""
        return all(w in self.adjacency[u] for u, w in combinations(self.nodes, 2))

    def is_rich(self) -> bool:
        """Subtree edges form a clique and each leaf edge meets every subtree edge.

        Undefined (raises ValueError) when the owner has no interior child,
        i.e. at the parent of a pseudo-cherry; nothing is required between
        pairs of leaf edges.
        """
        if not self.subtree_edges:
            raise ValueError(
                f"richness is undefined at vertex {self.owner}: every child is a leaf"
            )
        for u, w in combinations(sorted(self.subtree_edges), 2):
            if w not in self.adjacency[u]:
                return False
        for u in self.leaf_edges:
            for w in self.subtree_edges:
                if w not in self.adjacency[u]:
                    return False
        return True

    def to_dot(self) -> str:
        """DOT text for diagnostics; leaf edges are boxes, subtree edges ellipses.

        Each node's ID is its leaf label or clade name in double quotes, with
        each ``"`` written as ``\\"``.  A leaf label that ends in ``\\`` would
        escape the closing quote, and DOT has no way to quote it, so it
        raises ``ValueError`` naming the label.
        """
        tree = self.tree  # a caller may build the record, so its nodes go through the checks
        clades = tree._clade_names(c for c in self.nodes if not tree.is_leaf(c))

        def name(child: int) -> str:
            text = tree.label(child) if tree.is_leaf(child) else clades[child]
            if text.endswith("\\"):  # a clade name ends in "}", so this is a leaf label
                raise ValueError(f"label {text!r} cannot be written to DOT: it ends in a backslash")
            return text.replace('"', '\\"')

        lines = ["graph child_edges {"]
        for u in self.nodes:
            shape = "box" if u in self.leaf_edges else "ellipse"
            lines.append(f'  "{name(u)}" [shape={shape}];')
        for u, w in sorted(self.edges()):
            lines.append(f'  "{name(u)}" -- "{name(w)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def child_edge_graphs(
    tree: XTree, cords: Iterable[Cord]
) -> dict[int, ChildEdgeGraph]:
    """Child-edge graphs of every interior vertex, built in one pass over the cords.

    Each cord contributes one edge, to the graph of its endpoints' last
    common vertex; cords whose paths merely pass through or avoid a vertex
    leave its graph untouched.  One heavy-path meet per cord finds that
    vertex and the two children toward the endpoints.
    """
    return _child_edge_graphs(tree, _child_pairs(tree, cords), tree.interior_vertices())


def _child_edge_graphs(
    tree: XTree, pairs: set[tuple[int, int, int]], vertices: Iterable[int]
) -> dict[int, ChildEdgeGraph]:
    """The graphs of the given interior vertices, from the cords' ``_child_pairs``.

    The vertices come from the tree or were checked by the caller, so the
    walk reads the tree's arrays.
    """
    children, vlabel = tree._children, tree._vlabel
    adj = {v: {c: set() for c in children[v]} for v in vertices}
    for v, u, w in pairs:
        if v in adj:
            adj[v][u].add(w)
            adj[v][w].add(u)
    out: dict[int, ChildEdgeGraph] = {}
    for v, linked in adj.items():
        kids = children[v]
        out[v] = ChildEdgeGraph(
            tree=tree,
            owner=v,
            nodes=kids,
            adjacency={c: frozenset(linked[c]) for c in kids},
            leaf_edges=frozenset(c for c in kids if vlabel[c] is not None),
            subtree_edges=frozenset(c for c in kids if vlabel[c] is None),
        )
    return out


def build_child_edge_graph(
    tree: XTree, cords: Iterable[Cord], vertex: int
) -> ChildEdgeGraph:
    """The child-edge graph of one interior vertex for the given cord set."""
    if tree.is_leaf(vertex):  # raises for an id that is not a vertex
        raise ValueError(f"vertex {vertex} is a leaf; child-edge graphs need an interior vertex")
    return _child_edge_graphs(tree, _child_pairs(tree, cords), (vertex,))[vertex]
