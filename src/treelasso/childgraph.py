"""Child-edge graphs: how a cord set links the child edges of a vertex.

For an interior vertex v, the child-edge graph has one node per child edge
of v, and an edge between two child edges exactly when some cord's leaf-to-
leaf path uses both, i.e. when some cord has its last common vertex at v
with one endpoint under each child edge.  Child edges are identified by
their child vertex id.  Nodes split into leaf edges (child is a leaf) and
subtree edges (child is interior); "rich" means the subtree edges form a
clique and every leaf edge is joined to every subtree edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .cords import Cord, validate_cords
from .tree import XTree

__all__ = ["ChildEdgeGraph", "build_child_edge_graph", "child_edge_graphs"]


@dataclass(frozen=True)
class ChildEdgeGraph:
    """Graph on the child edges of one interior vertex, induced by a cord set."""

    tree: XTree
    owner: int
    nodes: tuple[int, ...]
    adjacency: Mapping[int, frozenset[int]]
    leaf_edges: frozenset[int]
    subtree_edges: frozenset[int]

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
        """DOT text for diagnostics; leaf edges are boxes, subtree edges ellipses."""

        def name(child: int) -> str:
            if self.tree.is_leaf(child):
                return self.tree.label(child)
            return "{" + ",".join(sorted(self.tree.leaves_below(child))) + "}"

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
    leave its graph untouched.  One parent-pointer walk per cord finds that
    vertex and the two children toward the endpoints.
    """
    return _child_edge_graphs(tree, validate_cords(cords, tree.leaf_labels))


def _child_edge_graphs(
    tree: XTree, checked: frozenset[Cord]
) -> dict[int, ChildEdgeGraph]:
    """:func:`child_edge_graphs` for a cord set already checked against the tree."""
    adj: dict[int, dict[int, set[int]]] = {
        v: {c: set() for c in tree.children(v)} for v in tree.interior_vertices()
    }
    for a, b in checked:
        v, u, w = tree._meet(tree.leaf_vertex(a), tree.leaf_vertex(b))
        adj[v][u].add(w)
        adj[v][w].add(u)
    out: dict[int, ChildEdgeGraph] = {}
    for v in tree.interior_vertices():
        kids = tree.children(v)
        out[v] = ChildEdgeGraph(
            tree=tree,
            owner=v,
            nodes=kids,
            adjacency={c: frozenset(adj[v][c]) for c in kids},
            leaf_edges=frozenset(c for c in kids if tree.is_leaf(c)),
            subtree_edges=frozenset(c for c in kids if not tree.is_leaf(c)),
        )
    return out


def build_child_edge_graph(
    tree: XTree, cords: Iterable[Cord], vertex: int
) -> ChildEdgeGraph:
    """The child-edge graph of one interior vertex for the given cord set."""
    if tree.is_leaf(vertex):
        raise ValueError(f"vertex {vertex} is a leaf; child-edge graphs need an interior vertex")
    return child_edge_graphs(tree, cords)[vertex]
