"""Newick text for rooted trees, with optional exact rational edge weights.

Grammar::

    tree    :=  subtree ";"
    subtree :=  leaf | "(" subtree ("," subtree)+ ")" [":" weight]
    leaf    :=  label [":" weight]
    weight  :=  decimal or rational "p/q"

Unary vertices are rejected, a weight is either present on every edge or on
none, and the root carries no weight (it has no parent edge).  Decimals are
converted exactly (power-of-ten denominators), so parse/print round-trips
preserve rationals bit for bit.
"""

from __future__ import annotations

import re

from .cords import format_rational, parse_rational
from .heights import EdgeWeighting
from .tree import XTree

__all__ = ["NewickParseError", "parse_newick", "print_newick"]

_LABEL_RE = re.compile(r"[^\s(),:;]+")
_WEIGHT_RE = re.compile(r"-?\d+(?:\.\d+)?(?:/\d+)?")


class NewickParseError(ValueError):
    """Syntax or structural error in Newick text, with position information."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        line = text.count("\n", 0, pos) + 1
        column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> NewickParseError:
        return NewickParseError(message, self.text, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            got = self.peek() or "end of input"
            raise self.error(f"expected {ch!r}, found {got!r}")
        self.pos += 1

    def subtree(self):
        """Parses one subtree with an explicit stack instead of recursion.

        Returns (shape, records): the shape as nested label tuples, and one
        record ``(leaf label | None, weight | None)`` per vertex in
        post-order, so the root's record comes last and the record just
        before an interior vertex's is that of its last child.
        """
        records: list[tuple[str | None, object]] = []
        stack: list[list] = []  # the child shapes of each open interior vertex
        while True:
            if self.peek() == "(":
                self.pos += 1
                stack.append([])
                continue
            m = _LABEL_RE.match(self.text, self.pos)
            if not m:
                got = self.peek() or "end of input"
                raise self.error(f"expected a leaf label or '(', found {got!r}")
            self.pos = m.end()
            shape = label = m.group()
            while True:
                records.append((label, self.weight()))
                if not stack:
                    return shape, records
                children = stack[-1]
                children.append(shape)
                if self.peek() == ",":
                    self.pos += 1
                    break
                if len(children) == 1:
                    raise self.error("unary vertex: an interior vertex needs >= 2 children")
                self.expect(")")
                stack.pop()
                shape, label = tuple(children), None

    def weight(self):
        if self.peek() != ":":
            return None
        self.pos += 1
        self.skip_ws()
        m = _WEIGHT_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a decimal or p/q weight after ':'")
        self.pos = m.end()
        return parse_rational(m.group())


def parse_newick(text: str) -> tuple[XTree, EdgeWeighting | None]:
    """Parse Newick text into a tree and, if weights are given, its weighting.

    Raises :class:`NewickParseError` with line/column on syntax errors,
    unary vertices, duplicate labels, partially weighted input, or a weight
    on the root.
    """
    parser = _Parser(text)
    shape, records = parser.subtree()
    parser.expect(";")
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing characters after ';'")
    if records[-1][1] is not None:
        raise NewickParseError("the root cannot carry a weight", text, 0)

    try:
        tree = XTree(shape)
    except ValueError as exc:
        raise NewickParseError(str(exc), text, 0) from None

    edges = records[:-1]  # every vertex but the root has a parent edge
    weighted = sum(w is not None for _, w in edges)
    if weighted and weighted < len(edges):
        raise NewickParseError(
            "either every edge carries a weight or none does", text, 0
        )
    if not weighted:
        return tree, None
    # The canonical tree only reorders children, so a parsed vertex is its
    # leaf, or the parent of the vertex parsed just before it (its last child).
    vertex: list[int] = []
    for label, _ in records:
        vertex.append(tree.leaf_vertex(label) if label is not None else tree.parent(vertex[-1]))
    weights = {vertex[i]: w for i, (_, w) in enumerate(edges)}
    return tree, EdgeWeighting(tree, weights)


def print_newick(tree: XTree, weighting: EdgeWeighting | None = None) -> str:
    """Render a tree in canonical child order, with exact weights if given."""
    if weighting is not None and weighting.tree != tree:
        raise ValueError("weighting belongs to a different tree")

    parts: list[str] = []
    stack: list[int | str] = [tree.root]  # vertices still to print, and closing text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        suffix = ""
        if weighting is not None and item != tree.root:
            suffix = ":" + format_rational(weighting.by_child[item])
        if tree.is_leaf(item):
            parts.append(tree.label(item) + suffix)
            continue
        parts.append("(")
        stack.append(")" + suffix)
        kids = tree.children(item)
        for child in reversed(kids[1:]):
            stack += (child, ",")
        stack.append(kids[0])
    return "".join(parts) + ";"
