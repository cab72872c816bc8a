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

The parser reads the text in one pass, with no recursion, into post-order
records (leaf label or None, child record ids, weight) and hands them to
the tree's one construction path, which tells it each record's vertex, so
every weight lands on its vertex directly.  A label is a maximal run of
characters that are neither whitespace nor one of ``(),:;``, which is
exactly what :class:`~treelasso.tree.XTree` accepts, so parsed labels are
not checked again.
"""

from __future__ import annotations

import re

from .cords import format_rational, parse_rational
from .heights import EdgeWeighting
from .tree import _LABEL_RE, XTree

__all__ = ["NewickParseError", "parse_newick", "print_newick"]

_WEIGHT_RE = re.compile(r"-?\d+(?:\.\d+)?(?:/\d+)?")
# The parser tests str.isspace() and then skips with \s+: the two agree on
# every code point (the tests check), so a skip always advances.
_WS_RE = re.compile(r"\s+")


class NewickParseError(ValueError):
    """Syntax or structural error in Newick text, with position information."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        line = text.count("\n", 0, pos) + 1
        column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _found(text: str, pos: int) -> str:
    return repr(text[pos] if pos < len(text) else "end of input")


def _records(text: str) -> tuple[list[str | None], list, dict]:
    """Reads Newick text into post-order records in one pass.

    Returns two parallel lists, one entry per vertex, children before
    parents: the leaf label or None, and the child record ids (``()`` for a
    leaf).  The root comes last.  The third result maps each record that
    carries a weight to that weight.  Whitespace may stand between any two
    tokens; it is skipped only where some is present.
    """
    labels: list[str | None] = []
    kids: list = []
    weights: dict = {}
    open_ids: list[list[int]] = []  # the finished children of each open interior vertex
    end = len(text)
    ws, label_at, weight_at = _WS_RE.match, _LABEL_RE.match, _WEIGHT_RE.match
    pos = 0
    while True:
        # A subtree: any number of '(' and then a leaf label.
        ch = text[pos] if pos < end else ""
        while True:
            if ch == "(":
                open_ids.append([])
                pos += 1
            elif ch.isspace():
                pos = ws(text, pos).end()
            else:
                break
            ch = text[pos] if pos < end else ""
        m = label_at(text, pos)
        if m is None:
            raise NewickParseError(
                f"expected a leaf label or '(', found {_found(text, pos)}", text, pos
            )
        pos = m.end()
        labels.append(m.group())
        kids.append(())
        # After a subtree: its weight, then ',' to a sibling or ')' to close
        # its parent, which is itself a finished subtree.
        while True:
            ch = text[pos] if pos < end else ""
            if ch.isspace():
                pos = ws(text, pos).end()
                ch = text[pos] if pos < end else ""
            if ch == ":":
                pos += 1
                if pos < end and text[pos].isspace():
                    pos = ws(text, pos).end()
                m = weight_at(text, pos)
                if m is None:
                    raise NewickParseError(
                        "expected a decimal or p/q weight after ':'", text, pos
                    )
                try:
                    weights[len(labels) - 1] = parse_rational(m.group())
                except ValueError as exc:  # "1.5/2", "1/0"
                    raise NewickParseError(str(exc), text, pos) from None
                pos = m.end()
                ch = text[pos] if pos < end else ""
                if ch.isspace():
                    pos = ws(text, pos).end()
                    ch = text[pos] if pos < end else ""
            if not open_ids:
                break
            siblings = open_ids[-1]
            siblings.append(len(labels) - 1)
            if ch == ",":
                pos += 1
                break
            if len(siblings) == 1:
                raise NewickParseError(
                    "unary vertex: an interior vertex needs >= 2 children", text, pos
                )
            if ch != ")":
                raise NewickParseError(f"expected ')', found {_found(text, pos)}", text, pos)
            pos += 1
            open_ids.pop()
            labels.append(None)
            kids.append(siblings)
        if not open_ids:
            break

    if ch != ";":
        raise NewickParseError(f"expected ';', found {_found(text, pos)}", text, pos)
    pos += 1
    if pos < end and text[pos].isspace():
        pos = ws(text, pos).end()
    if pos != end:
        raise NewickParseError("trailing characters after ';'", text, pos)
    return labels, kids, weights


def parse_newick(text: str) -> tuple[XTree, EdgeWeighting | None]:
    """Parse Newick text into a tree and, if weights are given, its weighting.

    Raises :class:`NewickParseError` with line/column on syntax errors,
    unary vertices, duplicate labels, partially weighted input, or a weight
    on the root.
    """
    labels, kids, weights = _records(text)
    edges = len(labels) - 1  # every vertex but the root, which comes last, has a parent edge
    if edges in weights:
        raise NewickParseError("the root cannot carry a weight", text, 0)
    try:
        tree, vertex = XTree._from_records(labels, kids)
    except ValueError as exc:
        raise NewickParseError(str(exc), text, 0) from None

    if 0 < len(weights) < edges:
        raise NewickParseError(
            "either every edge carries a weight or none does", text, 0
        )
    if not weights:
        return tree, None
    return tree, EdgeWeighting(tree, {vertex[r]: w for r, w in weights.items()})


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
