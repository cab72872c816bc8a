"""Newick text for rooted trees, with optional exact rational edge weights.

Grammar::

    tree    :=  subtree ";"
    subtree :=  leaf | "(" subtree ("," subtree)+ ")" [":" weight]
    leaf    :=  label [":" weight]
    weight  :=  decimal or rational "p/q", in ASCII digits

Unary vertices are rejected, a weight is either present on every edge or on
none, and the root carries no weight (it has no parent edge).  Decimals are
converted exactly (power-of-ten denominators), so parse/print round-trips
preserve rationals bit for bit.

One pattern checks the text and another reads it, without its whitespace,
as the tiles of its leaves: each leaf with the ``(`` before it and the ``)``
after it.  A tile's weights are taken out by record, and the tiles go
straight into the tree's one construction path, which tells each record's
vertex, so every weight lands on its vertex.  Text that the pattern, a
weight or the records reject is scanned one token at a time, which names
its first error with the position.  A label is a maximal run of characters that are
neither whitespace nor one of ``(),:;``, exactly what
:class:`~treelasso.tree.XTree` accepts, so parsed labels are not checked again.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, NoReturn

from .cords import _RATIONAL_RE, format_rational, parse_rational
from .tree import _LABEL_RE, XTree, _records

if TYPE_CHECKING:
    from .heights import EdgeWeighting

__all__ = ["NewickParseError", "parse_newick", "print_newick"]

# Whitespace between tokens.  re's \s and str.isspace(), which str.split()
# uses, agree on every code point (the tests check), so all skip the same.
_WS_RE = re.compile(r"\s*")
# A tree is a comma-separated run of tiles, one per leaf: the '(' before it,
# its label, and the ')' after it with the weights among them.  The pattern
# lets through weights that do not read (such as "1/0", "1.2.3" or two in a
# row) and parentheses that do not balance, which reading the weights and
# the records catch.  No two labels or weights are adjacent, so the text's
# whitespace can go once it matches; a tile of the rest, without ';', is
# (the '(' before, label, what follows).
_TILE = r"[\s(]*[^\s(),:;]+[\s)]*(?::\s*[-0-9./]+[\s)]*)*"
_TREE_RE = re.compile(rf"(?:{_TILE},)*{_TILE};\s*")
_TILE_RE = re.compile(r"(\(*)([^(),:]+)([^,]*)")


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


def _weigh(tiles: list, weights: dict) -> Iterator[tuple]:
    """The tiles without their weights, which go into ``weights`` by record."""
    r = 0  # the next record: a tile's leaf, then one vertex per ')' after it
    for before, label, after in tiles:
        closes = after.split(")")  # the leaf's weight, then each closed vertex's
        for weight in closes:
            if weight:
                weights[r] = parse_rational(weight[1:])
            r += 1
        yield before, label, closes[1:]


def _name_error(text: str) -> NoReturn:
    """Raises the first error in Newick text that the reader rejected.

    Reads one token at a time, so the error names its position.
    """
    open_kids: list[int] = []  # the finished children of each open interior vertex
    skip = _WS_RE.match
    pos = skip(text, 0).end()
    while True:
        # A subtree: any number of '(' and then a leaf label.
        while text.startswith("(", pos):
            open_kids.append(0)
            pos = skip(text, pos + 1).end()
        m = _LABEL_RE.match(text, pos)
        if m is None:
            raise NewickParseError(
                f"expected a leaf label or '(', found {_found(text, pos)}", text, pos
            )
        pos = skip(text, m.end()).end()
        # After a subtree: its weight, then ',' to a sibling or ')' to close
        # its parent, which is itself a finished subtree.
        while True:
            if text.startswith(":", pos):
                pos = skip(text, pos + 1).end()
                m = _RATIONAL_RE.match(text, pos)
                if m is None:
                    raise NewickParseError(
                        "expected a decimal or p/q weight after ':'", text, pos
                    )
                try:
                    parse_rational(m.group())
                except ValueError as exc:  # "1.5/2", "1/0"
                    raise NewickParseError(str(exc), text, pos) from None
                pos = skip(text, m.end()).end()
            if not open_kids:
                break
            open_kids[-1] += 1
            ch = text[pos : pos + 1]
            if ch == ",":
                pos = skip(text, pos + 1).end()
                break
            if open_kids[-1] == 1:
                raise NewickParseError(
                    "unary vertex: an interior vertex needs >= 2 children", text, pos
                )
            if ch != ")":
                raise NewickParseError(f"expected ')', found {_found(text, pos)}", text, pos)
            open_kids.pop()
            pos = skip(text, pos + 1).end()
        if not open_kids:
            break

    if not text.startswith(";", pos):
        raise NewickParseError(f"expected ';', found {_found(text, pos)}", text, pos)
    # a tree followed by ';' and whitespace reads, so something else follows
    raise NewickParseError("trailing characters after ';'", text, skip(text, pos + 1).end())


def parse_newick(text: str) -> tuple[XTree, EdgeWeighting | None]:
    """Parse Newick text into a tree and, if weights are given, its weighting.

    Raises :class:`NewickParseError` with line/column on syntax errors,
    unary vertices, duplicate labels, partially weighted input, or a weight
    on the root.  Text of any type but ``str`` raises ``TypeError``.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_newick takes str, not {type(text).__name__}")
    records, weights = None, {}
    if _TREE_RE.fullmatch(text):
        tiles = _TILE_RE.findall("".join(text.split())[:-1])
        try:
            records = _records(_weigh(tiles, weights) if ":" in text else tiles)
        except ValueError:  # a weight that does not read, such as "1/0" or "1:2"
            pass
    if records is None:
        _name_error(text)
    edges = len(records[0]) - 1  # every vertex but the root, which comes last, has a parent edge
    if edges in weights:
        raise NewickParseError("the root cannot carry a weight", text, 0)
    tree = XTree.__new__(XTree)
    try:
        vertex = tree._build(*records)
    except ValueError as exc:
        raise NewickParseError(str(exc), text, 0) from None

    if 0 < len(weights) < edges:
        raise NewickParseError(
            "either every edge carries a weight or none does", text, 0
        )
    if not weights:
        return tree, None
    from .heights import EdgeWeighting  # loaded only for weighted text

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
