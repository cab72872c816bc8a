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

One pattern reads the text, whitespace and all, as the tiles of its leaves:
each leaf with the ``(`` before it and the ``)`` and weights after it.  The
tiles, without their whitespace and weights, go straight into the tree's one
construction path, which tells each record's vertex, so every weight lands on
its vertex.  Rejected text is read again with the same pattern and the
reader's state, which names its first error with the position.  A label is a
maximal run of characters that are neither whitespace nor one of ``(),:;``,
exactly what :class:`~treelasso.tree.XTree` accepts, so parsed labels are not
checked again.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import TYPE_CHECKING, NoReturn

from .cords import _RATIONAL_RE, parse_rational
from .tree import _LABEL_RE, XTree, _records

if TYPE_CHECKING:
    from .heights import EdgeWeighting

__all__ = ["NewickParseError", "parse_newick", "print_newick"]

# A tree is a comma-separated run of tiles, one per leaf: the '(' before its
# label, the ')' and weights after it, the whitespace among them, and ',' or,
# in the last tile, ';'.  A tile starts only at the start or after ',' and
# ends where the grammar does, so a gap between matches, or text that does not
# end in ';', is a syntax error at the end of a match.  re's \s is
# str.isspace(), which str.split() uses (the tests check).
_TILE_RE = re.compile(
    rf"(?<![^,])\s*([\s(]*)({_LABEL_RE.pattern})"
    rf"([\s)]*(?::\s*{_RATIONAL_RE.pattern}[\s)]*)*)(?:,|;\s*\Z|)"
)

# A str.translate table that keeps '(', ')' and ',': every other character,
# such as whitespace or a weight's, maps to None, which drops it.
_PARENS = defaultdict(type(None), {ord(c): c for c in "(),"})


class NewickParseError(ValueError):
    """Syntax or structural error in Newick text, with position information."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        line = text.count("\n", 0, pos) + 1
        column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _name_first_error(text: str) -> NoReturn:
    """Raises the first error in Newick text that the reader rejected.

    Reads the pattern's matches again, keeping the finished children of each
    open vertex, up to the first gap between them or the first ``)``, ``,``,
    ``;`` or weight in them that this state rejects.
    """
    kids: list[int] = []  # the finished children of each open vertex

    def fail(pos: int, weighed: bool = True) -> NoReturn:  # pos follows a finished subtree
        ch, after = text[pos : pos + 1], len(text) - len(text[pos + 1 :].lstrip())
        if ch == ":" and not weighed:
            raise NewickParseError("expected a decimal or p/q weight after ':'", text, after)
        if ch == ";" and not kids:
            raise NewickParseError("trailing characters after ';'", text, after)
        if kids and kids[-1] == 1:
            raise NewickParseError(
                "unary vertex: an interior vertex needs >= 2 children", text, pos
            )
        found = repr(ch or "end of input")
        raise NewickParseError(f"expected {')' if kids else ';'!r}, found {found}", text, pos)

    end = 0
    for m in _TILE_RE.finditer(text):
        if m.start() != end:
            break
        kids += [0] * m[1].count("(")
        pos = m.start(3)
        for i, piece in enumerate(m[3].split(")")):  # the leaf's weight, then each vertex's
            if i:  # a ')' closes the innermost open vertex
                if not kids or kids[-1] == 1:
                    fail(pos)
                kids.pop()
                pos += 1
            if kids:  # the subtree before the piece is a finished child
                kids[-1] += 1
            if ":" in piece:
                lead, weight, *more = piece.split(":")
                at = pos + len(lead) + 1 + len(weight)  # where the weight ends
                try:
                    parse_rational(weight)
                except ValueError as exc:  # "1.5/2", "1/0"
                    raise NewickParseError(str(exc), text, at - len(weight.lstrip())) from None
                if more:  # a second weight
                    fail(at)
            pos += len(piece)
        end = m.end()
        if end == pos or (text[pos] == ",") != bool(kids):  # no ',' or ';', or the wrong one
            fail(pos, ":" in piece)
    while text[end : end + 1] == "(" or text[end : end + 1].isspace():
        end += 1
    found = repr(text[end : end + 1] or "end of input")
    raise NewickParseError(f"expected a leaf label or '(', found {found}", text, end)


def parse_newick(text: str) -> tuple[XTree, EdgeWeighting | None]:
    """Parse Newick text into a tree and, if weights are given, its weighting.

    Raises :class:`NewickParseError` with line/column on syntax errors,
    unary vertices, duplicate labels, partially weighted input, or a weight
    on the root.  Text of any type but ``str`` raises ``TypeError``.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_newick takes str, not {type(text).__name__}")
    records, weights = None, {}
    parts = _TILE_RE.split(text)  # each gap before a tile, then its three groups
    if not any(parts[::4]) and text.rstrip().endswith(";"):
        befores, labels, afters = parts[1::4], parts[2::4], parts[3::4]
        try:
            if ":" in text:  # joined by ')', the after groups split into one slot per record
                slots = ")".join(afters).split(")")
                weights = {
                    r: parse_rational(w.lstrip()[1:]) for r, w in enumerate(slots) if w.strip()
                }
            if ":" in text or len(text.split(None, 1)) > 1:
                # the records take the parentheses alone: a column at a time, joined
                # by ',', which no group holds
                befores, afters = (
                    ",".join(g).translate(_PARENS).split(",") for g in (befores, afters)
                )
            records = _records(zip(befores, labels, afters))
        except ValueError:  # a weight that does not read, such as "1/0" or "1:2"
            pass
    if records is None:
        _name_first_error(text)
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

    vlabel, children = tree._vlabel, tree._children
    parts: list[str] = []
    stack: list[int | str] = [tree.root]  # vertices still to print, and closing text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        suffix = ""
        if weighting is not None and item != tree.root:
            suffix = ":" + str(weighting.by_child[item])
        if vlabel[item] is not None:
            parts.append(vlabel[item] + suffix)
            continue
        parts.append("(")
        stack.append(")" + suffix)
        kids = children[item]
        for child in reversed(kids[1:]):
            stack += (child, ",")
        stack.append(kids[0])
    return "".join(parts) + ";"
