"""Cords (unordered pairs of leaf labels) and their text file format.

A cord stands for one known pairwise distance.  Cords are normalized to
sorted 2-tuples; cord sets are frozensets of those.  The text format is one
cord per line, ``labelA labelB``, with an optional third column holding a
positive rational distance and ``#`` starting a comment.  A distance is
written as a Newick edge weight is: an integer, a decimal, or ``p/q``, in
ASCII digits.

Every consumer of cords checks them by the lookups that resolve them
(:func:`_by_lookup`), which has two callers: the one cord resolver,
:meth:`~treelasso.tree.XTree._cord_meets`, whose lookups are in the
tree's label index, and the weak and topological decisions' pass over the
rival table's index of normal cords.  Only when a lookup fails is the
input handed to :func:`validate_cords`, which normalizes cords and names
errors.  Two library callers hand it well-formed input too:
:func:`~treelasso.oracle.joint_isometry_system`, for the sorted cords, and
the weak and topological decisions above the oracle's six-leaf cap, so that
a bad cord is named before the cap is.  :mod:`fractions` is
imported inside the functions that read and write distances, so reading a
plain cord file does not load it.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Cord",
    "CordFileError",
    "all_cords",
    "cord",
    "cord_set",
    "format_cord_file",
    "read_cord_file",
]

Cord = tuple[str, str]
_T = TypeVar("_T")

# An exact rational as both input formats write it: an integer, a decimal,
# or p/q, in ASCII digits (``\d`` would take every Unicode decimal digit).
# The Newick tile pattern holds it too; empty alternatives run faster than '?'.
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+(?:/[0-9]+|)|)")


class CordFileError(ValueError):
    """Malformed cord / partial-distance file."""


def cord(a: str, b: str) -> Cord:
    """Normalize an unordered pair of distinct string labels to a sorted tuple."""
    if not (isinstance(a, str) and isinstance(b, str)):
        bad = b if isinstance(a, str) else a
        raise ValueError(f"a cord label must be a string, got {bad!r}")
    if a == b:
        raise ValueError(f"a cord needs two distinct labels, got {a!r} twice")
    return (a, b) if a < b else (b, a)


def cord_set(pairs: Iterable[tuple[str, str]]) -> frozenset[Cord]:
    """Normalize an iterable of label pairs into a cord set.

    An item that is not a pair of string labels raises ``ValueError``
    naming it.
    """
    out = set()
    for item in pairs:
        try:
            a, b = item
        except (TypeError, ValueError):
            a = b = None
        if not (isinstance(a, str) and isinstance(b, str)):
            raise ValueError(f"a cord is a pair of leaf labels, got {item!r}")
        out.add(cord(a, b))
    return frozenset(out)


def all_cords(labels: Iterable[str]) -> frozenset[Cord]:
    """Every 2-subset of the given label set."""
    return frozenset(combinations(sorted(set(labels)), 2))


def validate_cords(cords: Iterable[tuple[str, str]], labels: Iterable[str]) -> frozenset[Cord]:
    """Normalize ``cords`` and require every endpoint to belong to ``labels``."""
    known = labels if isinstance(labels, (set, frozenset)) else set(labels)
    out = cord_set(cords)
    for a, b in out:
        if a not in known or b not in known:
            missing = a if a not in known else b
            raise ValueError(f"cord label {missing!r} is not a leaf of this tree")
    return out


def _by_lookup(resolve: Callable[[Iterable], _T], cords: Iterable, labels: Iterable[str]) -> _T:
    """``resolve(cords)``, a pass whose lookups resolve each cord and are its check.

    When the pass raises ``KeyError``, ``TypeError`` or ``ValueError``, the
    input goes to :func:`validate_cords`, which raises its error or
    normalizes the input for a second pass; a one-shot iterable is read
    into a list first.
    """
    if not isinstance(cords, (frozenset, set, list, tuple)):
        cords = list(cords)
    try:
        return resolve(cords)
    except (KeyError, TypeError, ValueError):
        return resolve(validate_cords(cords, labels))


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational: an integer, a decimal, or ``p/q``, in ASCII digits.

    The text must match the Newick weight pattern, so both input formats
    read the same numbers: ``1_0``, ``1e3``, ``+1`` and ``.5`` are rejected.
    """
    # Not ``from fractions import Fraction``: that looks up
    # ``fractions.__path__`` and builds an error on every call, ten times
    # the cost of this statement.
    import fractions

    text = text.strip()
    if _RATIONAL_RE.fullmatch(text) is None:
        raise ValueError(f"not a rational number: {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/")
            return fractions.Fraction(int(num), int(den))
        return fractions.Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # "1.5/2", "1/0"
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Exact text form of a rational: ``p`` or ``p/q``."""
    import fractions

    return str(fractions.Fraction(value))


def read_cord_file(text: str) -> tuple[frozenset[Cord], dict[Cord, Fraction] | None]:
    """Parse cord-file text into (cords, distances).

    ``distances`` is None when no line carries a third column; a file must
    either give a distance on every cord line or on none.

    A file of two-column lines is read in one bulk pass: every nonblank
    line is normalized in one set comprehension, and the file is good when
    the set holds one distinct cord per nonblank line.  The line-by-line
    loop runs only to read a distance column, or to find and name the first
    bad line.  Text of any type but ``str`` raises ``TypeError``.
    """
    if not isinstance(text, str):
        raise TypeError(f"read_cord_file takes str, not {type(text).__name__}")
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    try:
        # A self-pair normalizes to None.  The pairs are not kept as a list:
        # a list per line costs memory, and cyclic-GC passes, at 10^5 lines.
        cords = {
            (a, b) if a < b else (b, a) if b < a else None
            for a, b in filter(None, map(str.split, lines))
        }
    except ValueError:  # a line of other than two columns
        pass
    else:
        # Counting every nonempty line as a cord line can only overcount: a
        # blank line of spaces, or a duplicate in either order, leaves the
        # set smaller, and the loop below sorts it out.
        if None not in cords and len(cords) == len(lines) - lines.count(""):
            del lines  # before the copy, which would otherwise raise the peak
            return frozenset(cords), None
    return _read_cord_lines(lines)


def _read_cord_lines(lines: list[str]) -> tuple[frozenset[Cord], dict[Cord, Fraction] | None]:
    """The line-by-line reader, for comment-free lines: distances, and errors by line."""
    cords: set[Cord] = set()
    distances: dict[Cord, Fraction] = {}
    saw_bare = False
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) not in (2, 3):
            raise CordFileError(f"line {lineno}: expected 2 or 3 columns, got {len(fields)}")
        try:
            c = cord(fields[0], fields[1])
        except ValueError as exc:
            raise CordFileError(f"line {lineno}: {exc}") from None
        if c in cords:
            raise CordFileError(f"line {lineno}: duplicate cord {c[0]} {c[1]}")
        cords.add(c)
        if len(fields) == 3:
            try:
                d = parse_rational(fields[2])
            except ValueError as exc:
                raise CordFileError(f"line {lineno}: {exc}") from None
            if d <= 0:
                raise CordFileError(f"line {lineno}: distance must be positive, got {d}")
            distances[c] = d
        else:
            saw_bare = True
    if distances and saw_bare:
        raise CordFileError("mixed lines: distances must appear on every cord or on none")
    return frozenset(cords), (distances if distances else None)


def format_cord_file(
    cords: Iterable[Cord], distances: dict[Cord, Fraction] | None = None
) -> str:
    """Render a cord set (optionally with distances) in the text format.

    ``distances`` is keyed by normalized cords and gives each cord a
    positive exact distance, anything ``Fraction`` reads but a float, so
    that :func:`read_cord_file` reads the text back; a ``TypeError`` or
    ``ValueError`` names a cord whose distance is not one.  A label holding
    ``#`` or whitespace would be read back as a comment or as more columns,
    so it raises ``ValueError`` naming the label.
    """
    if distances is not None:
        import fractions
    lines = []
    for a, b in sorted(cord_set(cords)):
        for label in (a, b):
            if "#" in label or label.split() != [label]:
                raise ValueError(f"label {label!r} cannot be written: it holds '#' or whitespace")
        if distances is None:
            lines.append(f"{a} {b}")
            continue
        d = distances.get((a, b))
        if d is None:
            raise ValueError(f"cord {a} {b} has no distance")
        if isinstance(d, float):
            raise TypeError(f"the distance of cord {a} {b} must be exact, not the float {d!r}")
        try:
            d = fractions.Fraction(d)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"the distance of cord {a} {b} is not a rational: {d!r}") from None
        if d <= 0:
            raise ValueError(f"the distance of cord {a} {b} must be positive, got {d}")
        lines.append(f"{a} {b} {d}")
    return "\n".join(lines) + ("\n" if lines else "")
