"""Newick parsing/printing and the cord file format."""

import random
from fractions import Fraction

import pytest

from conftest import LABELS5, random_shape
from treelasso import (
    HeightMap,
    NegativeWeightError,
    NewickParseError,
    XTree,
    cord_set,
    enumerate_xtrees,
    format_cord_file,
    parse_newick,
    print_newick,
    random_proper_heights,
    read_cord_file,
)
from treelasso.cords import CordFileError


def test_parse_caterpillar():
    tree, weights = parse_newick("(((a,b),c),d);")
    assert tree == XTree(((("a", "b"), "c"), "d"))
    assert weights is None


def test_parse_weighted_tree():
    tree, weights = parse_newick("((a:1,b:1):2,c:3);")
    assert weights is not None
    heights = HeightMap.from_edge_weights(weights)
    assert heights.heights == {tree.root: Fraction(3), tree.lca("a", "b"): Fraction(1)}


def test_parse_rational_and_decimal_weights_exactly():
    _, weights = parse_newick("((a:1/3,b:1/3):0.5,c:5/6);")
    values = sorted(weights.by_child.values())
    assert values == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)]


def test_unary_vertex_rejected():
    with pytest.raises(NewickParseError) as err:
        parse_newick("((a));")
    assert "unary" in str(err.value)


def test_syntax_errors_carry_positions():
    with pytest.raises(NewickParseError) as err:
        parse_newick("((a,b)\n,c;")
    assert err.value.line == 2
    with pytest.raises(NewickParseError):
        parse_newick("(a,b)")  # missing semicolon
    with pytest.raises(NewickParseError):
        parse_newick("(a,b); junk")
    with pytest.raises(NewickParseError):
        parse_newick("(a,:1);")


def test_duplicate_label_rejected():
    with pytest.raises(NewickParseError):
        parse_newick("(a,a);")


def test_root_weight_rejected():
    with pytest.raises(NewickParseError):
        parse_newick("(a,b):1;")


def test_partial_weights_rejected():
    with pytest.raises(NewickParseError):
        parse_newick("((a:1,b),c);")


def test_negative_weights_parse_but_fail_validation():
    _, weights = parse_newick("((a:-1,b:-1):2,c:1);")
    with pytest.raises(NegativeWeightError):
        HeightMap.from_edge_weights(weights)


def test_single_leaf_and_two_leaves():
    tree, _ = parse_newick("a;")
    assert tree.n_vertices == 1 and tree.leaf_labels == frozenset("a")
    tree2, _ = parse_newick("(a,b);")
    assert tree2 == XTree(("a", "b"))


def test_round_trip_all_five_leaf_trees():
    for t in enumerate_xtrees(LABELS5):
        printed = print_newick(t)
        assert printed == t.canonical_newick()
        reparsed, weights = parse_newick(printed)
        assert reparsed == t and weights is None


def test_weighted_round_trip_preserves_rationals():
    for i, t in enumerate(enumerate_xtrees(LABELS5)[::29]):
        hm = random_proper_heights(t, 400 + i)
        text = print_newick(t, hm.to_edge_weights())
        tree2, weights2 = parse_newick(text)
        assert tree2 == t
        assert HeightMap.from_edge_weights(weights2) == hm


def test_weights_land_on_the_vertex_with_the_same_leaf_set():
    # Distinct weights (7k+1)/7, which never reduce, so each ":p/7" occurs
    # once in the text; children are shuffled out of canonical order, so a
    # weight on the wrong vertex cannot go unnoticed.
    rng = random.Random(3)
    expected: dict[frozenset[str], Fraction] = {}

    def render(node) -> tuple[str, frozenset[str]]:
        if isinstance(node, str):
            return node, frozenset((node,))
        parts = []
        leaves: frozenset[str] = frozenset()
        for child in rng.sample(node, len(node)):
            body, below = render(child)
            weight = Fraction(7 * len(expected) + 1, 7)
            expected[below] = weight
            parts.append(f"{body}:{weight}")
            leaves |= below
        return "(" + ",".join(parts) + ")", leaves

    text = render(random_shape(300, 3, prefix="w"))[0] + ";"
    tree, weighting = parse_newick(text)
    assert len(expected) == tree.n_vertices - 1
    for v in tree.vertices():
        if v != tree.root:
            assert weighting.by_child[v] == expected[tree.leaves_below(v)]

    for leaves in (frozenset(("w7",)), max(expected, key=len)):
        partial = text.replace(f":{expected[leaves]}", "", 1)
        with pytest.raises(NewickParseError, match="either every edge carries a weight"):
            parse_newick(partial)


def test_print_weighting_must_match_tree():
    t1, w1 = parse_newick("((a:1,b:1):1,c:2);")
    other = XTree((("a", "c"), "b"))
    with pytest.raises(ValueError):
        print_newick(other, w1)


def test_cord_file_round_trip():
    cords = cord_set([("a", "b"), ("c", "d"), ("a", "c")])
    text = format_cord_file(cords)
    parsed, distances = read_cord_file(text)
    assert parsed == cords and distances is None


def test_cord_file_comments_and_blank_lines():
    parsed, _ = read_cord_file("# heading\n\na b  # trailing\nc d\n")
    assert parsed == cord_set([("a", "b"), ("c", "d")])


def test_cord_file_with_distances():
    text = "a b 2\nc d 5/2\n"
    parsed, distances = read_cord_file(text)
    assert distances == {("a", "b"): Fraction(2), ("c", "d"): Fraction(5, 2)}
    assert format_cord_file(parsed, distances) == text


def test_cord_file_errors():
    with pytest.raises(CordFileError):
        read_cord_file("a b\na b\n")  # duplicate
    with pytest.raises(CordFileError):
        read_cord_file("a\n")  # wrong column count
    with pytest.raises(CordFileError):
        read_cord_file("a a\n")  # not a cord
    with pytest.raises(CordFileError):
        read_cord_file("a b x\n")  # bad rational
    with pytest.raises(CordFileError):
        read_cord_file("a b 0\n")  # distance must be positive
    with pytest.raises(CordFileError):
        read_cord_file("a b 1\nc d\n")  # mixed distance columns
