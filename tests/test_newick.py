"""Newick parsing/printing and the cord file format."""

import random
import re
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


# Bad texts with the exact error each raises: (text, line, column, message).
BAD_TEXTS = [
    ('((a,b)\n,c;', 2, 3, "expected ')', found ';'"),
    ('(a,b)', 1, 6, "expected ';', found 'end of input'"),
    ('(a,b); junk', 1, 8, "trailing characters after ';'"),
    ('(a,:1);', 1, 4, "expected a leaf label or '(', found ':'"),
    ('', 1, 1, "expected a leaf label or '(', found 'end of input'"),
    ('(', 1, 2, "expected a leaf label or '(', found 'end of input'"),
    ('(a,b', 1, 5, "expected ')', found 'end of input'"),
    ('(a b);', 1, 4, 'unary vertex: an interior vertex needs >= 2 children'),
    ('(a,b,);', 1, 6, "expected a leaf label or '(', found ')'"),
    ('(a,b)c;', 1, 6, "expected ';', found 'c'"),
    ('(a,b);;', 1, 7, "trailing characters after ';'"),
    ('(a:1,b:1):;', 1, 11, "expected a decimal or p/q weight after ':'"),
    ('((a,b),c:x);', 1, 10, "expected a decimal or p/q weight after ':'"),
    (')a;', 1, 1, "expected a leaf label or '(', found ')'"),
    ('((a));', 1, 4, 'unary vertex: an interior vertex needs >= 2 children'),
    ('(a,a);', 1, 1, "duplicate leaf label 'a'"),
    ('(a,b):1;', 1, 1, 'the root cannot carry a weight'),
    ('((a:1,b),c);', 1, 1, 'either every edge carries a weight or none does'),
    ('   \n  ', 2, 3, "expected a leaf label or '(', found 'end of input'"),
    (';', 1, 1, "expected a leaf label or '(', found ';'"),
    ('a', 1, 2, "expected ';', found 'end of input'"),
    ('(a,b);\n\n  x', 3, 3, "trailing characters after ';'"),
    ('(a,(b,c)d);', 1, 9, "expected ')', found 'd'"),
    ('(a,b:);', 1, 6, "expected a decimal or p/q weight after ':'"),
    ('(a,b:1/);', 1, 7, "expected ')', found '/'"),
    ('(a,b:.5);', 1, 6, "expected a decimal or p/q weight after ':'"),
    ('(a:1,(b:1,c:1));', 1, 1, 'either every edge carries a weight or none does'),
    ('(a,b),c);', 1, 6, "expected ';', found ','"),
    ('((a,b),(a,c));', 1, 1, "duplicate leaf label 'a'"),
    ('(a,\tb)\t;x', 1, 9, "trailing characters after ';'"),
    ('(a,b\u2003c);', 1, 6, "expected ')', found 'c'"),
    ('((a,b)', 1, 7, 'unary vertex: an interior vertex needs >= 2 children'),
    ('(a)\n;', 1, 3, 'unary vertex: an interior vertex needs >= 2 children'),
    ('a:1;', 1, 1, 'the root cannot carry a weight'),
    ('(a,b,c):0;', 1, 1, 'the root cannot carry a weight'),
    ('(a,b;', 1, 5, "expected ')', found ';'"),
    ('(a:1,a);', 1, 1, "duplicate leaf label 'a'"),
    ('(a,a):1;', 1, 1, 'the root cannot carry a weight'),
    ('(a,  );', 1, 6, "expected a leaf label or '(', found ')'"),
    ('(a,b)\n  :\n 1 ;', 1, 1, 'the root cannot carry a weight'),
    ('((a,b),\n(c,\n\n d e));', 4, 4, "expected ')', found 'e'"),
    ('(a:1:2,b:1);', 1, 5, 'unary vertex: an interior vertex needs >= 2 children'),
    ('(a:-,b:1);', 1, 4, "expected a decimal or p/q weight after ':'"),
    ('((a,b):1,c):1/2;', 1, 1, 'the root cannot carry a weight'),
    ('(,a);', 1, 2, "expected a leaf label or '(', found ','"),
    ('(a,b)\u2003\u2003;\u2003!', 1, 10, "trailing characters after ';'"),
    ('(a:1 ,b:1 ) ;  ;', 1, 16, "trailing characters after ';'"),
    # the weight pattern takes these whole, but they name no rational
    ('(a:1.5/2,b:1);', 1, 4, "not a rational number: '1.5/2'"),
    ('(a:1/0,b:1);', 1, 4, "not a rational number: '1/0'"),
    ('(a:1,\n b: 3/0);', 2, 5, "not a rational number: '3/0'"),
]


def test_error_corpus_keeps_messages_and_positions():
    assert len(BAD_TEXTS) >= 25
    for text, line, column, message in BAD_TEXTS:
        with pytest.raises(NewickParseError) as err:
            parse_newick(text)
        assert str(err.value) == f"line {line}, column {column}: {message}", text
        assert (err.value.line, err.value.column) == (line, column), text


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


def read_nested(text: str):
    """An independent reader of well-formed Newick text.

    Returns the nested-list shape, its canonical text (children sorted by
    their own canonical text), and each edge weight keyed by the leaf set
    below the edge.
    """
    tokens = [t for t in (p.strip() for p in re.split(r"([(),:;])", text)) if t]
    open_nodes: list = [([], [], set())]  # children, their keys, leaves; the bottom holds the root
    weights: dict[frozenset[str], Fraction] = {}
    done = None  # the subtree finished last: (shape, key, leaves)
    tokens_left = iter(tokens)
    for tok in tokens_left:
        if tok == "(":
            open_nodes.append(([], [], set()))
        elif tok == ":":
            weights[done[2]] = Fraction(next(tokens_left))
        elif tok in ",);":
            if done is not None:
                shapes, keys, leaves = open_nodes[-1]
                shapes.append(done[0])
                keys.append(done[1])
                leaves |= done[2]
                done = None
            if tok == ")":
                shapes, keys, leaves = open_nodes.pop()
                done = (shapes, "(" + ",".join(sorted(keys)) + ")", frozenset(leaves))
        else:
            done = (tok, tok, frozenset((tok,)))
    ([shape], [key], _) = open_nodes[0]
    return shape, key + ";", weights


def render(shape, rng, gaps: str = "", weigh=None, name=str) -> str:
    """Newick text of a shape with shuffled children, labels ``name(label)``,
    1-2 characters of ``gaps`` between every two tokens, and an edge weight
    ``weigh(rng)`` on every edge (none if ``weigh`` is None)."""

    def gap() -> str:
        return "".join(rng.choices(gaps, k=rng.randint(1, 2))) if gaps else ""

    out = [gap()]
    todo: list = [(shape, "")]  # (subtree or None, text after it)
    while todo:
        node, after = todo.pop()
        if node is not None:
            suffix = "" if weigh is None or node is shape else gap() + ":" + gap() + weigh(rng)
            if isinstance(node, str):
                out.append(name(node) + suffix + gap())
                todo.append((None, after))
                continue
            kids = list(node)
            rng.shuffle(kids)
            out.append("(" + gap())
            todo.append((None, ")" + suffix + gap() + after))
            for i, kid in enumerate(reversed(kids)):
                todo.append((kid, "," + gap() if i else ""))
        else:
            out.append(after)
    return "".join(out) + ";" + gap()


def assert_parse_matches_reader(text: str) -> None:
    shape, key, weights = read_nested(text)
    expected = XTree(shape)
    tree, weighting = parse_newick(text)
    assert tree.canonical_newick() == expected.canonical_newick() == key
    assert tree._parent == expected._parent
    assert tree._children == expected._children
    assert tree._vlabel == expected._vlabel
    assert tree._last == expected._last
    if not weights:
        assert weighting is None
    else:
        assert {tree.leaves_below(v): w for v, w in weighting.by_child.items()} == weights


GAPS = " \t\n\u2003"  # whitespace the parser must skip, em space included


def test_parse_matches_an_independent_reader():
    def ratio(rng):
        return f"{rng.randint(-3, 99)}/{rng.randint(1, 9)}"

    def decimal(rng):
        return f"{rng.randint(0, 9)}.{rng.randint(0, 999):03d}"

    def punctuated(label):
        # Labels that start with '!' to "'" sort before '(' and so before
        # every interior sibling's key.
        return "!\"#$%&'"[int(label[1:]) % 7] + label

    for seed in range(12):
        rng = random.Random(seed)
        shape = random_shape(40 + 30 * seed, seed, binary=seed % 3 == 0)
        gaps = GAPS if seed % 2 else ""
        weigh = (None, ratio, decimal)[seed % 3]
        name = punctuated if seed % 4 < 2 else str
        assert_parse_matches_reader(render(shape, rng, gaps, weigh, name))

    rng = random.Random(99)
    for depth in (1, 2, 200, 2000):
        caterpillar: object = "c0"
        for i in range(1, depth + 1):
            caterpillar = (caterpillar, f"c{i}")
        assert_parse_matches_reader(render(caterpillar, rng))
        assert_parse_matches_reader(render(caterpillar, rng, GAPS, ratio, punctuated))


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
