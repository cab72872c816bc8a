"""Newick parsing/printing and the cord file format."""

import hashlib
import random
import re
import sys
from fractions import Fraction

import pytest

from conftest import (
    CORD_CORPUS,
    LABELS5,
    outcome,
    random_proper_heights,
    random_shape,
    reference_read_cord_file,
)
from treelasso import (
    HeightMap,
    NewickParseError,
    XTree,
    classify,
    cord_set,
    enumerate_xtrees,
    format_cord_file,
    oracle_equidistant,
    oracle_weak,
    parse_newick,
    print_newick,
    read_cord_file,
    WeightingError,
)
from treelasso.cords import CordFileError, cord, validate_cords


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
    with pytest.raises(WeightingError, match="^edge into vertex .* has weight -1"):
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


def test_cord_file_labels_read_back_or_raise():
    # a label holding '#' or whitespace would come back as a comment or as
    # more columns, so the writer names it instead of writing it
    for label in ("#x", "a#1", "a b", "a\tb", "x\n"):
        for distances in (None, {tuple(sorted((label, "c"))): 1}):
            with pytest.raises(ValueError, match=re.escape(f"label {label!r} cannot be written")):
                format_cord_file([(label, "c")], distances)
    cords = cord_set([("a-1", "b.2"), ("b.2", "x'")])
    assert read_cord_file(format_cord_file(cords)) == (cords, None)


def test_cord_file_comments_and_blank_lines():
    parsed, _ = read_cord_file("# heading\n\na b  # trailing\nc d\n")
    assert parsed == cord_set([("a", "b"), ("c", "d")])


def test_cord_file_with_distances():
    text = "a b 2\nc d 5/2\n"
    parsed, distances = read_cord_file(text)
    assert distances == {("a", "b"): Fraction(2), ("c", "d"): Fraction(5, 2)}
    assert format_cord_file(parsed, distances) == text


def test_cord_file_distances_round_trip_or_raise():
    # every distance the writer accepts reads back unchanged; a float, a
    # missing distance or a nonpositive one raises, naming the cord, rather
    # than writing a file the reader rejects or an inexact value
    cords = cord_set([("a", "b"), ("c", "d")])
    for d in (Fraction(1, 10), 3, Fraction(7), "1/2"):
        distances = {("a", "b"): d, ("c", "d"): Fraction(5, 2)}
        read = {("a", "b"): Fraction(d), ("c", "d"): Fraction(5, 2)}
        assert read_cord_file(format_cord_file(cords, distances)) == (cords, read)
    for bad, message in (
        ({("a", "b"): 0.1, ("c", "d"): 1}, "cord a b must be exact, not the float 0.1"),
        ({("a", "b"): 1, ("c", "d"): [1]}, r"cord c d is not a rational: \[1\]"),
    ):
        with pytest.raises(TypeError, match=message):
            format_cord_file(cords, bad)
    for bad, message in (
        ({("a", "b"): 1}, "cord c d has no distance"),
        ({("a", "b"): 1, ("c", "d"): 0}, "cord c d must be positive, got 0"),
        ({("a", "b"): Fraction(-1, 2), ("c", "d"): 1}, "cord a b must be positive, got -1/2"),
        ({("a", "b"): "-1/2", ("c", "d"): 1}, "cord a b must be positive, got -1/2"),
        ({("a", "b"): "x", ("c", "d"): 1}, "cord a b is not a rational: 'x'"),
    ):
        with pytest.raises(ValueError, match=message):
            format_cord_file(cords, bad)


@pytest.mark.parametrize(
    "reader, text",
    [(parse_newick, b"(a,b);"), (parse_newick, None), (read_cord_file, b"a b"), (read_cord_file, None)],
    ids=["newick-bytes", "newick-None", "cords-bytes", "cords-None"],
)
def test_readers_take_only_str(reader, text):
    # one TypeError naming the reader and the type, before any reading
    message = rf"^{reader.__name__} takes str, not {type(text).__name__}$"
    with pytest.raises(TypeError, match=message):
        reader(text)


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


def _big_cord_file(seed: int, count: int) -> str:
    """A seeded file of ``count`` distinct cords, each written in either order."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(400)]
    seen: set = set()
    lines = []
    while len(seen) < count:
        a, b = rng.sample(labels, 2)
        if (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            lines.append(a + rng.choice(" \t") + b)
    return "\n".join(lines) + "\n"


CORD_FILE_TEXTS = [
    "",
    "\n\n  \n",
    "a b\n \t\nc d\n",  # a line of blanks among cord lines
    "# only a comment\n",
    "a b\r\nc d\r\n",
    "a\tb\n\tc   d  \n",
    "a b\x0bc d\x0ce f\u2028g h\u2029i j\x85k l\x1cm n\r",
    "a b\x1fc\n",  # \x1f is whitespace but no line break: three columns
    "a\xa0b\n",
    "# heading\n\na b  # trailing\nc d\n#e f\n",
    "a#b c\n",
    "a b\nb a\n",
    "a b\nc d\na b\n",
    "a a\n",
    "a b\n\nb b\n",
    "a\n",
    "a b c d\n",
    "a b\nc d e f\n",
    "a b 1\nc d 5/2\n",
    "a b 1\nc d 0.5\ne f 2/4\n",
    "a b 1\nc d\n",
    "a b\nc d 1\n",
    "a b 1\nc d\ne\n",  # a bad line is named before the mixed columns
    "a b 1\nb a 2\n",
    "a b x\n",
    "a b 0\n",
    "a b -1\n",
    "a b 1/0\n",
    "a b 1\nc c 1\n",
    "b a\nc d\na b 1\n",
    "é ü\nü é\n",
    _big_cord_file(7, 10_000),
    _big_cord_file(8, 10_000) + "x1 x1\n",
]


@pytest.mark.parametrize("text", CORD_FILE_TEXTS, ids=range(len(CORD_FILE_TEXTS)))
def test_bulk_cord_reader_matches_the_line_by_line_reader(text):
    got = outcome(read_cord_file, text)
    assert got == outcome(reference_read_cord_file, text)
    if got[0] == "ok":
        assert all(type(c) is tuple and c[0] < c[1] for c in got[1][0])


# Every string here is one number token: each input format must accept it
# or reject it alike, and read the same value from it.
NUMBERS = [
    "1", "10", "007", "0.5", "2.50", "1/3", "6/4", "12.125",
    "1_0", "1e3", "1E3", "+1", ".5", "5.", "1.5/2", "1/0", "0x10", "inf",
    "nan", "1/-2", "1//2", "½", "1.2.3", "--1", "1/2/3",
    "\u0661", "\u0663/\u0664", "\uff11",  # non-ASCII decimal digits
]


@pytest.mark.parametrize("number", NUMBERS)
def test_one_number_grammar_for_newick_weights_and_cord_distances(number):
    try:
        _, weights = parse_newick(f"(a:{number},b:{number});")
        weight = weights.by_child[1]
    except NewickParseError:
        weight = None
    try:
        _, distances = read_cord_file(f"a b {number}\n")
        distance = distances[("a", "b")]
    except CordFileError:
        distance = None
    assert weight == distance
    assert (weight is None) == (number not in NUMBERS[:8])


def _normalizing_validate(cords, labels):
    """``validate_cords`` spelled out: normalize every cord, then check its ends."""
    known = set(labels)
    out = cord_set(cords)
    for a, b in out:
        if a not in known or b not in known:
            missing = a if a not in known else b
            raise ValueError(f"cord label {missing!r} is not a leaf of this tree")
    return out


def test_validate_cords_passes_normal_sets_through_and_keeps_every_error():
    labels = frozenset("abcd")
    normal = cord_set([("a", "b"), ("c", "d"), ("a", "d")])
    assert validate_cords(frozenset(), labels) == frozenset()
    for cords in (normal, *CORD_CORPUS):
        for known in (labels, set(labels), "abcd", ["a", "b", "c", "d"]):
            try:
                expected = ("ok", _normalizing_validate(cords, known))
            except Exception as exc:  # the exception type and message are the contract
                expected = (type(exc), str(exc))
            try:
                got = ("ok", validate_cords(cords, known))
            except Exception as exc:
                got = (type(exc), str(exc))
            assert got == expected, cords
            if got[0] == "ok":
                assert all(type(c) is tuple for c in got[1])


@pytest.mark.parametrize(
    "cords, item",
    [
        ("ab", "'a'"),  # a string is an iterable of one-letter items
        ([("a", "b", "c")], "('a', 'b', 'c')"),
        ([("a",)], "('a',)"),
        ([("a", 1)], "('a', 1)"),
        ([("a", "b"), 5], "5"),
        ([(1, 2)], "(1, 2)"),
    ],
)
def test_malformed_cords_name_the_offending_item(cords, item):
    t = XTree(((("a", "b"), "c"), "d"))
    for decide in (classify, oracle_weak, oracle_equidistant):
        with pytest.raises(ValueError) as raised:
            decide(t, cords)
        assert str(raised.value) == f"a cord is a pair of leaf labels, got {item}"
    with pytest.raises(ValueError, match="two distinct labels"):
        classify(t, [("a", "a")])


@pytest.mark.parametrize(
    "a, b, label", [(1, 2, "1"), ("a", 1, "1"), (None, "a", "None"), (b"a", "b", "b'a'"), (3, 3, "3")]
)
def test_cord_rejects_a_label_that_is_not_a_string(a, b, label):
    with pytest.raises(ValueError) as raised:
        cord(a, b)
    assert str(raised.value) == f"a cord label must be a string, got {label}"


def _tree_fields(tree: XTree, weighting) -> tuple:
    """Every internal array and key of a parsed tree, and its weights by vertex."""
    weights = None if weighting is None else sorted(weighting.by_child.items())
    return (
        tree._key, tree._parent, tree._children, tree._vlabel, list(tree._leaf_id.items()),
        tree._depth, sorted(tree._leaf_labels), tree._last, tree._heavy, tree._head, weights,
    )


def _reader_corpora() -> tuple[list[str], list[str]]:
    """Two seeded corpora of Newick text: valid texts, and mutations of small ones.

    The valid texts are random multifurcating trees, caterpillars to depth
    2000 and bearded caterpillars, each compact, with whitespace between
    tokens, with ratio or decimal weights, and with labels that start with
    '!' to "'"; every child order is shuffled.
    """
    def ratio(rng):
        return f"{rng.randint(1, 99)}/{rng.randint(1, 9)}"

    def decimal(rng):
        return f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}"

    def punctuated(label):
        return "!\"#$%&'"[sum(map(ord, label)) % 7] + label

    shapes: list = [random_shape(n, seed) for seed, n in enumerate((3, 8, 60, 500, 500, 440))]
    shapes += [random_shape(300, 9, binary=True)]
    for depth, beard in ((1, 1), (2, 1), (40, 2), (225, 1), (2000, 1)):
        shape: object = "c0"
        for i in range(depth):
            shape = (shape, *(f"c{i}_{j}" for j in range(beard)))
        shapes.append(shape)
    rng = random.Random(35)
    valid = []
    for shape in shapes:
        for gaps, weigh, name in (
            ("", None, str), (GAPS, None, str), ("", ratio, str), (" \n", decimal, punctuated),
            ("", None, punctuated),
        ):
            valid.append(render(shape, rng, gaps, weigh, name))
    alphabet = "(),:;ab1/.- \n !'"
    mutated = []
    for i in range(1500):
        shape = random_shape(rng.randint(1, 9), i) if i % 5 else "a"
        text = render(shape, rng, rng.choice(("", " \n")), rng.choice((None, ratio)))
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:at] + text[at + 1 :]
            elif edit == 1:
                text = text[:at] + rng.choice(alphabet) + text[at:]
            else:
                text = text[:at] + rng.choice(alphabet) + text[at + 1 :]
        mutated.append(text)
    return valid, mutated


# sha256 over the parsed fields of the valid corpus and the outcome of every
# mutated text, as the reader gave them when this digest was recorded.
READER_CORPUS_SHA256 = "3e8b346720be330d276c51030f0e2c5062b811b564fe4e3ba62a595a690566cf"


def test_reader_keeps_every_tree_and_error_of_a_seeded_corpus():
    valid, mutated = _reader_corpora()
    rows: list = [_tree_fields(*parse_newick(text)) for text in valid]
    for text in mutated:
        try:
            rows.append(_tree_fields(*parse_newick(text)))
        except Exception as exc:  # the exception type and message are the contract
            rows.append((type(exc).__name__, str(exc)))
    assert sum(len(row) == 2 for row in rows) > 1000  # most mutations are errors
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == READER_CORPUS_SHA256


def _whitespace_texts(w: str) -> list[str]:
    """Valid and rejected Newick texts with ``w`` between tokens, around
    ':' weights, after ';', and where a missing token is the error."""
    return [
        f"{w}({w}({w}a{w},{w}b{w}){w},{w}c{w}){w};{w}",
        f"((a{w}:{w}1/3{w},b:{w}1/3){w}:{w}0.5{w},{w}c{w}:5/6);",
        f"(a,b);{w}{w}",
        f"{w}a{w};",
        f"(a,\n{w}b{w}\n{w}c);",
        f"(a,b);{w}x",
        f"(a,b);{w};",
        f"(a,{w});",
        f"(a,b{w};",
        f"(a,b){w}",
        f"(a:{w},b:1);",
        f"(a{w}b);",
        f"(a,b{w}c);",
        f"{w}",
        f"(a:1{w}/2,b:1);",
        f"(a:1/{w}2,b:1);",
        f"((a,b){w}:{w}1{w}:{w}2,c:1);",
        f"(a{w}:{w}1/0,b:1);",
    ]


# sha256 over the outcome of every text of _whitespace_texts, for every code
# point where str.isspace() is true and a few that look blank but are not,
# as the reader gave them when this digest was recorded.
WHITESPACE_SHA256 = "b2ebb02e4755f741363dc099d58c23d6b79695ac7d0a8b0c8b2b60bb043c497b"


def test_reader_skips_exactly_the_whitespace_that_str_isspace_names():
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    blanks = ["\x00", "\xad", "\u180e", "\u200b", "\u2060", "\ufeff"]  # not whitespace
    assert not any(ch.isspace() for ch in blanks)
    rows = []
    for w in spaces + blanks:
        for text in _whitespace_texts(w):
            try:
                rows.append(print_newick(*parse_newick(text)))
            except Exception as exc:  # the exception type and message are the contract
                rows.append((type(exc).__name__, str(exc)))
    assert len(spaces) == 29
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == WHITESPACE_SHA256
