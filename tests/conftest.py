"""Shared helpers: independent oracles used to freeze expected values.

Everything here is deliberately written against the raw definitions (path
walking, restriction, counting by partition type) rather than through the
library's own shortcuts, so tests cross two independent routes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm
from typing import Hashable, Iterable, Mapping, Sequence

import treelasso
from treelasso import XTree, all_cords, classify, cord, cord_set
from treelasso.heights import _as_fraction

LABELS3 = ("a", "b", "c")
LABELS4 = ("a", "b", "c", "d")
LABELS5 = ("a", "b", "c", "d", "e")
LABELS6 = ("a", "b", "c", "d", "e", "f")


# -- counting oracles (independent of the enumeration code) -----------------


def _partition_types(n: int, max_part: int | None = None):
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_types(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def count_xtrees(n: int) -> int:
    """Rooted trees on n labeled leaves without unary vertices, by recursion
    over the root's child-block partition type."""
    if n == 1:
        return 1
    total = 0
    for parts in _partition_types(n):
        if len(parts) < 2:
            continue
        ways = factorial(n)
        for p in parts:
            ways //= factorial(p)
        for m in Counter(parts).values():
            ways //= factorial(m)
        prod = 1
        for p in parts:
            prod *= count_xtrees(p)
        total += ways * prod
    return total


def count_binary_xtrees(n: int) -> int:
    """Double factorial (2n-3)!!, the classical count of binary shapes."""
    out = 1
    for k in range(1, 2 * n - 2, 2):
        out *= k
    return out


# -- path-walking oracle for child-edge graphs -------------------------------


def leaf_path_edges(tree: XTree, a: str, b: str) -> list[tuple[int, int]]:
    """All (parent, child) edges on the path between two leaves, by walking."""
    u = tree.leaf_vertex(a)
    w = tree.leaf_vertex(b)
    edges = []
    while tree.depth(u) > tree.depth(w):
        edges.append((tree.parent(u), u))
        u = tree.parent(u)
    while tree.depth(w) > tree.depth(u):
        edges.append((tree.parent(w), w))
        w = tree.parent(w)
    while u != w:
        edges.append((tree.parent(u), u))
        edges.append((tree.parent(w), w))
        u = tree.parent(u)
        w = tree.parent(w)
    return edges


def walk_meet(tree: XTree, u: int, w: int) -> tuple[int, int, int]:
    """The last common vertex m of vertices u and w by walking parent
    pointers: the deeper side climbs to the other's depth, then both climb
    together.  Returns (m, child of m toward u, child of m toward w), with
    -1 for a side that is m itself.  The reference for :func:`vertex_meet`."""
    parent, depth = tree._parent, tree._depth
    cu = cw = -1
    du, dw = depth[u], depth[w]
    while du > dw:
        cu, u = u, parent[u]
        du -= 1
    while dw > du:
        cw, w = w, parent[w]
        dw -= 1
    while u != w:
        cu, u = u, parent[u]
        cw, w = w, parent[w]
    return u, cu, cw


def vertex_meet(tree: XTree, u: int, w: int) -> tuple[int, int, int]:
    """``XTree._meets`` on one pair of vertex ids; (u, -1, -1) when they are one."""
    return (u, -1, -1) if u == w else tree._meets(((u, w),), tree._vertices)[0]


def walked_child_pairs(tree: XTree, cords) -> set[tuple[int, int, int]]:
    """``_child_pairs`` by parent-pointer walks: (v, u, w), u < w, per cord."""
    out = set()
    for a, b in cords:
        v, u, w = walk_meet(tree, tree.leaf_vertex(a), tree.leaf_vertex(b))
        out.add((v, min(u, w), max(u, w)))
    return out


def clade_by_sorting(tree: XTree, v: int) -> str:
    """A vertex's CLI name, its whole leaf set sorted from scratch."""
    return "{" + ",".join(sorted(tree.leaves_below(v))) + "}"


def brute_child_edge_pairs(tree: XTree, cords) -> dict[int, set[frozenset[int]]]:
    """Per vertex, the child-edge pairs joined by some cord's path, straight
    off the paths: a path uses two child edges of a vertex only at its top."""
    out: dict[int, set[frozenset[int]]] = {}
    for a, b in cords:
        below: dict[int, list[int]] = {}
        for p, c in leaf_path_edges(tree, a, b):
            below.setdefault(p, []).append(c)
        for p, children_of_p in below.items():
            if len(children_of_p) == 2:
                out.setdefault(p, set()).add(frozenset(children_of_p))
    return out


def brute_linked_child_edges(tree: XTree, cords, v: int) -> set[frozenset[int]]:
    """Child-edge pairs of v joined by some cord's path, straight off the paths."""
    return brute_child_edge_pairs(tree, cords).get(v, set())


# -- triplets ----------------------------------------------------------------

# The rooted triplet ab|c, the binary shape on three leaves with cherry
# {a, b}, as the pair (cherry, outlier).
Triplet = tuple[frozenset[str], str]


def triplet(a: str, b: str, c: str) -> Triplet:
    """The triplet ``ab|c`` (cherry {a, b}, outlier c)."""
    return frozenset((a, b)), c


@lru_cache(maxsize=None)
def tree_triplets(tree: XTree) -> frozenset[Triplet]:
    """Triplets read off last-common-vertex depths.

    Of the three pairs in a 3-subset, at least two meet at one shallowest
    vertex; ab|c exactly when a and b meet strictly deeper than a and c.
    """
    labels = sorted(tree.leaf_labels)
    depth = {pair: tree.depth(tree.lca(*pair)) for pair in combinations(labels, 2)}
    out = []
    for a, b, c in combinations(labels, 3):
        dab, dac, dbc = depth[a, b], depth[a, c], depth[b, c]
        if dab > dac:
            out.append(triplet(a, b, c))
        elif dac > dab:
            out.append(triplet(a, c, b))
        elif dbc > dab:
            out.append(triplet(b, c, a))
    return frozenset(out)


def triplets_by_restriction(tree: XTree) -> frozenset[Triplet]:
    """Triplets computed literally: restrict to each 3-subset and compare shapes."""
    out = []
    for a, b, c in combinations(sorted(tree.leaf_labels), 3):
        sub = restrict(tree, {a, b, c})
        for cherry_pair, outlier in (((a, b), c), ((a, c), b), ((b, c), a)):
            if sub == XTree((cherry_pair, outlier)):
                out.append(triplet(cherry_pair[0], cherry_pair[1], outlier))
    return frozenset(out)


# -- tree queries only the tests ask ------------------------------------------


def restrict(tree: XTree, labels: Iterable[str]) -> XTree:
    """The tree induced on a nonempty label subset, unary vertices suppressed."""
    keep = set(labels)
    if not keep:
        raise ValueError("cannot restrict to the empty leaf set")
    unknown = keep - tree.leaf_labels
    if unknown:
        raise ValueError(f"labels not in this tree: {sorted(unknown)}")

    # Children have larger preorder ids than their parent, so a reverse
    # sweep prunes every subtree before the vertex above it.
    pruned: list[object] = [None] * tree.n_vertices
    for v in reversed(tree.vertices()):
        if tree.is_leaf(v):
            lab = tree.label(v)
            pruned[v] = lab if lab in keep else None
            continue
        kept = [pruned[c] for c in tree.children(v) if pruned[c] is not None]
        if len(kept) == 1:
            pruned[v] = kept[0]
        elif kept:
            pruned[v] = tuple(kept)
    return XTree(pruned[0])


def pseudo_cherries(tree: XTree) -> tuple[tuple[int, frozenset[str]], ...]:
    """All (parent vertex, leaf set) pairs where the leaf set is a maximal
    proper subset of X whose members all share that parent."""
    # Only the root has every leaf below it.
    return tuple(
        (v, tree.leaves_below(v))
        for v in tree.interior_vertices()
        if v != tree.root and all(map(tree.is_leaf, tree.children(v)))
    )


# -- exact point checking for feasibility systems ----------------------------


def point_satisfies(system, point) -> bool:
    """Exact check that a returned assignment satisfies a whole system."""

    def value(coeffs):
        return sum((Fraction(c) * point[v] for v, c in coeffs.items()), Fraction(0))

    for coeffs, rhs in system.equalities:
        if value(coeffs) != rhs:
            return False
    for coeffs, rhs in system.strict_inequalities:
        if not value(coeffs) > rhs:
            return False
    return all(point[v] >= 0 for v in system.nonneg)


# -- reference difference engine ---------------------------------------------


def reference_solve_differences(
    n: int,
    equal: Sequence[tuple[int, int, Fraction]],
    greater: Sequence[tuple[int, int, Fraction, bool]],
    scale: int = 1,
) -> list[Fraction] | None:
    """The general difference-constraint engine, as the library had it
    before integer points reused shared ``Fraction``s, all-zero constants
    skipped the ``eps`` pass and constants left the library: dict-based
    classes, finds by path halving on every edge, and one new ``Fraction``
    per value.

    ``equal`` holds ``(x, y, c)`` meaning ``x - y = c``; ``greater`` holds
    ``(x, y, c, strict)`` meaning ``x - y >= c``, or ``x - y > c`` when
    ``strict`` is set.  Id ``n`` is a variable fixed at zero, so ``(x, n,
    c)`` pins ``x = c``.  A constraint ``x - y >= c`` is an edge ``y -> x``
    of weight ``(c, 0)`` and ``x - y > c`` one of weight ``(c, 1)``: the
    second component counts infinitesimals, and each longest-path value
    ``(a, b)`` becomes ``a + b*eps`` for an ``eps`` below every slack.  The
    constants may be the true ones times ``scale``: the system is then
    solved in units of ``1/scale`` and each value divided back.

    On zero-constant systems ``treelasso.oracle._solve_levels`` must
    return the same values as plain ``int``s.
    """
    parent = list(range(n + 1))
    edges = greater
    for x, y, c in equal:
        if c:
            if edges is greater:
                edges = list(greater)
            edges.append((x, y, c, False))
            edges.append((y, x, -c, False))
            continue
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[x] = y

    out: dict[int, list] = {}  # lower class -> [(higher class, c, strict)]
    indeg: dict[int, int] = {}
    for x, y, c, strict in edges:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            if c > 0 or (strict and c == 0):
                return None
            continue
        if y in out:
            out[y].append((x, c, strict))
        else:
            out[y] = [(x, c, strict)]
            indeg.setdefault(y, 0)
        indeg[x] = indeg.get(x, 0) + 1

    # longest paths under lexicographic (constant, strict count) weights
    value = dict.fromkeys(indeg, (0, 0))
    queue = [u for u, d in indeg.items() if d == 0]
    while queue:
        u = queue.pop()
        a, b = value[u]
        for w, c, s in out.get(u, ()):
            cand = (a + c, b + s)
            if cand > value[w]:
                value[w] = cand
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    rest = [u for u, d in indeg.items() if d]
    if rest:  # on or behind a cycle: only these can still change
        for _ in range(len(rest)):
            changed = False
            for u in rest:
                a, b = value[u]
                for w, c, s in out.get(u, ()):
                    cand = (a + c, b + s)
                    if cand > value[w]:
                        value[w] = cand
                        changed = True
            if not changed:
                break
        else:
            return None  # positive cycle

    # eps = p/q small enough that no constraint with real slack loses it
    p, q = scale, 1
    for y, targets in out.items():
        ay, by = value[y]
        for x, c, _ in targets:
            ax, bx = value[x]
            slack = ax - ay - c
            if slack > 0 and by > bx:
                d = slack.denominator * (by - bx + 1)
                if slack.numerator * q < p * d:
                    p, q = slack.numerator, d

    def lex(v: int) -> tuple:
        while parent[v] != v:
            v = parent[v]
        return value.get(v, (0, 0))

    az, bz = lex(n)  # shifted so that the zero variable is 0
    den = q * scale
    points = []
    for v in range(n):
        a, b = lex(v)
        num = (a - az) * q + (b - bz) * p
        points.append(Fraction(num) if den == 1 else Fraction(num, den))
    return points


# -- the general linear-system route -------------------------------------------
#
# The library solves zero-constant systems only.  Pins, rational constants
# and scaled differences are built and solved here: coefficients as dicts,
# floats rejected, every constant multiplied to an integer by the lcm of the
# denominators and solved by the reference engine in units of 1/lcm.


@dataclass(frozen=True)
class LinearSystem:
    """A finite system of rational linear equalities and strict inequalities.

    ``equalities`` holds pairs ``(coeffs, rhs)`` meaning ``sum coeffs*x == rhs``
    and ``strict_inequalities`` pairs meaning ``sum coeffs*x > rhs``; the
    variables in ``nonneg`` are additionally constrained to be >= 0.
    """

    variables: tuple[Hashable, ...]
    equalities: tuple[tuple[dict, Fraction], ...]
    strict_inequalities: tuple[tuple[dict, Fraction], ...]
    nonneg: frozenset = frozenset()


def linear_system(
    variables: Iterable[Hashable],
    *,
    equalities: Iterable[tuple[Mapping[Hashable, object], object]] = (),
    strict: Iterable[tuple[Mapping[Hashable, object], object]] = (),
    nonneg: Iterable[Hashable] = (),
) -> LinearSystem:
    """Build a system, normalizing all coefficients to exact fractions.

    Floats are rejected with ``TypeError``: they are not exact.
    """
    vars_tuple = tuple(variables)
    known = set(vars_tuple)
    if len(known) != len(vars_tuple):
        raise ValueError("duplicate variables")

    def norm(raw) -> tuple:
        out = []
        for coeffs, rhs in raw:
            cleaned = {}
            for var, c in coeffs.items():
                if var not in known:
                    raise ValueError(f"constraint mentions unknown variable {var!r}")
                c = _as_fraction(c, "coefficients and constants")
                if c != 0:
                    cleaned[var] = c
            out.append((cleaned, _as_fraction(rhs, "coefficients and constants")))
        return tuple(out)

    nn = frozenset(nonneg)
    if not nn <= known:
        raise ValueError("nonneg mentions unknown variables")
    return LinearSystem(vars_tuple, norm(equalities), norm(strict), nn)


def as_linear_system(system) -> LinearSystem:
    """A zero-constant ``treelasso.StrictLinearSystem`` as the general system
    it stands for: ``u == w`` and ``u > w`` as differences against 0."""
    return linear_system(
        system.variables,
        equalities=[({u: 1, w: -1}, 0) for u, w in system.equalities],
        strict=[({u: 1, w: -1}, 0) for u, w in system.strict_inequalities],
    )


def _difference(coeffs: Mapping, rhs: Fraction, ids: Mapping, zero: int) -> tuple:
    """``(x, y, c)`` such that the constraint compares ``x - y`` with ``c``."""
    terms = list(coeffs.items())
    if not terms:
        return zero, zero, rhs
    if len(terms) == 1:
        ((v, a),) = terms
        x, y = ids[v], zero
    elif len(terms) == 2 and terms[0][1] == -terms[1][1]:
        (v, a), (w, _) = terms
        x, y = ids[v], ids[w]
    else:
        lhs = " + ".join(f"{c}*{v}" for v, c in terms)
        raise ValueError(f"not a difference constraint: {lhs} against {rhs}")
    if a < 0:
        x, y, a = y, x, -a
    return x, y, rhs if a == 1 else Fraction(rhs, a)


def reference_strict_feasible(system: LinearSystem) -> dict | None:
    """A rational point satisfying the whole system, or None when there is none.

    Every equality holds exactly, every strict inequality holds strictly and
    every ``nonneg`` variable is >= 0 at the returned point.  Each constraint
    must be a difference: one variable with any nonzero coefficient, or two
    with equal and opposite coefficients; any other raises ``ValueError``.
    """
    ids = {v: i for i, v in enumerate(system.variables)}
    zero = len(ids)
    equal = [_difference(c, r, ids, zero) for c, r in system.equalities]
    greater = [
        (*_difference(c, r, ids, zero), True) for c, r in system.strict_inequalities
    ]
    # scaled by the lcm of the denominators, every constant is an integer
    scale = lcm(
        *(c.denominator for _, _, c in equal), *(g[2].denominator for g in greater)
    )
    equal = [(x, y, c.numerator * (scale // c.denominator)) for x, y, c in equal]
    greater = [
        (x, y, c.numerator * (scale // c.denominator), strict)
        for x, y, c, strict in greater
    ]
    greater += [(ids[v], zero, 0, False) for v in system.nonneg]
    values = reference_solve_differences(zero, equal, greater, scale)
    if values is None:
        return None
    return dict(zip(system.variables, values))


# -- cord inputs --------------------------------------------------------------


# Cord inputs on the labels a-d, well-formed and not: each must be taken or
# rejected exactly as ``validate_cords`` takes or rejects it.
CORD_CORPUS = (
    [("b", "a"), ("c", "d")],
    {("a", "b")},
    frozenset({("b", "a")}),
    frozenset({"ab", ("c", "d")}),  # a two-letter string unpacks to a pair
    frozenset({("a", "z")}),
    frozenset({("0", "a")}),  # sorts first but is no leaf
    frozenset({("a", "a")}),
    frozenset({("a", "b", "c")}),
    frozenset({("a",)}),
    frozenset({("a", 1)}),
    frozenset({(1, 2)}),
    frozenset({1}),
    [("a", "b"), ("a", "e")],
)


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception type and message are the contract
        return (type(exc), str(exc))


def decision_row(kind: str, ok: bool, witness) -> tuple:
    """One oracle decision as plain data: verdict, witness rival and both
    witness height maps (value and type), for digests of many decisions."""
    if witness is None:
        return (kind, ok, None)
    return (
        kind,
        ok,
        witness.rival.canonical_newick(),
        sorted(witness.heights_t.heights.items()),
        sorted(witness.heights_rival.heights.items()),
    )



# -- reference records --------------------------------------------------------
#
# The library's records as they were when they were frozen dataclasses: the
# contract the slotted classes keep.  Each keeps its class's name, so reprs
# and messages match, and its fields, checks and hash verbatim; the methods
# that only read the fields are left out.


@dataclass(frozen=True)
class LassoReport:
    """``treelasso.LassoReport`` as a frozen dataclass."""

    equidistant: bool
    weak: bool
    topological: bool
    failing_vertices: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.topological and not self.weak:  # a bug if it ever fires
            raise ValueError("a topological lasso is always a weak lasso")

    @property
    def strong(self) -> bool:
        """A strong lasso is both an equidistant and a topological lasso."""
        return self.equidistant and self.topological


@dataclass(frozen=True)
class EdgeWeighting:
    """``treelasso.EdgeWeighting`` as a frozen dataclass."""

    tree: XTree
    by_child: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        weights = {
            v: _as_fraction(w, "edge weights and heights") for v, w in self.by_child.items()
        }
        expected = set(self.tree.vertices()) - {self.tree.root}
        if set(weights) != expected:
            raise ValueError("weighting must cover exactly the non-root vertices")
        object.__setattr__(self, "by_child", weights)

    def __hash__(self) -> int:
        return hash((self.tree, tuple(sorted(self.by_child.items()))))


@dataclass(frozen=True)
class HeightMap:
    """``treelasso.HeightMap`` as a frozen dataclass."""

    tree: XTree
    heights: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        # exact comparisons on numerators and denominators, each read once: a
        # Fraction's denominator is positive, so signs and orders read off
        # cross-products
        h = dict(self.heights)
        if set(map(type, h.values())) != {Fraction}:
            h = {v: _as_fraction(x, "edge weights and heights") for v, x in h.items()}
        tree = self.tree
        interior = tree.interior_vertices()
        if len(h) != len(interior) or not all(map(h.__contains__, interior)):
            raise ValueError("heights must cover exactly the interior vertices")
        ratio = {v: x.as_integer_ratio() for v, x in h.items()}
        for v, (a, _) in ratio.items():
            if a < 0:
                raise ValueError(f"height of vertex {v} is negative: {h[v]}")
        parent = tree._parent
        for v in interior:
            p = parent[v]
            if p >= 0:
                a, b = ratio[v]
                c, d = ratio[p]
                if a * d >= c * b:
                    raise ValueError(
                        f"heights must strictly decrease along interior edges "
                        f"({p} -> {v}: {h[p]} -> {h[v]})"
                    )
        object.__setattr__(self, "heights", h)

    def __hash__(self) -> int:
        return hash((self.tree, tuple(sorted(self.heights.items()))))


@dataclass(frozen=True)
class StrictLinearSystem:
    """``treelasso.StrictLinearSystem`` as a frozen dataclass."""

    variables: tuple[Hashable, ...]
    equalities: tuple[tuple[Hashable, Hashable], ...]
    strict_inequalities: tuple[tuple[Hashable, Hashable], ...]


@dataclass(frozen=True)
class ChildEdgeGraph:
    """``treelasso.ChildEdgeGraph`` as a frozen dataclass."""

    tree: XTree
    owner: int
    nodes: tuple[int, ...]
    adjacency: Mapping[int, frozenset[int]]
    leaf_edges: frozenset[int]
    subtree_edges: frozenset[int]


@dataclass(frozen=True)
class CircularOrdering:
    """``treelasso.CircularOrdering`` as a frozen dataclass."""

    order: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        if len(set(self.order)) != len(self.order):
            raise ValueError("a circular ordering must not repeat labels")
        if not self.order:
            raise ValueError("a circular ordering must be nonempty")


@dataclass(frozen=True)
class Bipartition:
    """``treelasso.Bipartition`` as a frozen dataclass."""

    a_side: frozenset[str]
    b_side: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_side", frozenset(self.a_side))
        object.__setattr__(self, "b_side", frozenset(self.b_side))
        if not self.a_side or not self.b_side:
            raise ValueError("both sides of a bipartition must be nonempty")
        if self.a_side & self.b_side:
            raise ValueError("the two sides of a bipartition must be disjoint")


@dataclass(frozen=True)
class Witness:
    """``treelasso.Witness`` as a frozen dataclass."""

    rival: XTree
    heights_t: HeightMap
    heights_rival: HeightMap


# -- paper-lemma checks -----------------------------------------------------


def reduce_by_cherry(cords, x: str, y: str) -> frozenset:
    """The cord set after removing leaf x for its cherry mate y: each cord
    {a, x} becomes {a, y}, and the cord xy itself is dropped."""
    if x == y:
        raise ValueError("reduction needs two distinct labels")
    renamed = (tuple(y if end == x else end for end in c) for c in cord_set(cords))
    return cord_set(p for p in renamed if p[0] != p[1])


def reduction_check(tree: XTree, cords, x: str, y: str, kind: str) -> bool:
    """Whether ``L is a <kind> lasso`` agrees with ``xy in L and (reduced L) +
    {xy} is a <kind> lasso``, for x, y in a common pseudo-cherry.  The paper's
    cherry-reduction lemma says it does when {x, y} is a cherry."""
    if kind not in ("equidistant", "weak", "topological"):
        raise ValueError(f"unknown lasso kind {kind!r}")
    if not any(x in leaves and y in leaves for _, leaves in pseudo_cherries(tree)):
        raise ValueError(f"{x!r} and {y!r} are not in a common pseudo-cherry")
    cords = cord_set(cords)
    if kind == "weak" and not cords:
        raise ValueError("the weak-lasso reduction requires a nonempty cord set")
    xy = cord(x, y)
    lhs = getattr(classify(tree, cords), kind)
    rhs = xy in cords and getattr(classify(tree, reduce_by_cherry(cords, x, y) | {xy}), kind)
    return lhs == rhs


def is_covering(cords, labels) -> bool:
    """True iff the cords' ends are the whole label set."""
    return {end for c in cord_set(cords) for end in c} == set(labels)


def cord_graph(cords, labels) -> tuple[bool, bool]:
    """``(connected, strongly_non_bipartite)`` for the graph on the labels with
    the cords as edges; the second holds when every component has an odd
    cycle (an isolated label is a bipartite component)."""
    adj: dict[str, set[str]] = {v: set() for v in labels}
    for a, b in cord_set(cords):
        adj[a].add(b)
        adj[b].add(a)
    color: dict[str, int] = {}
    components = 0
    odd_everywhere = True
    for start in adj:
        if start in color:
            continue
        components += 1
        color[start] = 0
        stack, bipartite = [start], True
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    bipartite = False
        odd_everywhere = odd_everywhere and not bipartite
    return components <= 1, odd_everywhere


# -- reference cord-file reader ---------------------------------------------


def reference_read_cord_file(text: str):
    """``treelasso.cords.read_cord_file`` as it was before the bulk pass: each
    line is stripped of its comment and normalized through ``cord()`` in turn.
    The same contract: equal ``(cords, distances)``, or a ``CordFileError``
    with an equal message."""
    from treelasso.cords import CordFileError, cord, parse_rational

    cords: set = set()
    distances: dict = {}
    saw_bare = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
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


# -- misc ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def all_cord_subsets(labels: tuple[str, ...]) -> tuple[frozenset, ...]:
    """Every subset of all cords on the label set (1024 at five leaves)."""
    pool = sorted(combinations(sorted(labels), 2))
    out = []
    for r in range(len(pool) + 1):
        for chosen in combinations(pool, r):
            out.append(frozenset(chosen))
    return tuple(out)


def bearded_caterpillar(k: int, length: int, prefix: str = "x") -> XTree:
    """A rooted path of ``length`` vertices, each with k children: k-1 pendant
    leaves per path vertex plus the next path vertex, and k leaves at the end."""
    labels = iter(f"{prefix}{i:02d}" for i in range(100))
    shape = tuple(next(labels) for _ in range(k))
    for _ in range(length - 1):
        shape = tuple([shape] + [next(labels) for _ in range(k - 1)])
    return XTree(shape)


def random_shape(n: int, seed: int, prefix: str = "t", binary: bool = False):
    """A seeded random multifurcating shape on labels prefix0 .. prefix{n-1}:
    runs of two to four adjacent nodes (always two if ``binary``) are
    grouped until one node is left."""
    rng = random.Random(seed)
    nodes: list = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        k = 2 if binary else min(len(nodes), rng.choice((2, 2, 3, 4)))
        i = rng.randrange(len(nodes) - k + 1)
        nodes[i : i + k] = [tuple(nodes[i : i + k])]
    return nodes[0]


def random_xtree(n: int, seed: int, prefix: str = "t", binary: bool = False) -> XTree:
    return XTree(random_shape(n, seed, prefix, binary))


def random_cords(tree: XTree, count: int, seed: int) -> frozenset[tuple[str, str]]:
    """``count`` distinct seeded random cords on the tree's leaves."""
    rng = random.Random(seed)
    labels = sorted(tree.leaf_labels)
    out: set[tuple[str, str]] = set()
    while len(out) < count:
        a, b = sorted(rng.sample(labels, 2))
        out.add((a, b))
    return frozenset(out)


def seeded_cord_sets(labels, per_tree: int, tree_index: int):
    """The deterministic cord-set sample used by the five-leaf sweeps."""
    n_pool = len(all_cords(labels))
    for j in range(per_tree):
        seed = tree_index * 100003 + j
        k = random.Random(seed).randint(0, n_pool)
        yield random_cord_set(labels, k, seed)


def random_cord_set(labels: Iterable[str], k: int, seed: int) -> frozenset:
    """A uniform random k-subset of all cords, deterministic per seed."""
    pool = sorted(all_cords(labels))
    if k < 0 or k > len(pool):
        raise ValueError(f"cannot sample {k} cords from {len(pool)} available")
    return frozenset(random.Random(seed).sample(pool, k))


def random_proper_heights(tree: XTree, seed: int) -> treelasso.HeightMap:
    """A seeded random valid height map with small-denominator rationals.

    Deterministic per seed; heights strictly increase toward the root along
    interior edges by construction.
    """
    rng = random.Random(seed)
    heights: dict[int, Fraction] = {}
    for v in reversed(tree.interior_vertices()):
        base = Fraction(0)
        for c in tree.children(v):
            if not tree.is_leaf(c):
                base = max(base, heights[c])
        heights[v] = base + Fraction(rng.randint(1, 8), rng.randint(1, 4))
    return treelasso.HeightMap(tree, heights)
