"""Definition-level ground truth for lasso decisions on small leaf sets.

The characterizations in :mod:`treelasso.lasso` read lasso status off the
child-edge graphs.  This module answers the same questions straight from the
definitions instead: it enumerates every tree on the leaf set (up to
equivalence), encodes "both trees fit the cord distances" as an exact linear
system over the two interior height vectors, and asks for strict
feasibility.  A cord set fails to corral a tree exactly when some rival that
is not a refinement admits a jointly feasible pair of proper weightings; it
fails to be a topological lasso when some non-equivalent rival does; and it
fails to be an equidistant lasso when the same tree carries two distinct
weightings fitting the cords.

Rivals are scanned in canonical order and the first feasible violator is
returned as a witness, so results are reproducible.  The weak and
topological decisions share one scan, which differs between them only in
which rivals it skips, and which covers every rival on each leaf set the
enumeration accepts: up to 6 leaves, or 2752 trees.  The weak decision
alone takes an explicit ``rival_sample``, which scans a seeded subset
instead.  Each joint system, one identification per cord and a strict order
along every edge, goes straight to the exact engine, :func:`_solve_levels`,
as pairs of dense integer ids; its verdict and exact point, as integer
levels, come from one call, and the levels of the first feasible rival are
the witness.  A rival whose least levels already fit the cords needs no
call (see below).  :class:`StrictLinearSystem` and :func:`strict_feasible`
state the same systems over named variables and answer the levels as
``Fraction``s.

The scan reads its rivals from one table per leaf set, built on first use,
with a row per enumerated tree in canonical order; bit r of every mask below
stands for row r.  A row holds the tree's properness edges twice: with its
heights placed at ids ``K..``, ``K`` = (number of leaves) - 1, so any
reference tree fits below them, and at ids ``0..``, for when the tree is
the reference; the interior index of each cord's meeting vertex, in
:func:`all_cords` order; one relation byte per cord pair; the cord masks of
its clusters, the leaf sets below its non-root interior vertices; and its
least levels, with their height view.  The least levels put a vertex whose
children are all leaves at 0 and every other interior vertex one above its
highest interior child: the least proper weighting of the tree, which every
proper integer weighting dominates.  The view is a read-only height mapping
of them, built and checked by ``HeightMap._from_levels`` once per distinct
interior ids and levels (8 views at five leaves, 17 at six) and shared by
the rows, as rows share edge tuples.  The table holds two kinds of mask,
shared by all rows.

* Conflict masks.  A tree puts the meeting vertices of two cords in one of
  four relations: the first strictly above the second, strictly below it,
  at the same vertex, or apart.  If one tree has a pair strictly ordered
  and the other has it equal or ordered the other way, the two cord
  equalities close a strict cycle through the properness edges, so the
  joint system is infeasible; "apart" conflicts with nothing.  The table
  keeps, per cord pair and relation, the mask of rows in conflict with that
  relation, and a row reads its own by its relation byte.  Vertex ids are
  preorder positions, so vertex u's subtree is the range ``u..last[u]``, a
  cord meets at the deepest vertex whose range holds both its ends, and
  meeting vertices u and w are equal, u is strictly above w exactly when
  ``u < w <= last[u]``, w is above u likewise, or they are apart.
* Cluster masks.  A cluster's cord mask holds the cords meeting in its
  vertex's range; the table keeps, per cluster, the mask of rows whose
  trees have it.  A tree refines another exactly when it has all of the
  other's clusters, so the AND of a row's cluster masks is the mask of
  rows whose trees refine it.

A decision starts from every row, removes the refiners (weak) or the
tree's own bit (topological), removes the OR of the tree's conflict masks
over the pairs of given cords, stopping that sweep as soon as no row is
left, and keeps only the sampled rows if asked.  It then tries the
surviving rows, lowest bit first.  When a rival's least levels equal the
tree's at every given cord's meeting vertices, the two floors are proper
and fit every cord, and any fitting pair dominates them, so they are
exactly the engine's least point: the scan returns them as the witness, two
new height maps over the rows' shared views (a floor witness), with no
engine call.  Any other rival goes to the engine.  The tree's own row is
looked up in the table, so nothing is remembered per tree.

Every decision checks its cords by the lookups that resolve them
(:func:`~treelasso.cords._by_lookup`): the scan looks each up in the
table's cord index, whose keys are exactly the leaf set's normal cords,
and the equidistant decision, like the joint system, meets them through
the one cord resolver, :meth:`~treelasso.tree.XTree._cord_meets`.  A
repeated cord counts once, and the checks keep one order: the domain, the
cords, ``rival_sample``, then the leaf cap.

The enumerated trees and the rival tables of the last four leaf sets asked
for (``_KEPT_LEAF_SETS``) are kept, a six-leaf set taking about 7 MB.  An
older set is dropped and rebuilt if it is asked for again, so a process
that decides trees on many leaf sets holds the tables of a few only.  The
shape memo behind an enumeration lives for that enumeration alone.

The equidistant decision needs no rivals, so it keeps nothing and works
on trees of any size.  It puts two copies of the tree's heights side by
side, ties them with one equality per vertex where a given cord meets, and
asks the engine, vertex by vertex, for the first copy to sit strictly
above the second.  At a vertex where a cord meets, that strict edge and
the equality close a strict self-loop, so the engine could only answer
None; those vertices are skipped and the first feasible vertex, the
verdict and the witness are unchanged.  Each call works out its own
tables from the tree and the given cords: the interior index, the
properness edges of both copies, and the meeting vertex of each given
cord, so no table over all leaf pairs is built and nothing is kept per
tree.

:class:`Witness` and the rival table are frozen ``__slots__`` records on
the package's one record base, as are the height maps a witness carries, so
an oracle process loads neither :mod:`dataclasses` nor :mod:`inspect`, and
the heights of a witness cannot be edited after it is built.  An engine
witness's maps are built from the one list of levels, each from its tree's
slice of it, by ``HeightMap._from_levels``, which checks the levels as ints
as the constructor checks heights; a floor witness's maps are new records
over views that the same function checked when the table was built.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .cords import Cord, _by_lookup, validate_cords
from .heights import HeightMap
from .lasso import KINDS, _Record, _require_domain
from .tree import XTree, _check_label

__all__ = [
    "StrictLinearSystem",
    "Witness",
    "enumerate_xtrees",
    "joint_isometry_system",
    "oracle_equidistant",
    "oracle_topological",
    "oracle_weak",
    "strict_feasible",
    "verify_witness",
]

_MAX_LEAVES = 6
_KEPT_LEAF_SETS = 4  # leaf sets whose trees and rival table are kept


# --------------------------------------------------------------------------
# enumeration of all trees on a labeled leaf set
# --------------------------------------------------------------------------


def _set_partitions(items: tuple) -> Iterator[list[list]]:
    """All partitions of ``items`` into unordered nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _shapes(labels: tuple[str, ...], memo: dict) -> tuple:
    """Every tree shape on ``labels`` (nested-tuple form), one per equivalence class.

    ``memo`` holds the shapes of the sub-label sets met so far.
    """
    if len(labels) == 1:
        return (labels[0],)
    if labels in memo:
        return memo[labels]
    out = []
    for blocks in _set_partitions(labels):
        if len(blocks) < 2:
            continue
        options = [_shapes(tuple(sorted(b)), memo) for b in blocks]
        for combo in product(*options):
            out.append(tuple(combo))
    out = memo[labels] = tuple(out)
    return out


def _check_enumeration_domain(labels: Sequence[str]) -> tuple[str, ...]:
    ordered = tuple(sorted(set(map(_check_label, labels))))  # checked before hashed
    if len(ordered) != len(tuple(labels)):
        raise ValueError("duplicate labels in leaf set")
    if not 2 <= len(ordered) <= _MAX_LEAVES:
        raise ValueError(
            f"enumeration supports 2..{_MAX_LEAVES} leaves, got {len(ordered)}"
        )
    return ordered


@lru_cache(maxsize=_KEPT_LEAF_SETS)
def _enumerate(labels: tuple[str, ...]) -> tuple[XTree, ...]:
    trees = [XTree(shape) for shape in _shapes(labels, {})]
    trees.sort(key=lambda t: t.canonical_newick())
    return tuple(trees)


def enumerate_xtrees(labels: Iterable[str]) -> tuple[XTree, ...]:
    """Every tree on the label set, one per equivalence class, canonical order."""
    return _enumerate(_check_enumeration_domain(tuple(labels)))


# --------------------------------------------------------------------------
# the exact engine: identifications and strict orders
# --------------------------------------------------------------------------


def _solve_levels(
    n: int,
    equal: Sequence[tuple[int, int]],
    greater: Sequence[tuple[int, int]],
) -> list[int] | None:
    """The least integer point of the variables ``0..n-1``, or None when there is none.

    ``equal`` holds ``(x, y)`` meaning ``x = y`` and ``greater`` holds
    ``(x, y)`` meaning ``x > y``.  Every definition-level question is such a
    system: the heights of two trees, strictly decreasing along each tree's
    edges, tied by one identification per cord.  It is solved exactly as a
    longest-path problem on a digraph:

    * identifications are merged with a union-find first;
    * ``x > y`` is an edge from ``y``'s class to ``x``'s, and a merged
      self-loop ``x > x`` makes the system infeasible;
    * one topological pass (Kahn) gives each class the number of edges on
      its longest incoming path; a class the pass never reaches lies on or
      behind a cycle, and every cycle is strict, so the system is then
      infeasible;
    * a variable's level is its class's path length, a plain ``int`` at
      least 0, and the levels are the least integer point.
    """
    parent = list(range(n))
    for x, y in equal:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[x] = y
    if equal:
        for v in range(n):
            r = parent[v]
            while parent[r] != r:
                r = parent[r]
            parent[v] = r

    out = [[] for _ in range(n)]  # lower class -> higher classes
    indeg = [0] * n
    for x, y in greater:
        x = parent[x]
        y = parent[y]
        if x == y:
            return None  # x > x
        out[y].append(x)
        indeg[x] += 1

    value = [0] * n
    order = [u for u in range(n) if not indeg[u]]
    for u in order:  # grows as classes lose their last incoming edge
        a = value[u] + 1
        for w in out[u]:
            if a > value[w]:
                value[w] = a
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) < n:
        return None  # a class on or behind a cycle
    return list(map(value.__getitem__, parent))


class StrictLinearSystem(_Record):
    """A system of identifications and strict orders.

    ``equalities`` holds pairs ``(u, w)`` meaning ``u == w`` and
    ``strict_inequalities`` pairs meaning ``u > w``.
    """

    __slots__ = __match_args__ = ("variables", "equalities", "strict_inequalities")

    def __init__(
        self,
        variables: tuple[Hashable, ...],
        equalities: tuple[tuple[Hashable, Hashable], ...],
        strict_inequalities: tuple[tuple[Hashable, Hashable], ...],
    ) -> None:
        self._set(variables, equalities, strict_inequalities)


def strict_feasible(system: StrictLinearSystem) -> dict | None:
    """An exact point meeting every constraint of the system, or None when none does.

    A constraint on a variable outside ``system.variables`` raises ``ValueError``.
    """
    ids = {v: i for i, v in enumerate(system.variables)}
    try:
        equal = [(ids[u], ids[w]) for u, w in system.equalities]
        greater = [(ids[u], ids[w]) for u, w in system.strict_inequalities]
    except KeyError as exc:
        raise ValueError(f"constraint mentions unknown variable {exc.args[0]!r}") from None
    levels = _solve_levels(len(ids), equal, greater)
    return None if levels is None else dict(zip(system.variables, map(Fraction, levels)))


# --------------------------------------------------------------------------
# joint feasibility of two trees against one cord set
# --------------------------------------------------------------------------


def joint_isometry_system(
    tree: XTree, rival: XTree, cords: Iterable[Cord]
) -> StrictLinearSystem:
    """The exact system "both trees carry proper weightings fitting every cord".

    Variables are the interior heights of both trees (tagged "T" and "R");
    properness contributes a strict order along every interior edge; every
    cord contributes one equality between the heights of its two meeting
    vertices.  No height is bounded below: the constraints only compare
    heights, and the engine's least point is nonnegative.
    """
    if tree.leaf_labels != rival.leaf_labels:
        raise ValueError("trees are on different leaf sets")
    mine, theirs = tree._cord_meets(sorted(validate_cords(cords, tree.leaf_labels)), rival)
    both = (("T", tree), ("R", rival))
    variables = tuple((tag, v) for tag, t in both for v in t.interior_vertices())
    strict = tuple(  # interior_vertices() is in preorder: the root comes first
        ((tag, t.parent(v)), (tag, v)) for tag, t in both for v in t.interior_vertices()[1:]
    )
    equalities = tuple((("T", m[0]), ("R", r[0])) for m, r in zip(mine, theirs))
    return StrictLinearSystem(variables, equalities, strict)


# --------------------------------------------------------------------------
# oracle decisions with witnesses
# --------------------------------------------------------------------------


class Witness(_Record):
    """Two jointly fitting weightings that exhibit a lasso failure.

    ``rival`` equals the reference tree for equidistant failures (two
    distinct weightings of the same tree); for weak/topological failures it
    is a non-refining / non-equivalent tree fitting the same cord distances.
    """

    __slots__ = __match_args__ = ("rival", "heights_t", "heights_rival")

    def __init__(self, rival: XTree, heights_t: HeightMap, heights_rival: HeightMap) -> None:
        self._set(rival, heights_t, heights_rival)


def _new_witness(rival: XTree, heights_t: HeightMap, heights_rival: HeightMap) -> Witness:
    witness = Witness.__new__(Witness)
    store_rival, store_t, store_r = Witness._setters  # _set's stores, without its loop
    store_rival(witness, rival)
    store_t(witness, heights_t)
    store_r(witness, heights_rival)
    return witness


def _witness(tree: XTree, rival: XTree, levels: list[int], offset: int) -> Witness:
    """Read a witness off the levels of a solved joint system.

    The tree's levels start at id 0 and the rival's at id ``offset``, each
    in its tree's interior preorder.
    """
    rival_levels = levels[offset : offset + len(rival._interior)]
    return _new_witness(
        rival,
        HeightMap._from_levels(tree, levels[: len(tree._interior)]),
        HeightMap._from_levels(rival, rival_levels),
    )


def _floor_map(tree: XTree, view: Mapping[int, Fraction]) -> HeightMap:
    """A new height map of ``tree`` over the rival table's checked view of its least levels."""
    heights = HeightMap.__new__(HeightMap)
    store_tree, store_heights = HeightMap._setters  # the view is read-only, so maps share it
    store_tree(heights, tree)
    store_heights(heights, view)
    return heights


class _RivalTable(_Record):
    """Every tree on one leaf set, as rows the rival scan reads without rebuilding.

    ``rows`` lists ``(tree, edges, meets, relation, clusters, own_edges,
    least, view)`` per enumerated tree in canonical order, as the module
    docstring describes: ``edges`` on ids shifted by ``offset``,
    ``own_edges`` on ids ``0..``, ``least`` the tree's least levels in
    interior preorder and ``view`` their checked read-only height mapping.
    Cord pair (i, j), i < j, is entry ``pair_base[i] + j`` of ``relation``
    and of ``conflicts``, whose entry, indexed by a relation, is the mask of
    rows in conflict with it.  ``containing`` maps a cluster's cord mask to
    the mask of rows whose trees have that cluster.
    """

    __slots__ = __match_args__ = (
        "offset", "cord_index", "pair_base", "conflicts", "containing", "rows", "row_of",
    )

    offset: int
    cord_index: dict[Cord, int]
    pair_base: tuple[int, ...]
    conflicts: tuple[tuple[int, int, int, int], ...]
    containing: dict[int, int]
    rows: tuple[tuple, ...]  # (tree, edges, meets, relation, clusters, own_edges, least, view)
    row_of: dict[XTree, int]

    def __init__(self, offset, cord_index, pair_base, conflicts, containing, rows, row_of) -> None:
        self._set(offset, cord_index, pair_base, conflicts, containing, rows, row_of)


# The relation of cord pair (i, j), i < j, in one tree, by where the two
# cords meet: apart (neither vertex lies on or above the other), cord i
# strictly above cord j, strictly below it, or at the same vertex.
_APART, _ABOVE, _BELOW, _EQUAL = range(4)
# Rows whose relation is ``rel``, read off a column of relation bytes as a
# binary numeral, row 0 last.
_ROWS_WITH = [b"0" * rel + b"1" + b"0" * (255 - rel) for rel in range(4)]


@lru_cache(maxsize=_KEPT_LEAF_SETS)
def _rival_table(leaf_labels: frozenset[str]) -> _RivalTable:
    """The rival table of a leaf set, kept among the last few asked for."""
    labels = _check_enumeration_domain(leaf_labels)
    trees = _enumerate(labels)
    offset = len(labels) - 1
    cord_index = {c: i for i, c in enumerate(combinations(labels, 2))}
    m = len(cord_index)
    n_pairs = m * (m - 1) // 2
    pair_base = tuple(i * m - i * (i + 3) // 2 - 1 for i in range(m))
    # Byte p of weight[i] is 8 where cord i is pair p's first cord and 1 where
    # it is the second, so sum(meets[i] * weight[i]) holds 8 * a + b in the
    # byte of a pair meeting at interior indices a and b (below 8 up to 9 leaves).
    weight = [0] * m
    for p, (i, j) in enumerate(combinations(range(m), 2)):
        weight[i] += 8 << 8 * p
        weight[j] += 1 << 8 * p
    shared = {}  # properness edges -> the same at ids offset.. and 0.., relations, least levels
    views = {}  # interior ids and least levels -> their checked height view
    interned = {}  # one int per distinct cluster mask, shared by the rows
    rows = []
    containing = {}  # cord mask of a cluster -> rows whose trees have that cluster
    for r, tree in enumerate(trees):
        interior, last, leaf = tree.interior_vertices(), tree._last, tree._leaf_id
        # Bit k of above[u]: u lies in interior vertex k's preorder range.  The
        # deepest such vertex has the largest k, so a cord meets at the largest
        # k its two ends share, and a vertex's parent is the largest k set
        # before the vertex's own.  The keys are normal cords, and meeting them
        # by XTree._cord_meets instead took a build from 5.8 to 8.3 ms at five
        # leaves and from 87 to 133 ms at six (a 2-vCPU host).
        above = [0] * tree.n_vertices
        edges = []
        for k, v in enumerate(interior):  # preorder: parents first
            if k:
                edges.append((offset + above[v].bit_length() - 1, offset + k))
            for u in range(v, last[v] + 1):
                above[u] |= 1 << k
        edges = tuple(edges)
        meets = tuple([(above[leaf[a]] & above[leaf[b]]).bit_length() - 1 for a, b in cord_index])
        if edges not in shared:  # trees of one unlabeled shape share these
            between = bytearray(256)  # byte 8 * a + b: how interior vertices a and b relate
            for (a, u), (b, w) in product(enumerate(interior), repeat=2):
                between[8 * a + b] = (
                    _EQUAL if u == w
                    else _ABOVE if u < w <= last[u]
                    else _BELOW if w < u <= last[w]
                    else _APART
                )
            own = tuple((a - offset, b - offset) for a, b in edges)
            # The least levels: 0 at a vertex with leaf children only, else
            # one above the highest interior child.  Reversed preorder puts a
            # vertex's edges to its children after theirs to their own, so
            # each child's level is final when it is read.
            least = [0] * len(interior)
            for a, b in reversed(own):
                if least[a] <= least[b]:
                    least[a] = least[b] + 1
            shared[edges] = edges, own, bytes(between), tuple(least)
        edges, own_edges, between, least = shared[edges]
        if (interior, least) not in views:
            views[interior, least] = HeightMap._from_levels(tree, least).heights
        view = views[interior, least]
        relation = sum(map(mul, meets, weight)).to_bytes(n_pairs, "little").translate(between)
        cords_at = [0] * tree.n_vertices  # the cord mask of each meeting vertex
        for i, k in enumerate(meets):
            cords_at[interior[k]] |= 1 << i
        clusters = []
        for v in interior[1:]:
            mask = sum(cords_at[v : last[v] + 1])  # masks of distinct vertices share no bit
            clusters.append(interned.setdefault(mask, mask))
            containing[mask] = containing.get(mask, 0) | 1 << r
        rows.append((tree, edges, meets, relation, tuple(clusters), own_edges, least, view))
    # Column p of the relation bytes holds pair p's relation in every row;
    # it gives the rows in conflict with each relation of that pair.
    flat = b"".join(row[3] for row in rows)
    conflicts = []
    for p in range(n_pairs):
        column = flat[p::n_pairs][::-1]
        above, below, equal = (
            int(column.translate(_ROWS_WITH[rel]), 2) for rel in (_ABOVE, _BELOW, _EQUAL)
        )
        conflicts.append((0, below | equal, above | equal, above | below))
    return _RivalTable(
        offset=offset,
        cord_index=cord_index,
        pair_base=pair_base,
        conflicts=tuple(conflicts),
        containing=containing,
        rows=tuple(rows),
        row_of={tree: r for r, tree in enumerate(trees)},
    )


def _rival_scan(
    tree: XTree,
    cords: Iterable[Cord],
    weak: bool,
    rival_sample: int | None = None,
    seed: int = 0,
) -> tuple[bool, Witness | None]:
    """The weak and topological decisions, which differ only in the rows skipped.

    The weak scan skips the rivals that refine the tree, the rows in every
    one of its cluster masks; the topological one only the tree itself.  Of
    the remaining rivals, those in conflict with the tree on a pair of given
    cords are dropped as a whole mask, and the sweep over cord pairs stops
    once no row is left.  The rest are tried in canonical order, and the
    first feasible one is the witness: a floor witness when the two trees'
    least levels agree at every given cord's meeting vertices, as the
    module docstring explains, and otherwise the engine's point.  The
    verdict is that there is no witness.
    """
    _require_domain(tree)
    labels = tree.leaf_labels
    if len(labels) > _MAX_LEAVES:  # the leaf cap is checked last
        validate_cords(cords, labels)
        _check_sample(rival_sample)
    table = _rival_table(labels)
    # the table's cord index holds exactly the normal cords
    index = _by_lookup(
        lambda given: sorted(set(map(table.cord_index.__getitem__, given))), cords, labels
    )
    _check_sample(rival_sample)
    rows = table.rows
    everyone = (1 << len(rows)) - 1
    r = table.row_of[tree]
    _, _, t_meets, relation, clusters, t_edges, t_least, t_view = rows[r]
    if weak:
        bad = everyone
        for cluster in clusters:
            bad &= table.containing[cluster]
    else:
        bad = 1 << r
    pair_base, conflicts = table.pair_base, table.conflicts
    for a, i in enumerate(index):
        if bad == everyone:
            return True, None
        base = pair_base[i]
        for p in index[a + 1 :]:
            p += base
            bad |= conflicts[p][relation[p]]
    alive = everyone & ~bad
    if rival_sample is not None and rival_sample < len(rows):
        picked = random.Random(seed).sample(range(len(rows)), rival_sample)
        alive &= sum(1 << p for p in picked)
    k = table.offset
    floor = [t_least[t_meets[i]] for i in index]
    while alive:
        low = alive & -alive
        alive ^= low
        rival, edges, meets, _, _, _, least, view = rows[low.bit_length() - 1]
        if [least[meets[i]] for i in index] == floor:
            return False, _new_witness(rival, _floor_map(tree, t_view), _floor_map(rival, view))
        equal = [(t_meets[i], k + meets[i]) for i in index]
        levels = _solve_levels(2 * k, equal, t_edges + edges)
        if levels is not None:
            return False, _witness(tree, rival, levels, k)
    return True, None


def _check_sample(rival_sample: int | None) -> None:
    if rival_sample is None:
        return
    if not isinstance(rival_sample, int) or isinstance(rival_sample, bool):
        raise TypeError(f"rival_sample must be an int, got {rival_sample!r}")
    if rival_sample < 1:
        raise ValueError(f"rival_sample must be at least 1, got {rival_sample}")


def oracle_weak(
    tree: XTree,
    cords: Iterable[Cord],
    *,
    rival_sample: int | None = None,
    seed: int = 0,
) -> tuple[bool, Witness | None]:
    """Does every tree fitting the cord distances refine this one?  By definition.

    Exhaustive over all rivals, up to 6 leaves.  With ``rival_sample`` set,
    a seeded random subset of ``rival_sample`` rivals (an int, at least 1) is
    scanned instead: a False answer is still certain, a True answer is not.
    """
    return _rival_scan(tree, cords, True, rival_sample, seed)


def oracle_topological(
    tree: XTree, cords: Iterable[Cord]
) -> tuple[bool, Witness | None]:
    """Is the tree shape forced up to equivalence?  Decided by definition.

    Exhaustive over all rivals, up to 6 leaves.
    """
    return _rival_scan(tree, cords, False)


def oracle_equidistant(
    tree: XTree, cords: Iterable[Cord]
) -> tuple[bool, Witness | None]:
    """Is the proper weighting unique given the cord distances?  By definition.

    False exactly when, for some interior vertex, two valid height vectors
    on the same tree agree on every cord's meeting height yet differ at that
    vertex; the witness carries such a pair of weightings.  Vertices where a
    given cord meets are never tried: the cords pin them equal in both
    vectors, so they cannot differ there.  The tables are worked out in
    each call and not kept, and no rival is read, so any number of leaves
    is allowed.
    """
    _require_domain(tree)
    interior, parent = tree.interior_vertices(), tree._parent
    k = len(interior)
    index = {v: i for i, v in enumerate(interior)}
    edges = [(index[parent[v]], index[v]) for v in interior[1:]]  # preorder: root first
    both = edges + [(k + a, k + b) for a, b in edges]
    [meets] = tree._cord_meets(cords)
    met = {index[v] for v, _, _ in meets}
    equal = [(i, k + i) for i in sorted(met)]
    for i in range(k):
        if i in met:  # x_i = x_{k+i} and x_i > x_{k+i}: a strict self-loop
            continue
        levels = _solve_levels(2 * k, equal, both + [(i, k + i)])
        if levels is not None:
            return False, _witness(tree, tree, levels, k)
    return True, None


def verify_witness(
    tree: XTree, cords: Iterable[Cord], witness: Witness, kind: str
) -> bool:
    """Re-check a witness: valid weightings, cord distances match, claim violated.

    The first weighting must be on ``tree`` and the second on the witness's
    rival; heights on any other tree prove nothing about these two, and a
    rival on another leaf set is no rival.  Both height maps are validated
    afresh, so edited heights must still be proper.  An unknown ``kind``
    raises ``ValueError`` whatever the witness.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown witness kind {kind!r}")
    if (
        witness.heights_t.tree != tree
        or witness.heights_rival.tree != witness.rival
        or witness.rival.leaf_labels != tree.leaf_labels
    ):
        return False
    try:
        heights_t = HeightMap(tree, witness.heights_t.heights)
        heights_rival = HeightMap(witness.rival, witness.heights_rival.heights)
    except ValueError:
        return False
    if not heights_t.is_l_isometric(heights_rival, cords):
        return False
    if kind == "equidistant":
        return witness.rival == tree and heights_t.heights != heights_rival.heights
    if kind == "weak":
        return not witness.rival.refines(tree)
    return not tree.is_equivalent(witness.rival)
