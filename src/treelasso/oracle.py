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
returned as a witness, so results are reproducible.  Cord equalities only
ever identify two heights and properness is a set of strict height
differences, so the scan hands each joint system straight to the exact
difference-constraint engine behind :func:`strict_feasible`, over dense
integer variable ids.  The engine's verdict and its exact point come from
the same call: the point of the first feasible rival is the witness.

The scan reads its rivals from one table per leaf set, built once, with a
row per enumerated tree in canonical order.  A row holds the tree's
properness edges with its heights placed at ids ``K..``, ``K`` = (number of
leaves) - 1, so any reference tree fits below them; the interior index of
each cord's meeting vertex, in :func:`all_cords` order; and two flattened
m x m cord-order bitmasks over the m leaf pairs: bit ``i*m + j`` of the
first says cord i meets at a proper ancestor of where cord j meets, and of
the second that cord j meets at an ancestor of, or at, where cord i meets.
Both are read off each vertex's leaf set, as the cords with both ends in
it.  If a pair of the given cords meets strictly higher in one tree and
weakly lower in the other, the two cord equalities close a strict cycle
through the properness edges, so the rival is infeasible; each decision
masks the reference tree's bitmasks with its cord pairs once and rejects
such a rival with two integer ANDs.  Every other rival still goes to the
engine.

The equidistant decision needs no rivals, so it reads only per-tree tables
and works on trees of any size.  It puts two copies of the tree's heights
side by side, ties them with one equality per vertex where a given cord
meets, and asks the engine, vertex by vertex, for the first copy to sit
strictly above the second.  At a vertex where a cord meets, that strict
edge and the equality close a strict self-loop, so the engine could only
answer None; those vertices are skipped and the first feasible vertex, the
verdict and the witness are unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .cords import Cord, validate_cords
from .feasibility import StrictLinearSystem, _solve_differences, linear_system
from .heights import HeightMap
from .tree import XTree

__all__ = [
    "Witness",
    "enumerate_binary_xtrees",
    "enumerate_xtrees",
    "joint_isometry_system",
    "oracle_equidistant",
    "oracle_topological",
    "oracle_weak",
    "verify_witness",
]

_MAX_LEAVES = 6
_MAX_EXHAUSTIVE = 5


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


@lru_cache(maxsize=None)
def _shapes(labels: tuple[str, ...]) -> tuple:
    """Every tree shape on ``labels`` (nested-tuple form), one per equivalence class."""
    if len(labels) == 1:
        return (labels[0],)
    out = []
    for blocks in _set_partitions(labels):
        if len(blocks) < 2:
            continue
        options = [_shapes(tuple(sorted(b))) for b in blocks]
        for combo in product(*options):
            out.append(tuple(combo))
    return tuple(out)


def _check_enumeration_domain(labels: Sequence[str]) -> tuple[str, ...]:
    ordered = tuple(sorted(set(labels)))
    if len(ordered) != len(tuple(labels)):
        raise ValueError("duplicate labels in leaf set")
    if not 2 <= len(ordered) <= _MAX_LEAVES:
        raise ValueError(
            f"enumeration supports 2..{_MAX_LEAVES} leaves, got {len(ordered)}"
        )
    return ordered


@lru_cache(maxsize=None)
def _enumerate(labels: tuple[str, ...]) -> tuple[XTree, ...]:
    trees = [XTree(shape) for shape in _shapes(labels)]
    trees.sort(key=lambda t: t.canonical_newick())
    return tuple(trees)


def enumerate_xtrees(labels: Iterable[str]) -> tuple[XTree, ...]:
    """Every tree on the label set, one per equivalence class, canonical order."""
    return _enumerate(_check_enumeration_domain(tuple(labels)))


def enumerate_binary_xtrees(labels: Iterable[str]) -> tuple[XTree, ...]:
    """The binary trees on the label set, filtered out of the full enumeration."""
    return tuple(t for t in enumerate_xtrees(labels) if t.is_binary())


# --------------------------------------------------------------------------
# joint feasibility of two trees against one cord set
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tables(tree: XTree):
    """Dense per-tree tables over interior indices (canonical order).

    Returns the properness edges of two copies of the tree as engine
    constraints ``(parent, child, 0, True)``, the second copy's ids shifted
    by ``k``; the leaf-pair lca index; and ``k``, the number of interior
    vertices.
    """
    interior = tree.interior_vertices()
    k = len(interior)
    index = {v: i for i, v in enumerate(interior)}
    edges = [(index[tree.parent(v)], index[v]) for v in interior if v != tree.root]
    both = tuple((a, b, 0, True) for a, b in edges) + tuple(
        (k + a, k + b, 0, True) for a, b in edges
    )
    lca_index = {}
    labels = sorted(tree.leaf_labels)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            lca_index[(a, b)] = index[tree.lca(a, b)]
    return both, lca_index, k


def joint_isometry_system(
    tree: XTree, rival: XTree, cords: Iterable[Cord]
) -> StrictLinearSystem:
    """The exact system "both trees carry proper weightings fitting every cord".

    Variables are the interior heights of both trees (tagged "T" and "R"),
    all nonnegative; properness contributes a strict difference along every
    interior edge; every cord contributes one equality between the heights
    of its two meeting vertices.
    """
    if tree.leaf_labels != rival.leaf_labels:
        raise ValueError("trees are on different leaf sets")
    checked = validate_cords(cords, tree.leaf_labels)
    variables = [("T", v) for v in tree.interior_vertices()]
    variables += [("R", v) for v in rival.interior_vertices()]
    strict = []
    for v in tree.interior_vertices():
        p = tree.parent(v)
        if p is not None:
            strict.append(({("T", p): 1, ("T", v): -1}, 0))
    for v in rival.interior_vertices():
        p = rival.parent(v)
        if p is not None:
            strict.append(({("R", p): 1, ("R", v): -1}, 0))
    equalities = []
    for a, b in sorted(checked):
        equalities.append(
            ({("T", tree.lca(a, b)): 1, ("R", rival.lca(a, b)): -1}, 0)
        )
    return linear_system(
        variables, equalities=equalities, strict=strict, nonneg=variables
    )


# --------------------------------------------------------------------------
# oracle decisions with witnesses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Two jointly fitting weightings that exhibit a lasso failure.

    ``rival`` equals the reference tree for equidistant failures (two
    distinct weightings of the same tree); for weak/topological failures it
    is a non-refining / non-equivalent tree fitting the same cord distances.
    """

    rival: XTree
    heights_t: HeightMap
    heights_rival: HeightMap


def _witness(tree: XTree, rival: XTree, values: list, offset: int) -> Witness:
    """Read a witness off a solved joint system: tree heights, then rival heights.

    The tree's heights start at id 0 and the rival's at id ``offset``.
    """
    return Witness(
        rival=rival,
        heights_t=HeightMap(tree, dict(zip(tree.interior_vertices(), values))),
        heights_rival=HeightMap(
            rival, dict(zip(rival.interior_vertices(), values[offset:]))
        ),
    )


def _require_lasso_domain(tree: XTree) -> None:
    if len(tree.leaf_labels) < 3:
        raise ValueError("lasso oracles need at least 3 leaves")


@dataclass(frozen=True)
class _RivalTable:
    """Every tree on one leaf set, as rows the rival scan reads without rebuilding.

    ``rows`` lists ``(tree, edges, meets, above, below)`` per enumerated tree
    in canonical order: properness edges as engine constraints on ids shifted
    by ``offset``, the interior index of each cord's meeting vertex, and the
    two flattened cord-order bitmasks (see the module docstring).
    """

    offset: int
    cord_index: dict[Cord, int]
    rows: tuple[tuple[XTree, tuple, tuple[int, ...], int, int], ...]
    row_of: dict[XTree, int]


@lru_cache(maxsize=None)
def _rival_table(labels: tuple[str, ...]) -> _RivalTable:
    """The rival table of a sorted leaf set, built once per process."""
    trees = _enumerate(labels)
    offset = len(labels) - 1
    cord_index = {c: i for i, c in enumerate(combinations(labels, 2))}
    m = len(cord_index)
    inside = {}  # leaf set -> cords with both ends in it
    for size in range(len(labels) + 1):
        for subset in combinations(labels, size):
            inside[frozenset(subset)] = sum(
                1 << cord_index[c] for c in combinations(subset, 2)
            )
    members = {}  # cord bitmask -> (its cord indices, their row bits i*m)
    rows = []
    for tree in trees:
        interior = tree.interior_vertices()
        within = {v: inside[tree.leaves_below(v)] for v in interior}
        index = {}
        edges = []
        meets = [0] * m
        upward = {}  # vertex -> cords meeting at it or at an ancestor
        above = below = 0
        for k, v in enumerate(interior):  # preorder: parents first
            index[v] = k
            p = tree.parent(v)
            if k:
                edges.append((offset + index[p], offset + k, 0, True))
            under = 0
            for c in tree.children(v):
                under |= within.get(c, 0)
            here = within[v] & ~under
            up = upward[v] = here | upward.get(p, 0)
            if here not in members:
                bits = [i for i in range(m) if here >> i & 1]
                members[here] = (bits, sum(1 << (i * m) for i in bits))
            bits, spread = members[here]
            for i in bits:
                meets[i] = k
            above |= under * spread
            below |= up * spread
        rows.append((tree, tuple(edges), tuple(meets), above, below))
    return _RivalTable(
        offset=offset,
        cord_index=cord_index,
        rows=tuple(rows),
        row_of={tree: r for r, tree in enumerate(trees)},
    )


def _rival_scan(
    tree: XTree,
    cords: frozenset[Cord],
    skip,
    rival_sample: int | None,
    seed: int,
) -> Witness | None:
    """The witness of the first rival in canonical order, not skipped, fitting the cords."""
    if rival_sample is not None and rival_sample < 1:
        raise ValueError(f"rival_sample must be at least 1, got {rival_sample}")
    n = len(tree.leaf_labels)
    if rival_sample is None and n > _MAX_EXHAUSTIVE:
        raise ValueError(
            f"leaf set too large for exhaustive rival enumeration "
            f"(>{_MAX_EXHAUSTIVE}); pass rival_sample for a sampled, "
            f"non-exhaustive answer"
        )
    table = _rival_table(_check_enumeration_domain(tree.leaf_labels))
    rows = table.rows
    if rival_sample is not None and rival_sample < len(rows):
        picked = random.Random(seed).sample(range(len(rows)), rival_sample)
        rows = [rows[r] for r in sorted(picked)]
    k = table.offset
    _, t_edges, t_meets, t_above, t_below = table.rows[table.row_of[tree]]
    t_edges = tuple((a - k, b - k, 0, True) for a, b, _, _ in t_edges)
    index = [table.cord_index[c] for c in sorted(cords)]
    m = len(table.cord_index)
    mask = spread = 0
    for i in index:
        mask |= 1 << i
        spread |= 1 << (i * m)
    pairs = spread * mask  # bit i*m + j for every pair of given cords
    t_above &= pairs
    t_below &= pairs
    for rival, edges, meets, above, below in rows:
        if t_above & below or t_below & above or skip(rival):
            continue
        equal = [(t_meets[i], k + meets[i], 0) for i in index]
        values = _solve_differences(2 * k, equal, t_edges + edges)
        if values is not None:
            return _witness(tree, rival, values, k)
    return None


def oracle_weak(
    tree: XTree,
    cords: Iterable[Cord],
    *,
    rival_sample: int | None = None,
    seed: int = 0,
) -> tuple[bool, Witness | None]:
    """Does every tree fitting the cord distances refine this one?  By definition.

    Exhaustive over all rivals up to 5 leaves.  With ``rival_sample`` set, a
    random subset of ``rival_sample`` rivals (at least 1) is scanned instead,
    allowed up to 6 leaves: a False answer is still certain, a True answer is
    sampled, not exhaustive.
    """
    _require_lasso_domain(tree)
    checked = validate_cords(cords, tree.leaf_labels)
    witness = _rival_scan(
        tree, checked, skip=lambda r: r.refines(tree), rival_sample=rival_sample, seed=seed
    )
    return witness is None, witness


def oracle_topological(
    tree: XTree,
    cords: Iterable[Cord],
    *,
    rival_sample: int | None = None,
    seed: int = 0,
) -> tuple[bool, Witness | None]:
    """Is the tree shape forced up to equivalence?  Decided by definition.

    Same sampling contract as :func:`oracle_weak`.
    """
    _require_lasso_domain(tree)
    checked = validate_cords(cords, tree.leaf_labels)
    witness = _rival_scan(
        tree, checked, skip=lambda r: r == tree, rival_sample=rival_sample, seed=seed
    )
    return witness is None, witness


def oracle_equidistant(
    tree: XTree, cords: Iterable[Cord]
) -> tuple[bool, Witness | None]:
    """Is the proper weighting unique given the cord distances?  By definition.

    False exactly when, for some interior vertex, two valid height vectors
    on the same tree agree on every cord's meeting height yet differ at that
    vertex; the witness carries such a pair of weightings.  Vertices where a
    given cord meets are never tried: the cords pin them equal in both
    vectors, so they cannot differ there.  The tables are per tree, so any
    number of leaves is allowed.
    """
    _require_lasso_domain(tree)
    checked = validate_cords(cords, tree.leaf_labels)
    both, lca_index, k = _tables(tree)
    met = {lca_index[c] for c in checked}
    equal = [(i, k + i, 0) for i in sorted(met)]
    for i in range(k):
        if i in met:  # x_i = x_{k+i} and x_i > x_{k+i}: a strict self-loop
            continue
        values = _solve_differences(2 * k, equal, both + ((i, k + i, 0, True),))
        if values is not None:
            return False, _witness(tree, tree, values, k)
    return True, None


def verify_witness(
    tree: XTree, cords: Iterable[Cord], witness: Witness, kind: str
) -> bool:
    """Re-check a witness: valid weightings, cord distances match, claim violated."""
    checked = validate_cords(cords, tree.leaf_labels)
    if not witness.heights_t.is_l_isometric(witness.heights_rival, checked):
        return False
    if kind == "equidistant":
        return witness.rival == tree and (
            witness.heights_t.heights != witness.heights_rival.heights
        )
    if kind == "weak":
        return not witness.rival.refines(tree)
    if kind == "topological":
        return not tree.is_equivalent(witness.rival)
    raise ValueError(f"unknown witness kind {kind!r}")
