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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
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

    Returns the properness edges as engine constraints ``(parent, child, 0,
    True)``, the leaf-pair lca index, and the number of interior vertices.
    """
    interior = tree.interior_vertices()
    index = {v: i for i, v in enumerate(interior)}
    edges = tuple(
        (index[tree.parent(v)], index[v], 0, True) for v in interior if v != tree.root
    )
    lca_index = {}
    labels = sorted(tree.leaf_labels)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            lca_index[(a, b)] = index[tree.lca(a, b)]
    return edges, lca_index, len(interior)


def _shifted(edges, offset: int) -> list:
    return [(offset + a, offset + b, 0, True) for a, b, _, _ in edges]


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


def _witness(tree: XTree, rival: XTree, values: list) -> Witness:
    """Read a witness off a solved joint system: tree heights, then rival heights."""
    t_interior = tree.interior_vertices()
    return Witness(
        rival=rival,
        heights_t=HeightMap(tree, dict(zip(t_interior, values))),
        heights_rival=HeightMap(
            rival, dict(zip(rival.interior_vertices(), values[len(t_interior) :]))
        ),
    )


def _require_lasso_domain(tree: XTree) -> None:
    if len(tree.leaf_labels) < 3:
        raise ValueError("lasso oracles need at least 3 leaves")


def _rival_scan(
    tree: XTree,
    cords: frozenset[Cord],
    skip,
    rival_sample: int | None,
    seed: int,
) -> Witness | None:
    """The witness of the first rival in canonical order, not skipped, fitting the cords."""
    n = len(tree.leaf_labels)
    if rival_sample is None and n > _MAX_EXHAUSTIVE:
        raise ValueError(
            f"leaf set too large for exhaustive rival enumeration "
            f"(>{_MAX_EXHAUSTIVE}); pass rival_sample for a sampled, "
            f"non-exhaustive answer"
        )
    rivals = enumerate_xtrees(sorted(tree.leaf_labels))
    if rival_sample is not None and rival_sample < len(rivals):
        picked = random.Random(seed).sample(rivals, rival_sample)
        rivals = tuple(sorted(picked, key=lambda t: t.canonical_newick()))
    t_edges, t_lca, k1 = _tables(tree)
    cord_list = sorted(cords)
    t_side = [t_lca[c] for c in cord_list]
    for rival in rivals:
        if skip(rival):
            continue
        r_edges, r_lca, k2 = _tables(rival)
        greater = list(t_edges) + _shifted(r_edges, k1)
        equal = [(t_side[i], k1 + r_lca[c], 0) for i, c in enumerate(cord_list)]
        values = _solve_differences(k1 + k2, equal, greater)
        if values is not None:
            return _witness(tree, rival, values)
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
    random rival subset is scanned instead (allowed up to 6 leaves): a False
    answer is still certain, a True answer is sampled, not exhaustive.
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
    vertex; the witness carries such a pair of weightings.
    """
    _require_lasso_domain(tree)
    checked = validate_cords(cords, tree.leaf_labels)
    edges, lca_index, k = _tables(tree)
    both = list(edges) + _shifted(edges, k)
    equal = [(lca_index[c], k + lca_index[c], 0) for c in sorted(checked)]
    for i in range(k):
        values = _solve_differences(2 * k, equal, both + [(i, k + i, 0, True)])
        if values is not None:
            return False, _witness(tree, tree, values)
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
