"""The tree walkers' output, pinned to a recorded digest.

``print_newick``, ``circular_order``, ``HeightMap.to_edge_weights`` and
``from_edge_weights``, ``child_edge_graphs`` with ``to_dot`` and
``joint_isometry_system`` each walk a whole tree.  Their outputs, dict order
included, are hashed over every four-leaf tree, seeded random trees of 6 to
1000 leaves, a star and a 2000-deep caterpillar; the caterpillar also shows
that no walk recurses.  The digest was recorded before the walkers read the
tree's arrays instead of its checked accessors.
"""

import hashlib

from conftest import LABELS4, caterpillar, random_cords, random_proper_heights, random_xtree
from treelasso import (
    HeightMap,
    XTree,
    child_edge_graphs,
    circular_order,
    enumerate_xtrees,
    joint_isometry_system,
    print_newick,
)

WALKS_SHA256 = "0f789f13a3ed5dc1608bc2b69bc97d8ce67b79377af2e4a3f648502ce3e32853"


def _walks(tree: XTree, rival: XTree, seed: int) -> tuple:
    """Every walker's output on one tree, in a form whose repr pins it."""
    heights = random_proper_heights(tree, seed)
    weighting = heights.to_edge_weights()
    cords = random_cords(tree, min(len(tree.leaf_labels), 300), seed)
    graphs = child_edge_graphs(tree, cords)
    system = joint_isometry_system(tree, rival, cords)
    return (
        print_newick(tree),
        print_newick(tree, weighting),
        [circular_order(tree, seed=s).order for s in (None, 0, 1, 2)],
        list(weighting.by_child.items()),
        list(HeightMap.from_edge_weights(weighting).heights.items()),
        [(v, g.nodes, sorted(g.edges()), g.to_dot()) for v, g in graphs.items()],
        (system.variables, system.equalities, system.strict_inequalities),
    )


def test_walks_match_their_recorded_digest():
    four = enumerate_xtrees(LABELS4)
    cases = [(t, four[-1 - i], i) for i, t in enumerate(four)]
    for n in (6, 7, 9, 12, 20, 50, 100, 300, 1000):
        for binary in (False, True):
            cases.append((random_xtree(n, n, binary=binary), random_xtree(n, n + 1), n))
    star = XTree(tuple(f"t{i}" for i in range(40)))
    cases.append((star, random_xtree(40, 3), 40))
    cases.append((caterpillar(2000), random_xtree(2001, 5, prefix="c"), 2000))
    digest = hashlib.sha256()
    for tree, rival, seed in cases:
        digest.update(repr((tree.canonical_newick(), _walks(tree, rival, seed))).encode())
    assert len(cases) == 46
    assert digest.hexdigest() == WALKS_SHA256
