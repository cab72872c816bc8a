"""treelasso: when do partial leaf distances pin down an equidistant rooted tree?

Given a rooted tree on a labeled leaf set and a set of cords (unordered leaf
pairs standing for known pairwise distances), this library decides whether
the cords force the equidistant edge-weighting (equidistant lasso), the tree
shape (topological lasso), or the shape up to refinement (weak lasso /
corral).  Decisions run in two independent ways: combinatorially from the
child-edge graphs of the interior vertices, and definition-level on small
leaf sets by enumerating rival trees and solving exact rational systems with
strict inequalities.
"""

from .builders import (
    Bipartition,
    CircularOrdering,
    bipartition_lasso,
    circular_lasso,
    circular_order,
    min_equidistant_lasso,
    min_topological_lasso,
    min_weak_lasso,
    random_cord_set,
)
from .childgraph import ChildEdgeGraph, build_child_edge_graph, child_edge_graphs
from .cords import (
    Cord,
    CordFileError,
    all_cords,
    cord,
    cord_set,
    format_cord_file,
    read_cord_file,
)
from .feasibility import StrictLinearSystem, linear_system, strict_feasible
from .heights import (
    EdgeWeighting,
    HeightMap,
    WeightingError,
    random_proper_heights,
)
from .lasso import (
    LassoReport,
    classify,
    cord_graph,
    is_covering,
    reduce_by_cherry,
    reduction_check,
)
from .newick import NewickParseError, parse_newick, print_newick
from .oracle import (
    Witness,
    enumerate_binary_xtrees,
    enumerate_xtrees,
    joint_isometry_system,
    oracle_equidistant,
    oracle_topological,
    oracle_weak,
    verify_witness,
)
from .tree import Triplet, XTree, triplet

__all__ = [
    "Bipartition",
    "ChildEdgeGraph",
    "CircularOrdering",
    "Cord",
    "CordFileError",
    "EdgeWeighting",
    "HeightMap",
    "LassoReport",
    "NewickParseError",
    "StrictLinearSystem",
    "Triplet",
    "WeightingError",
    "Witness",
    "XTree",
    "all_cords",
    "bipartition_lasso",
    "build_child_edge_graph",
    "child_edge_graphs",
    "circular_lasso",
    "circular_order",
    "classify",
    "cord",
    "cord_graph",
    "cord_set",
    "enumerate_binary_xtrees",
    "enumerate_xtrees",
    "format_cord_file",
    "is_covering",
    "joint_isometry_system",
    "linear_system",
    "min_equidistant_lasso",
    "min_topological_lasso",
    "min_weak_lasso",
    "oracle_equidistant",
    "oracle_topological",
    "oracle_weak",
    "parse_newick",
    "print_newick",
    "random_cord_set",
    "random_proper_heights",
    "read_cord_file",
    "reduce_by_cherry",
    "reduction_check",
    "strict_feasible",
    "triplet",
    "verify_witness",
]

__version__ = "0.1.0"
