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

from . import builders, childgraph, cords, feasibility, heights, lasso, newick, oracle, tree
from .builders import *
from .childgraph import *
from .cords import *
from .feasibility import *
from .heights import *
from .lasso import *
from .newick import *
from .oracle import *
from .tree import *

__all__ = sorted(
    name
    for module in (builders, childgraph, cords, feasibility, heights, lasso, newick, oracle, tree)
    for name in module.__all__
)

__version__ = "0.1.0"
