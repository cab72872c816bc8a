"""treelasso: when do partial leaf distances pin down an equidistant rooted tree?

Given a rooted tree on a labeled leaf set and a set of cords (unordered leaf
pairs standing for known pairwise distances), this library decides whether
the cords force the equidistant edge-weighting (equidistant lasso), the tree
shape (topological lasso), or the shape up to refinement (weak lasso /
corral).  Decisions run in two independent ways: combinatorially from the
child-edge graphs of the interior vertices, and definition-level on small
leaf sets by enumerating rival trees and solving exact rational systems with
strict inequalities.

Importing the package loads what ``classify`` runs: ``tree``, ``cords``,
``lasso`` and ``newick``, whose names are imported here.  The other modules
(``childgraph``, ``heights``, ``oracle``, which holds the exact engine, and
``builders``) load on first access (PEP 562), through one index from each
name to its module: a submodule by its name, a public name by the module
whose ``__all__`` lists it, so a name loads only that module and what it
imports.  ``__all__``, ``dir()`` and ``from treelasso import *`` load them
all; ``cli`` loads on first access too, and any other name raises
``AttributeError`` without loading anything.
"""

from importlib import import_module

from . import cords, lasso, newick, tree
from .cords import *
from .lasso import *
from .newick import *
from .tree import *

# The deferred modules and the names each one's ``__all__`` lists, which
# tests/test_public_surface.py checks against the modules themselves.
_DEFERRED = {
    "childgraph": "ChildEdgeGraph build_child_edge_graph child_edge_graphs",
    "heights": "EdgeWeighting HeightMap WeightingError",
    "oracle": "StrictLinearSystem Witness enumerate_xtrees joint_isometry_system"
    " oracle_equidistant oracle_topological oracle_weak strict_feasible verify_witness",
    "builders": "Bipartition CircularOrdering bipartition_lasso circular_lasso circular_order"
    " min_equidistant_lasso min_topological_lasso min_weak_lasso",
}
# Where each name that is not bound yet lives: a submodule is its own home.
_HOME = {"cli": "cli"} | {n: m for m, names in _DEFERRED.items() for n in (m, *names.split())}

__version__ = "0.1.0"


def __getattr__(name: str):
    """Loads a submodule, or the deferred module that exports ``name``, on first access."""
    if name == "__all__":
        modules = (cords, lasso, newick, tree, *map(__getattr__, _DEFERRED))
        globals()[name] = value = sorted(n for m in modules for n in m.__all__)
        return value
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")  # binds the submodule here
    if name == home:
        return module
    globals().update((n, getattr(module, n)) for n in module.__all__)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
