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
(``childgraph``, ``feasibility``, ``heights``, ``oracle`` and ``builders``)
load on first access (PEP 562): a submodule by its name, a public name from
the first of them, in that order, whose ``__all__`` lists it.  ``__all__``,
``dir()``, ``from treelasso import *`` and an unknown name load them all.
Every other submodule name, such as ``cli``, resolves without loading any
of them.
"""

from importlib import import_module

from . import cords, lasso, newick, tree
from .cords import *
from .lasso import *
from .newick import *
from .tree import *

# In dependency order, so a name is found without loading a module it does not need.
_DEFERRED = ("childgraph", "feasibility", "heights", "oracle", "builders")

__version__ = "0.1.0"


def __getattr__(name: str):
    """Loads a submodule, or the deferred module that exports ``name``, on first access."""
    if name == "__all__":
        modules = (cords, lasso, newick, tree, *map(__getattr__, _DEFERRED))
        globals()[name] = value = sorted(n for m in modules for n in m.__all__)
        return value
    if not name.startswith("_"):
        try:  # ``import_module`` binds the submodule here, so this runs once per name
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        for module_name in _DEFERRED:
            module = __getattr__(module_name)
            if name in module.__all__:
                globals().update((n, getattr(module, n)) for n in module.__all__)
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
