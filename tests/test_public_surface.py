"""The package's public names: a rename or a removal fails here, not downstream."""

from itertools import combinations

import treelasso
from treelasso import (
    builders,
    childgraph,
    cords,
    heights,
    lasso,
    newick,
    oracle,
    tree,
)

MODULES = (builders, childgraph, cords, heights, lasso, newick, oracle, tree)

PUBLIC = {
    # trees, cords and their text forms
    "XTree", "Cord", "CordFileError", "cord", "cord_set", "all_cords",
    "read_cord_file", "format_cord_file", "NewickParseError", "parse_newick", "print_newick",
    # weightings
    "EdgeWeighting", "HeightMap", "WeightingError",
    # the combinatorial route: one classification pass
    "ChildEdgeGraph", "build_child_edge_graph", "child_edge_graphs",
    "LassoReport", "classify",
    # constructions
    "Bipartition", "CircularOrdering", "bipartition_lasso", "circular_lasso", "circular_order",
    "min_equidistant_lasso", "min_topological_lasso", "min_weak_lasso",
    # the definition-level route
    "StrictLinearSystem", "strict_feasible",
    "Witness", "enumerate_xtrees", "joint_isometry_system",
    "oracle_equidistant", "oracle_topological", "oracle_weak", "verify_witness",
}


def test_public_names_are_exactly_the_expected_ones():
    assert len(PUBLIC) == 36
    assert len(treelasso.__all__) == len(set(treelasso.__all__))
    assert set(treelasso.__all__) == PUBLIC


def test_every_public_name_imports():
    for name in sorted(PUBLIC):
        assert getattr(treelasso, name) is not None, name
    namespace: dict = {}
    exec("from treelasso import *", namespace)
    assert PUBLIC <= set(namespace)


def test_the_module_lists_are_the_only_list():
    # each public name is listed once, in the __all__ of the module that
    # defines it, and the package's __all__ is their union; the package's
    # index of deferred names, which loads one module per name, repeats
    # those lists exactly
    for a, b in combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(module, name) is getattr(treelasso, name), (module.__name__, name)
    assert set(treelasso.__all__) == {name for m in MODULES for name in m.__all__}
    eager = {cords, lasso, newick, tree}
    assert {m: set(names.split()) for m, names in treelasso._DEFERRED.items()} == {
        m.__name__.rpartition(".")[2]: set(m.__all__) for m in MODULES if m not in eager
    }
