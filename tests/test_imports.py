"""What each entry point imports: the classify path never loads the oracle side,
nor the graph views and the standard modules only the other commands need.

Every check runs in a fresh interpreter, since this test process has long
since imported every module of the package.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from test_public_surface import PUBLIC

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ["treelasso.builders", "treelasso.heights", "treelasso.oracle"]
# Off the classify path as well: ``dataclasses`` (which loads ``inspect``),
# ``fractions`` (which loads ``decimal``) and the child-edge graph views.
OFF_CLASSIFY_PATH = [
    *DEFERRED, "treelasso.childgraph", "dataclasses", "inspect", "fractions", "decimal",
]


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_classify_loads_no_deferred_module_and_nothing_during_the_call(tmp_path):
    (tmp_path / "t.nwk").write_text("((a,b),(c,(d,e)));\n")
    (tmp_path / "c.txt").write_text("a b\nc d\nd e\n")
    out = run_fresh(
        """
        import contextlib, io, sys
        at_start = set(sys.modules)  # whatever site loads is not the package's doing
        import treelasso.cli as cli
        # The parser is built on the first call, and argparse's gettext then
        # loads ``locale``; everything else a call needs is loaded by now.
        cli.build_parser()
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert cli.main(["classify", "--tree", sys.argv[1], "--cords", sys.argv[2]]) == 0
        assert set(sys.modules) == before, sorted(set(sys.modules) ^ before)
        print(sorted(set(sys.modules) - at_start))
        print(stdout.getvalue().splitlines()[0])
        """,
        str(tmp_path / "t.nwk"), str(tmp_path / "c.txt"),
    )
    loaded, first_line = out.splitlines()
    assert "treelasso.lasso" in eval(loaded)
    assert not set(OFF_CLASSIFY_PATH) & set(eval(loaded))
    assert first_line.split() == ["equidistant", "no"]


def test_from_package_import_cli_loads_no_deferred_module():
    out = run_fresh(
        """
        import sys
        at_start = set(sys.modules)
        from treelasso import cli, lasso
        print(sorted(set(sys.modules) - at_start))
        """
    )
    assert not set(OFF_CLASSIFY_PATH) & set(eval(out))


def test_child_edge_graph_names_load_their_module_on_first_access():
    out = run_fresh(
        """
        import sys
        import treelasso
        from treelasso import lasso
        assert "treelasso.childgraph" not in sys.modules
        graphs = treelasso.child_edge_graphs
        assert graphs is sys.modules["treelasso.childgraph"].child_edge_graphs
        from treelasso.childgraph import ChildEdgeGraph, _child_pairs, build_child_edge_graph
        assert treelasso.ChildEdgeGraph is ChildEdgeGraph
        assert treelasso.build_child_edge_graph is build_child_edge_graph
        assert _child_pairs is lasso._child_pairs
        tree, _ = treelasso.parse_newick("((a,b),(c,d));")
        graph = treelasso.build_child_edge_graph(tree, [("a", "c"), ("a", "b")], tree.root)
        print(len(list(graph.edges())), graph.is_clique(), treelasso.childgraph.__name__)
        """
    )
    assert out.split() == ["1", "True", "treelasso.childgraph"]


def test_weighted_newick_still_returns_an_edge_weighting(tmp_path):
    # neither weighted Newick, nor its height map, nor the distances command
    # loads the engine
    (tmp_path / "w.nwk").write_text("((a:1,b:1):1,c:2);\n")
    (tmp_path / "w.txt").write_text("a b\nb c\n")
    out = run_fresh(
        """
        import contextlib, io, sys
        from treelasso import HeightMap, cli, parse_newick, print_newick
        tree, weighting = parse_newick("((a:1,b:1):1/2,c:3/2);")
        print(type(weighting).__module__, type(weighting).__name__)
        print(print_newick(tree, weighting), parse_newick("((a,b),c);")[1])
        print(HeightMap.from_edge_weights(weighting).heights[tree.root])
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert cli.main(["distances", "--tree", sys.argv[1], "--cords", sys.argv[2]]) == 0
        print(stdout.getvalue(), end="")
        print("treelasso.oracle" in sys.modules)
        """,
        str(tmp_path / "w.nwk"), str(tmp_path / "w.txt"),
    )
    assert out.splitlines() == [
        "treelasso.heights EdgeWeighting", "((a:1,b:1):1/2,c:3/2); None", "3/2",
        "a b 2", "b c 4", "False",
    ]


def test_deferred_names_and_modules_load_on_first_access():
    out = run_fresh(
        """
        import sys
        import treelasso
        assert "treelasso.oracle" not in sys.modules
        assert treelasso.oracle_weak is sys.modules["treelasso.oracle"].oracle_weak
        assert "treelasso.builders" not in sys.modules  # found before builders is searched
        assert treelasso.oracle is sys.modules["treelasso.oracle"]
        assert treelasso.builders.min_weak_lasso is treelasso.min_weak_lasso
        assert set(treelasso.__all__) <= set(dir(treelasso))
        namespace = {}
        exec("from treelasso import *", namespace)
        assert set(treelasso.__all__) <= set(namespace), set(treelasso.__all__) - set(namespace)
        for name in ("no_such_name", "_private", "__wrapped__"):
            try:
                getattr(treelasso, name)
            except AttributeError as exc:
                assert repr(name) in str(exc)
            else:
                raise AssertionError(name)
        print(len(treelasso.__all__), len(set(treelasso.__all__)))
        """
    )
    assert out.split() == [str(len(PUBLIC))] * 2


def test_star_import_in_a_fresh_process_loads_every_public_name():
    out = run_fresh(
        """
        from treelasso import *
        print(oracle_weak.__module__, min_weak_lasso.__module__, HeightMap.__module__, strict_feasible.__module__)
        """
    )
    assert out.split() == ["treelasso.oracle", "treelasso.builders", "treelasso.heights", "treelasso.oracle"]


def test_an_oracle_decision_loads_neither_dataclasses_nor_the_graph_views():
    out = run_fresh(
        """
        import sys
        import treelasso
        trees = treelasso.enumerate_xtrees("abcde")
        print(treelasso.oracle_weak(trees[0], [("a", "b")])[0])
        print(sorted(sys.modules))
        """
    )
    verdict, loaded = out.splitlines()
    assert verdict == "False"
    off = {"dataclasses", "inspect", "treelasso.childgraph", "treelasso.builders"}
    assert not off & set(eval(loaded))


def test_child_edge_graphs_load_neither_the_oracle_nor_fractions():
    out = run_fresh(
        """
        import sys
        import treelasso
        tree, _ = treelasso.parse_newick("((a,b),(c,d));")
        print(len(treelasso.child_edge_graphs(tree, [("a", "c")])))
        print(sorted(sys.modules))
        """
    )
    count, loaded = out.splitlines()
    assert count == "3"
    assert not {"treelasso.oracle", "fractions"} & set(eval(loaded))


def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    (tmp_path / "t.nwk").write_text("((a,b),(c,(d,e)));\n")
    (tmp_path / "w.nwk").write_text("((a:1,b:1):1,c:2);\n")
    (tmp_path / "c.txt").write_text("a b\nc d\n")
    (tmp_path / "w.txt").write_text("a b\nb c\n")
    out = run_fresh(
        """
        import contextlib, io, sys
        from treelasso.cli import main
        t, w, c, wc = sys.argv[1:]
        calls = [
            ["classify", "--tree", t, "--cords", c, "--oracle"],
            ["build", "--tree", t, "--kind", "circular"],
            ["enumerate", "--leaves", "a,b,c,d"],
            ["witness", "--tree", t, "--cords", c, "--kind", "weak"],
            ["distances", "--tree", w, "--cords", wc],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(call) for call in calls]
        print(*codes)
        print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
        """,
        *(str(tmp_path / name) for name in ("t.nwk", "w.nwk", "c.txt", "w.txt")),
    )
    assert out.splitlines() == ["0 0 0 0 0", "[]"]
