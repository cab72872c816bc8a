"""Reference n-sweep: each classify layer timed at growing leaf counts.

    PYTHONHASHSEED=0 python3 bench/sweep.py

Prints one row per layer with its CPU time at every size (the median of
three fresh trees) and two exponents: fitted by least squares on log(time)
against log(n) over all sizes, and between the last two sizes.  Each size
runs in a fresh process so that peak memory is per size.  The figures in
bench/README.md come from this script; it is not part of the timed runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

SIZES = (100, 1000, 2000)
SEED = 0
LAYERS = ("newick.parse", "tree.construct", "cords.read", "tree.lca_table", "tree.route",
          "childgraph.graphs", "lasso.classify", "builders.min_topological", "cli.main")


def timed(fn, *args):
    gc.collect()
    t0 = time.process_time()
    out = fn(*args)
    return time.process_time() - t0, out


def one_size(n: int) -> dict:
    """Times every layer on three random trees of n leaves, each with n random cords."""
    from treelasso import (XTree, child_edge_graphs, classify, cli, min_topological_lasso,
                           parse_newick, read_cord_file)

    rng = random.Random(f"sweep:{n}:{SEED}")
    runs = []
    for _ in range(3):
        shape = gen.random_tree(rng, n, 5)
        flat = gen.Flat(shape)
        cords, _ = gen.cord_family(rng, flat, "random_sparse")
        newick, cord_text = gen.to_newick(shape), gen.to_cord_file(cords)
        out = {}
        out["newick.parse"], (tree, _) = timed(parse_newick, newick)
        out["tree.construct"], _ = timed(XTree, shape)
        out["cords.read"], (cord_set, _) = timed(read_cord_file, cord_text)
        a, b = min(cord_set)
        out["tree.lca_table"], v = timed(tree.lca, a, b)
        out["tree.route"], _ = timed(tree.child_toward, v, a)
        out["childgraph.graphs"], _ = timed(child_edge_graphs, tree, cord_set)
        out["lasso.classify"], _ = timed(classify, tree, cord_set)
        out["builders.min_topological"], _ = timed(min_topological_lasso, tree)
        del tree
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, "t.nwk"), os.path.join(tmp, "c.txt")]
            for path, text in zip(paths, (newick, cord_text)):
                with open(path, "w") as f:
                    f.write(text)
            with contextlib.redirect_stdout(io.StringIO()):
                out["cli.main"], _ = timed(
                    cli.main, ["classify", "--tree", paths[0], "--cords", paths[1]])
        out["max_depth"] = max(flat.depth)
        runs.append(out)
    med = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    med["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return med


def slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(one_size(args.one)))
        return
    rows = {}
    for n in SIZES:
        proc = subprocess.run([sys.executable, __file__, "--one", str(n)],
                              capture_output=True, text=True, check=True)
        rows[n] = json.loads(proc.stdout)
    print("layer".ljust(26) + "".join(f"n={n}".rjust(12) for n in SIZES) + "   fit   last")
    for layer in (*LAYERS, "peak_rss_mb"):
        values = [rows[n][layer] for n in SIZES]
        unit = "MB" if layer == "peak_rss_mb" else "s"
        print(f"{layer + ' (' + unit + ')':26s}" + "".join(f"{x:12.4g}" for x in values)
              + f"  {slope(SIZES, values):5.2f}  {slope(SIZES[-2:], values[-2:]):5.2f}")
    print("max depth".ljust(26) + "".join(f"{rows[n]['max_depth']:12g}" for n in SIZES))


if __name__ == "__main__":
    main()
