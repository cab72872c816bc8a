"""Command-line interface.

Subcommands: ``classify`` (lasso report, optional definition-level
cross-check), ``build`` (construct cord sets), ``enumerate`` (all trees on a
leaf set), ``witness`` (two fitting weightings exhibiting a failure), and
``distances`` (cord distances induced by a weighted tree).  Exit codes:
0 success, 1 property violation (classification disagrees with the
definition-level check), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import builders, lasso, oracle
from .cords import format_rational, read_cord_file
from .heights import HeightMap
from .newick import parse_newick, print_newick
from .tree import XTree

_SCHEMA_VERSION = 1


def _load_tree(path: str):
    return parse_newick(Path(path).read_text())


def _load_cords(path: str, tree: XTree):
    cords, distances = read_cord_file(Path(path).read_text())
    if distances is not None:
        raise ValueError(
            "the cord file has a distance column, which this command does not use; "
            "give one 'a b' pair per line"
        )
    unknown = {lab for c in cords for lab in c} - tree.leaf_labels
    if unknown:
        raise ValueError(f"cord labels not in the tree: {sorted(unknown)}")
    return cords


def _clade(tree: XTree, v: int) -> str:
    return "{" + ",".join(sorted(tree._leaves(v))) + "}"


_ORACLES = {
    "equidistant": oracle.oracle_equidistant,
    "weak": oracle.oracle_weak,
    "topological": oracle.oracle_topological,
}


def cmd_classify(args) -> int:
    tree, _ = _load_tree(args.tree)
    cords = _load_cords(args.cords, tree)
    report = lasso.classify(tree, cords)
    if args.oracle:  # decided before any output, so an oracle error prints no partial report
        checks = {kind: decide(tree, cords)[0] for kind, decide in _ORACLES.items()}
    for kind in ("equidistant", "weak", "topological", "strong"):
        print(f"{kind:12s} {'yes' if getattr(report, kind) else 'no'}")
    names = {v: _clade(tree, v) for vs in report.failing_vertices.values() for v in vs}
    failing = {kind: [names[v] for v in vs] for kind, vs in report.failing_vertices.items()}
    for kind, clades in failing.items():
        if clades:
            print(f"failing {kind}: {' '.join(clades)}")

    payload = {
        "v": _SCHEMA_VERSION,
        "tree": tree.canonical_newick(),
        "cords": len(cords),
        "equidistant": report.equidistant,
        "weak": report.weak,
        "topological": report.topological,
        "strong": report.strong,
        "failing": failing,
    }

    status = 0
    if args.oracle:
        agree = all(checks[k] == getattr(report, k) for k in checks)
        payload["oracle"] = {**checks, "agree": agree}
        if not agree:
            print("definition-level check disagrees with the classification", file=sys.stderr)
            status = 1
    print(json.dumps(payload, sort_keys=True))
    return status


def cmd_build(args) -> int:
    tree, _ = _load_tree(args.tree)
    if args.kind == "equidistant":
        cords = builders.min_equidistant_lasso(tree)
    elif args.kind == "weak":
        cords = builders.min_weak_lasso(tree)
    elif args.kind == "topological":
        cords = builders.min_topological_lasso(tree)
    elif args.kind == "circular":
        cords = builders.circular_lasso(builders.circular_order(tree, seed=args.seed))
    else:  # bipartition
        if not args.partition:
            raise ValueError("--kind bipartition requires --partition FILE")
        sides = []
        for raw in Path(args.partition).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                sides.append(frozenset(line.split()))
        if len(sides) != 2:
            raise ValueError("partition file must hold exactly two label lines")
        if sides[0] | sides[1] != tree.leaf_labels:
            raise ValueError("partition sides must cover the leaf set exactly")
        cords = builders.bipartition_lasso(builders.Bipartition(*sides))
    for a, b in sorted(cords):
        print(a, b)
    return 0


def cmd_enumerate(args) -> int:
    labels = [s for s in args.leaves.split(",") if s]
    trees = (
        oracle.enumerate_binary_xtrees(labels)
        if args.binary
        else oracle.enumerate_xtrees(labels)
    )
    if args.count_only:
        print(len(trees))
    else:
        for t in trees:
            print(t.canonical_newick())
    return 0


def cmd_witness(args) -> int:
    tree, _ = _load_tree(args.tree)
    cords = _load_cords(args.cords, tree)
    _, witness = _ORACLES[args.kind](tree, cords)
    if witness is None:
        print("none")
    else:
        print(print_newick(tree, witness.heights_t.to_edge_weights()))
        print(print_newick(witness.rival, witness.heights_rival.to_edge_weights()))
    return 0


def cmd_distances(args) -> int:
    tree, weighting = _load_tree(args.tree)
    if weighting is None:
        raise ValueError("distances needs a weighted tree (every edge ':weight')")
    heights = HeightMap.from_edge_weights(weighting)
    cords = _load_cords(args.cords, tree)
    for a, b in sorted(cords):
        print(a, b, format_rational(heights.leaf_distance(a, b)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="treelasso",
        description="Decide whether partial leaf distances pin down an equidistant rooted tree.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="lasso report for a tree and a cord set")
    p.add_argument("--tree", required=True, help="Newick file")
    p.add_argument("--cords", required=True, help="cord file, one 'a b' pair per line")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the definition-level decision (<= 6 leaves)",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("build", help="construct a cord set of a given kind")
    p.add_argument("--tree", required=True)
    p.add_argument(
        "--kind",
        required=True,
        choices=["equidistant", "weak", "topological", "circular", "bipartition"],
    )
    p.add_argument("--partition", help="two-line label file for --kind bipartition")
    p.add_argument("--seed", type=int, default=None, help="embedding seed for --kind circular")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("enumerate", help="all trees on a leaf set, one Newick per line")
    p.add_argument("--leaves", required=True, help="comma-separated labels")
    p.add_argument("--binary", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("witness", help="exhibit two weightings behind a lasso failure")
    p.add_argument("--tree", required=True)
    p.add_argument("--cords", required=True)
    p.add_argument("--kind", required=True, choices=list(_ORACLES))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("distances", help="cord distances induced by a weighted tree")
    p.add_argument("--tree", required=True, help="weighted Newick file")
    p.add_argument("--cords", required=True)
    p.set_defaults(func=cmd_distances)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse, cord-file and weighting errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deep or too large ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
