"""Command-line interface.

Subcommands: ``classify`` (lasso report, optional definition-level
cross-check), ``build`` (construct cord sets), ``enumerate`` (all trees on a
leaf set), ``witness`` (two fitting weightings exhibiting a failure), and
``distances`` (cord distances induced by a weighted tree).  Exit codes:
0 success, 1 property violation (classification disagrees with the
definition-level check), 2 input error, 141 stdout closed early (SIGPIPE).
The cyclic garbage collector is paused while a command runs, which is safe
because the library's structures hold no reference cycles.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path

from . import lasso
from .cords import format_cord_file, read_cord_file
from .newick import parse_newick, print_newick

_SCHEMA_VERSION = 1


def _read(path: str) -> str:
    """A file's text as ``utf-8-sig`` reads it, through the codec loaded at start-up."""
    return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")


def _load_tree(path: str):
    return parse_newick(_read(path))


def _load_cords(path: str):
    cords, distances = read_cord_file(_read(path))
    if distances is not None:
        raise ValueError(
            "the cord file has a distance column, which this command does not use; "
            "give one 'a b' pair per line"
        )
    return cords


def _oracle(kind: str):
    """The definition-level decision of one kind; the oracle loads on first use."""
    from . import oracle

    return getattr(oracle, f"oracle_{kind}")


def cmd_classify(args) -> int:
    tree, _ = _load_tree(args.tree)
    cords = _load_cords(args.cords)
    report = lasso.classify(tree, cords)
    if args.oracle:  # decided before any output, so an oracle error prints no partial report
        checks = {kind: _oracle(kind)(tree, cords)[0] for kind in lasso.KINDS}
    flags = {kind: getattr(report, kind) for kind in (*lasso.KINDS, "strong")}
    for kind, flag in flags.items():
        print(f"{kind:12s} {'yes' if flag else 'no'}")
    names = tree._clade_names(v for vs in report.failing_vertices.values() for v in vs)
    failing = {kind: [names[v] for v in vs] for kind, vs in report.failing_vertices.items()}
    for kind, clades in failing.items():
        if clades:
            print(f"failing {kind}: {' '.join(clades)}")

    payload = {
        "v": _SCHEMA_VERSION,
        "tree": tree.canonical_newick(),
        "cords": len(cords),
        **flags,
        "failing": failing,
    }

    status = 0
    if args.oracle:
        agree = all(checks[k] == flags[k] for k in checks)
        payload["oracle"] = {**checks, "agree": agree}
        if not agree:
            print("definition-level check disagrees with the classification", file=sys.stderr)
            status = 1
    print(json.dumps(payload, sort_keys=True))
    return status


def cmd_build(args) -> int:
    from . import builders

    if args.seed is not None and args.kind != "circular":
        raise ValueError("--seed applies only to --kind circular")
    if args.partition is not None and args.kind != "bipartition":
        raise ValueError("--partition applies only to --kind bipartition")
    tree, _ = _load_tree(args.tree)
    if args.kind in lasso.KINDS:
        cords = getattr(builders, f"min_{args.kind}_lasso")(tree)
    elif args.kind == "circular":
        cords = builders.circular_lasso(builders.circular_order(tree, seed=args.seed))
    else:  # bipartition
        if not args.partition:
            raise ValueError("--kind bipartition requires --partition FILE")
        sides = []
        for lineno, raw in enumerate(_read(args.partition).splitlines(), 1):
            side = set()
            for label in raw.split("#", 1)[0].split():
                if label in side:
                    raise ValueError(f"line {lineno}: duplicate label {label}")
                side.add(label)
            if side:
                sides.append(frozenset(side))
        if len(sides) != 2:
            raise ValueError("partition file must hold exactly two label lines")
        if sides[0] | sides[1] != tree.leaf_labels:
            raise ValueError("partition sides must cover the leaf set exactly")
        cords = builders.bipartition_lasso(builders.Bipartition(*sides))
    sys.stdout.write(format_cord_file(cords))
    return 0


def cmd_enumerate(args) -> int:
    from . import oracle

    labels = args.leaves.split(",")
    if "" in labels:
        raise ValueError(f"--leaves has an empty label: {args.leaves!r}")
    trees = oracle.enumerate_xtrees(labels)
    if args.binary:
        trees = [t for t in trees if t.is_binary()]
    if args.count_only:
        print(len(trees))
    else:
        for t in trees:
            print(t.canonical_newick())
    return 0


def cmd_witness(args) -> int:
    tree, _ = _load_tree(args.tree)
    cords = _load_cords(args.cords)
    _, witness = _oracle(args.kind)(tree, cords)
    if witness is None:
        print("none")
    else:
        print(print_newick(tree, witness.heights_t.to_edge_weights()))
        print(print_newick(witness.rival, witness.heights_rival.to_edge_weights()))
    return 0


def cmd_distances(args) -> int:
    from .heights import HeightMap

    tree, weighting = _load_tree(args.tree)
    if weighting is None:
        raise ValueError("distances needs a weighted tree (every edge ':weight')")
    heights = HeightMap.from_edge_weights(weighting).heights
    cords = _load_cords(args.cords)
    (meets,) = tree._cord_meets(cords)  # one climb over all cords, which checks them
    distances = {c: 2 * heights[m] for c, (m, _, _) in zip(cords, meets)}
    sys.stdout.write(format_cord_file(cords, distances))
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
        choices=[*lasso.KINDS, "circular", "bipartition"],
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
    p.add_argument("--kind", required=True, choices=lasso.KINDS)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("distances", help="cord distances induced by a weighted tree")
    p.add_argument("--tree", required=True, help="weighted Newick file")
    p.add_argument("--cords", required=True)
    p.set_defaults(func=cmd_distances)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # restored below; the module docstring says why this is safe
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # Stop quietly, as SIGPIPE would.  The interpreter flushes stdout at
        # exit; pointing it at the null device keeps that flush from failing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # parse, cord-file and weighting errors included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deep or too large ({type(exc).__name__})", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
