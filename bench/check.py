"""Output checker for the benchmark, written apart from treelasso.

Nothing here imports the library.  Expected answers are recomputed from the
generator's nested shapes by walking parent pointers (the child-edge-graph
conditions of the paper), and oracle witnesses are re-verified by exact
arithmetic on leaf clusters.  Each ``check_*`` function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from gen import Flat, from_newick

# Number of rooted trees without unary vertices on n labeled leaves
# (OEIS A000311), n = 1..6.
TREE_COUNTS = {1: 1, 2: 1, 3: 4, 4: 26, 5: 236, 6: 2752}

KINDS = ("equidistant", "weak", "topological")


def expected_report(flat: Flat, cords) -> dict:
    """Flags and failing clades from child-edge graphs rebuilt independently."""
    parent, depth = flat.parent, flat.depth
    edges: dict[int, set[frozenset[int]]] = {v: set() for v in flat.interior}
    for a, b in cords:
        u, w = flat.leaf_id[a], flat.leaf_id[b]
        while depth[u] > depth[w]:
            u = parent[u]
        while depth[w] > depth[u]:
            w = parent[w]
        while parent[u] != parent[w]:
            u, w = parent[u], parent[w]
        edges[parent[u]].add(frozenset((u, w)))

    def joined(v, x, y):
        return frozenset((x, y)) in edges[v]

    star = len(flat.interior) == 1
    fails = {kind: [] for kind in KINDS}
    for v in flat.interior:
        kids = flat.children[v]
        if not edges[v]:
            fails["equidistant"].append(v)
        if len(edges[v]) != len(kids) * (len(kids) - 1) // 2:
            fails["topological"].append(v)
        if star:
            continue
        sub = [c for c in kids if flat.label[c] is None]
        leaf = [c for c in kids if flat.label[c] is not None]
        if not sub and v != 0:  # parent of a pseudo-cherry: connectivity
            comp = {c: c for c in kids}

            def find(x):
                while comp[x] != x:
                    x = comp[x]
                return x

            for pair in edges[v]:
                x, y = tuple(pair)
                comp[find(x)] = find(y)
            ok = len({find(c) for c in kids}) == 1
        else:  # richness
            ok = all(joined(v, x, y) for x, y in combinations(sub, 2)) and all(
                joined(v, x, y) for x in leaf for y in sub
            )
        if not ok:
            fails["weak"].append(v)
    nonempty = bool(cords)
    flags = {
        "equidistant": nonempty and not fails["equidistant"],
        "topological": nonempty and not fails["topological"],
        "weak": star or (nonempty and not fails["weak"]),
    }
    flags["strong"] = flags["equidistant"] and flags["topological"]
    return {
        "flags": flags,
        "failing": {k: sorted(flat.clade(v) for v in vs) for k, vs in fails.items()},
    }


def check_classify(instance: dict, flat: Flat, expected: dict, line: str) -> list[str]:
    """Check one ``classify`` JSON line against the recomputed answer."""
    problems = []
    try:
        got = json.loads(line)
    except json.JSONDecodeError:
        return [f"not a JSON line: {line[:80]!r}"]
    flags = expected["flags"]
    for kind, value in flags.items():
        if got.get(kind) != value:
            problems.append(f"{kind}: got {got.get(kind)}, expected {value}")
    failing = got.get("failing", {})
    for kind in KINDS:
        if sorted(failing.get(kind, ())) != expected["failing"][kind]:
            problems.append(f"failing {kind} vertices differ")
    if got.get("cords") != len(instance["cords"]):
        problems.append(f"cord count: got {got.get('cords')}, expected {len(instance['cords'])}")
    try:
        if Flat(from_newick(got.get("tree", ""))).clusters() != flat.clusters():
            problems.append("canonical tree has other clusters than the input")
    except (ValueError, IndexError):
        problems.append("canonical tree is not Newick")

    # Known answers of the constructed families, and the binary collapse.
    family, dropped = instance["family"], instance["dropped"]
    if family == "per_vertex" and not got.get("equidistant"):
        problems.append("one cord per interior vertex must be an equidistant lasso")
    if family == "per_vertex_minus_one" and failing.get("equidistant") != [flat.clade(dropped)]:
        problems.append("dropping a vertex's cord must fail equidistance exactly there")
    if family == "per_pair" and not got.get("strong"):
        problems.append("one cord per child pair must be a strong lasso")
    if family == "per_pair_minus_one" and failing.get("topological") != [flat.clade(dropped)]:
        problems.append("dropping a pair cord must fail topology exactly there")
    if instance.get("binary") and len({got.get(k) for k in ("strong", *KINDS)}) != 1:
        problems.append("on a binary tree all four kinds must agree")
    return problems


def _clusters_of(keys) -> dict[frozenset[str], str]:
    return {frozenset(k.split(",")): k for k in keys}


def _smallest_containing(clusters, leaves: frozenset[str]) -> frozenset[str]:
    return min((c for c in clusters if leaves <= c), key=len)


def _proper(clusters, heights: dict) -> bool:
    """Nonnegative heights, strictly higher at every parent cluster."""
    for c in clusters:
        if heights[c] < 0:
            return False
        above = [p for p in clusters if c < p]
        if above and not heights[c] < heights[min(above, key=len)]:
            return False
    return True


def _hierarchy(clusters, leaves: frozenset[str]) -> bool:
    """Clusters of a tree without unary vertices on ``leaves``."""
    if leaves not in clusters:
        return False
    for c in clusters:
        if len(c) < 2 or not c <= leaves:
            return False
    for x, y in combinations(clusters, 2):
        if x & y and not (x <= y or y <= x):
            return False
    return True


def check_decision(
    kind: str,
    out: dict,
    clusters: frozenset[frozenset[str]],
    cords,
    expected: bool | None,
    classified: bool | None,
) -> list[str]:
    """Check one oracle decision and, on False, its witness by exact arithmetic.

    ``expected`` is the recomputed answer and ``classified`` the answer of
    ``classify`` on the same instance; either may be None when it does not
    apply (a sampled True answer is not exhaustive).
    """
    ok, w = out["ok"], out.get("w")
    problems = []
    if expected is not None and ok != expected:
        problems.append(f"oracle {kind}: got {ok}, expected {expected}")
    if classified is not None and ok != classified:
        problems.append(f"oracle {kind} disagrees with classify")
    if ok:
        if w is not None:
            problems.append("a True decision carries a witness")
        return problems
    if w is None:
        return problems + ["a False decision carries no witness"]
    leaves = max(clusters, key=len)
    t = _clusters_of(w["ht"])
    r = _clusters_of(w["hr"])
    if set(t) != set(clusters) or set(r) != set(_clusters_of(w["rival"])):
        return problems + ["witness heights do not cover the interior vertices"]
    if not _hierarchy(set(r), leaves):
        return problems + ["witness rival is not a tree on the leaf set"]
    ht = {c: Fraction(w["ht"][k]) for c, k in t.items()}
    hr = {c: Fraction(w["hr"][k]) for c, k in r.items()}
    if not (_proper(t, ht) and _proper(r, hr)):
        problems.append("witness heights are not proper")
    for a, b in cords:
        pair = frozenset((a, b))
        if ht[_smallest_containing(t, pair)] != hr[_smallest_containing(r, pair)]:
            problems.append(f"witness distances differ on cord {a} {b}")
            break
    rival = set(r)
    if kind == "equidistant" and (rival != set(t) or ht == hr):
        problems.append("equidistant witness is not two weightings of the tree")
    if kind == "topological" and rival == set(t):
        problems.append("topological witness rival is equivalent to the tree")
    if kind == "weak" and set(t) <= rival:
        problems.append("weak witness rival refines the tree")
    return problems
