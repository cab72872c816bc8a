"""treelasso benchmark: the classify CLI and the definition-level oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for their make-up and why each exists):

* ``classify-wide``: random trees of about 500 leaves and depth about 8;
* ``classify-deep``: caterpillars and bearded caterpillars of depth 140-225;
* ``oracle-sweep``: every 5-leaf tree with random cord sets of 0-10 cords.

The harness generates the inputs from the seed, writes them as Newick and
cord files, and runs the measured worker in a fresh process, one call at a
time.  Every output is checked by ``check.py`` outside the timed region.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

import check
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, "bench_out")
TIMEOUT_S = 150

ORACLE_LABELS = ["a", "b", "c", "d", "e"]
SAMPLED6_LABELS = ["a", "b", "c", "d", "e", "f"]
TRACE_SAMPLE = 236
TRACE_CLASSIFY_INSTANCES = 36  # every cord family with both tree classes, twice
# Nominal CPU seconds of one operation on the machine the benchmark was tuned
# on.  They turn --seconds into a number of whole passes that does not depend
# on the speed of the machine: a slow phase of the host or a regression
# changes how long a run takes, not how much work it does.
OP_CPU_S = {"classify": 0.23, "oracle": 0.00083}
TRACE_COST = 3  # a traced operation runs its untraced twin, itself and its replay

WORKLOADS = {
    "classify-wide": "classify",
    "classify-deep": "classify",
    "oracle-sweep": "oracle",
}


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


CLASSIFY_INSTANCES = 108  # one pass: at least 100 operations, so ten lie beyond p90


def classify_tree(workload: str, rng: random.Random, i: int):
    """(shape, binary) of instance i; sizes are chosen so every operation costs about the same.

    The two tree classes come 2:1, not 1:1: with equal shares the median
    would sit on the boundary between the classes and jump with any
    difference in their costs.
    """
    minor = i % 3 == 2
    if workload == "classify-wide":
        return (gen.random_tree(rng, 440, 2), True) if minor else (gen.random_tree(rng, 500, 5), False)
    return (gen.caterpillar(rng, 140, 2), False) if minor else (gen.caterpillar(rng, 225, 1), True)


def write_instance(work: str, name: str, shape, cords) -> dict:
    tree_path = os.path.join(work, f"{name}.nwk")
    cords_path = os.path.join(work, f"{name}.cords")
    with open(tree_path, "w") as f:
        f.write(gen.to_newick(shape) + "\n")
    with open(cords_path, "w") as f:
        f.write(gen.to_cord_file(cords))
    return {"tree": tree_path, "cords": cords_path}


def make_inputs(workload: str, seed: int, trace: bool, work: str):
    """Writes the instance files and the worker's manifest; returns the instances."""
    rng = random.Random(f"{workload}:{seed}")
    instances = {"classify": [], "oracle": [], "sampled6": []}
    if WORKLOADS[workload] == "classify":
        # Every instance has its own tree, so a run averages over many shapes;
        # each tree class meets every cord family equally often.
        for i in range(CLASSIFY_INSTANCES):
            shape, binary = classify_tree(workload, rng, i)
            flat = gen.Flat(shape)
            family = gen.FAMILIES[(i // 3) % len(gen.FAMILIES)]
            cords, dropped = gen.cord_family(rng, flat, family)
            instances["classify"].append({"shape": shape, "flat": flat, "cords": cords,
                                          "family": family, "dropped": dropped,
                                          "binary": binary})
    oracle_rng = random.Random(f"oracle-sweep:{seed}")
    if WORKLOADS[workload] == "oracle" or trace:
        for shape, cords in gen.oracle_instances(oracle_rng, ORACLE_LABELS):
            instances["oracle"].append({"shape": shape, "flat": gen.Flat(shape), "cords": cords,
                                        "family": "random", "dropped": None, "binary": False})
    if trace:
        # The traced run also times the layers its workload bypasses, on a
        # sample of the oracle instances: through the CLI on oracle-sweep,
        # through the oracle on the classify workloads.
        sample = oracle_rng.sample(instances["oracle"], TRACE_SAMPLE)
        if instances["classify"]:
            # Each replayed CLI call costs three untraced ones: a shorter pass
            # keeps the traced run near the timed run's length.
            del instances["classify"][TRACE_CLASSIFY_INSTANCES:]
            instances["oracle"] = sample
        else:
            instances["classify"] = sample
        shapes6 = gen.all_shapes(SAMPLED6_LABELS)
        pool = [(a, b) for i, a in enumerate(SAMPLED6_LABELS) for b in SAMPLED6_LABELS[i + 1:]]
        for _ in range(5):
            shape = oracle_rng.choice(shapes6)
            cords = sorted(oracle_rng.sample(pool, oracle_rng.randint(3, 8)))
            instances["sampled6"].append({"shape": shape, "flat": gen.Flat(shape),
                                          "cords": cords})
    manifest = {"labels6": SAMPLED6_LABELS}
    for route, insts in instances.items():
        manifest[route] = [
            write_instance(work, f"{route}{i}", inst["shape"], inst["cords"])
            for i, inst in enumerate(insts)
        ]
    with open(os.path.join(work, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    return instances


# --------------------------------------------------------------------------
# running the worker
# --------------------------------------------------------------------------


def passes(route: str, n_ops: int, seconds: float, trace: bool) -> int:
    """The fewest whole passes of n_ops operations whose nominal CPU cost reaches seconds."""
    nominal = n_ops * OP_CPU_S[route] * (TRACE_COST if trace else 1)
    return max(1, math.ceil(seconds / nominal))


def worker(mode: str, route: str, work: str, n_passes: int) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, mode, route, work, str(n_passes), ",".join(ORACLE_LABELS)],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def read_records(work: str):
    with open(os.path.join(work, "records.jsonl")) as f:
        return [json.loads(line) for line in f]


# --------------------------------------------------------------------------
# checking
# --------------------------------------------------------------------------


def check_records(records, instances) -> list[str]:
    """Checks every operation's output; an output seen before for the same call is not re-checked."""
    expected: dict = {}

    def expect(route, i):
        if (route, i) not in expected:
            inst = instances[route][i]
            expected[(route, i)] = check.expected_report(inst["flat"], inst["cords"])
        return expected[(route, i)]

    classified = {}
    checked = set()
    problems = []
    for rec in records:
        route, i, kind, out = rec["route"], rec["i"], rec["kind"], rec["out"]
        if rec["failed"] or (route, i, kind, out) in checked:
            continue
        checked.add((route, i, kind, out))
        if route == "classify":
            inst = instances["classify"][i]
            found = check.check_classify(inst, inst["flat"], expect("classify", i), out)
        elif route == "classify_flags":
            classified[i] = json.loads(out)
            found = []
        elif route == "oracle":
            inst = instances["oracle"][i]
            found = check.check_decision(
                kind, json.loads(out), inst["flat"].clusters(), inst["cords"],
                expect("oracle", i)["flags"][kind], classified[i].get(kind))
            if kind not in classified[i]:
                found.append(f"classify failed: {classified[i]['error']}")
        elif route == "sampled6":
            inst = instances["sampled6"][i]
            decision = json.loads(out)
            found = [] if decision["ok"] else check.check_decision(
                kind, decision, inst["flat"].clusters(), inst["cords"],
                expect("sampled6", i)["flags"][kind], None)
        else:  # enumeration counts
            found = [] if int(out) == check.TREE_COUNTS[i] else [
                f"{out} trees on {i} leaves, expected {check.TREE_COUNTS[i]}"]
        problems += [f"{route} {i} {kind or ''}: {p}" for p in found]
    return problems


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def end_to_end(records, route: str, setup: list[float], peak_rss_mb: float):
    times = [r["cpu"] for r in records if r["route"] == route and not r["failed"]]
    walls = [r["wall"] for r in records if r["route"] == route and not r["failed"]]
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10)[8], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(f"wall clock: {len(walls) / sum(walls):.4f} ops/s, "
          f"p50 {statistics.median(walls):.6f} s, "
          f"p90 {statistics.quantiles(walls, n=10)[8]:.6f} s over {len(walls)} operations")
    return metrics


LAYER_SPANS = (
    "newick.parse", "cords.read", "tree.construct", "tree.lca_table", "tree.route",
    "childgraph.graphs", "lasso.classify", "cli.main",
    "builders.min_equidistant", "builders.min_weak", "builders.min_topological",
    "builders.circular", "oracle.enumerate", "oracle.weak", "oracle.topological",
    "oracle.equidistant", "oracle.joint_system", "feasibility.strict_feasible",
    "heights.verify_witness", "oracle.sampled6",
)


def per_layer(spans_path: str):
    durations = defaultdict(list)
    children = defaultdict(float)
    counts = {}
    spans = []
    with open(spans_path) as f:
        for line in f:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
                continue
            spans.append(rec)
            durations[rec["name"]].append(rec["end"] - rec["start"])
    names = {s["id"]: s["name"] for s in spans}
    for s in spans:
        if s["parent"] is not None and names[s["parent"]] == "cli.main":
            children[s["parent"]] += s["end"] - s["start"]
    durations["cli.self"] = [s["end"] - s["start"] - children[s["id"]]
                             for s in spans if s["name"] == "cli.main"]
    metrics = {f"{name}_s": (statistics.median(durations[name]), "s")
               for name in (*LAYER_SPANS, "cli.self")}
    for name, value in counts.items():
        metrics[name] = (value, "ratio" if name == "trace.overhead_ratio" else "count")
    return metrics


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "treelasso", "__init__.py")):
        print("error: src/treelasso is missing; run from a treelasso checkout", file=sys.stderr)
        return 2

    route = WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        instances = make_inputs(args.workload, args.seed, trace, work)
        n_ops = len(instances[route]) * (len(check.KINDS) if route == "oracle" else 1)
        summary = worker("trace" if trace else "run", route, work,
                         passes(route, n_ops, args.seconds, trace))
        records = read_records(work)
        problems = check_records(records, instances)
        if trace:
            spans = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            shutil.move(os.path.join(work, "spans.jsonl"), spans)
            metrics = per_layer(spans)
            counted = [r for r in records if r["route"] != "classify_flags"]
        else:
            metrics = end_to_end(records, route, summary["setup_s"], summary["peak_rss_mb"])
            counted = [r for r in records if r["route"] == route]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(counted),
        "failed": sum(r["failed"] for r in counted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
