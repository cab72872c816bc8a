"""The measured process of the benchmark.

    python3 worker.py MODE ROUTE WORK_DIR PASSES LABELS

MODE is ``setup`` (set up, report the set-up time and exit), ``run`` (timed
operations) or ``trace`` (spans around every public call, written to
``WORK_DIR/spans.jsonl``).  ROUTE is ``classify`` or ``oracle``.  PASSES is
the number of passes over the instances, and LABELS the comma-separated
leaf set of the oracle instances, which the oracle set-up enumerates.  The
worker reads only the generated Newick and cord files listed in
``WORK_DIR/manifest.json``, so its peak memory holds no generator state.
Every operation's output goes to ``WORK_DIR/records.jsonl`` for the
checker; the last stdout line is a JSON summary.

Operation times are process CPU time, which leaves out the time the
process waits to be scheduled: the library is single-threaded and does no
I/O beyond page-cached files, so CPU time is all of its cost.  Wall time is
recorded beside it.

This is a script, not a module: set-up runs at the top, before the harness
imports anything the library might share with it.  The leaf set comes on
the command line because reading it from the manifest would import ``json``
(and ``re``) before the clock starts, and take them out of ``setup_s``.
"""

import os
import sys
import time

MODE, ROUTE, WORK_DIR, PASSES, LABELS = sys.argv[1:6]
ORACLE_LABELS = LABELS.split(",")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

_t0 = time.process_time()
if ROUTE == "classify":
    from treelasso import cli  # noqa: E402
else:
    import treelasso  # noqa: E402

    for _tree in treelasso.enumerate_xtrees(ORACLE_LABELS):
        treelasso.oracle_weak(_tree, ())  # fills the per-tree tables
SETUP_S = time.process_time() - _t0

import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

from treelasso import (  # noqa: E402
    XTree,
    child_edge_graphs,
    cli,
    circular_lasso,
    circular_order,
    classify,
    enumerate_xtrees,
    joint_isometry_system,
    min_equidistant_lasso,
    min_topological_lasso,
    min_weak_lasso,
    oracle_equidistant,
    oracle_topological,
    oracle_weak,
    parse_newick,
    read_cord_file,
    strict_feasible,
    verify_witness,
)

from gen import from_newick  # noqa: E402

DECIDE = {
    "weak": oracle_weak,
    "topological": oracle_topological,
    "equidistant": oracle_equidistant,
}
GC_BATCH = 64  # oracle decisions between forced collections
# Fresh workers timed for set-up during a timed run, spread evenly over its
# operations, so that they see the same phases of the host as the operations
# do; one set-up timing alone spreads by 15-30%.
SETUP_PROBES = 24
clock = time.process_time


def read(path: str) -> str:
    with open(path) as f:
        return f.read()


class Records:
    """Writes one line per operation, with its output."""

    def __init__(self, path: str) -> None:
        self.file = open(path, "w")

    def add(self, route, i, kind, cpu, wall, failed, text) -> None:
        rec = {"route": route, "i": i, "kind": kind, "cpu": cpu, "wall": wall,
               "failed": failed, "out": text}
        self.file.write(json.dumps(rec) + "\n")

    def close(self) -> None:
        self.file.close()


class Tracer:
    """Spans kept in memory: operation, id, parent, name, start and end."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0

    def call(self, name: str, parent, fn, *args, collect: bool = False, **kwargs):
        """Runs ``fn`` inside a span; returns (span id, result).

        ``collect`` runs a full collection first, outside the span, so a
        replayed call starts from the clean heap its original call saw.
        """
        if collect:
            gc.collect()
        sid = len(self.spans)
        self.spans.append(None)
        start = clock()
        result = fn(*args, **kwargs)
        self.spans[sid] = (self.op, sid, parent, name, start, clock())
        return sid, result

    def dump(self, path: str, counts: dict) -> None:
        with open(path, "w") as f:
            for op, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
            f.write(json.dumps({"counts": counts}) + "\n")


# --------------------------------------------------------------------------
# classify route: one CLI call per operation
# --------------------------------------------------------------------------


def classify_argv(inst):
    return ["classify", "--tree", inst["tree"], "--cords", inst["cords"]]


def timed_cli(argv):
    """One ``cli.main`` call with stdout captured: (cpu, wall, failed, JSON line)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        w0 = time.perf_counter()
        c0 = clock()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc, buf = 1, io.StringIO(repr(exc))
        cpu = clock() - c0
        wall = time.perf_counter() - w0
    lines = buf.getvalue().splitlines()
    return cpu, wall, rc != 0, lines[-1] if lines else ""


def probe_setup() -> float:
    """Set-up time of a fresh worker, taken between two timed operations."""
    proc = subprocess.run([sys.executable, __file__, "setup", ROUTE, WORK_DIR, "0", LABELS],
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"][0]


def run(todo, records, passes, gc_every):
    """Times ``passes`` passes over ``todo``; returns the set-up probes' times.

    Each item of ``todo`` is (route, i, kind, op), and ``op()`` returns
    (cpu, wall, failed, output text).
    """
    every = passes * len(todo) // SETUP_PROBES
    setups = []
    ops = 0
    for _ in range(passes):
        for j, (route, i, kind, op) in enumerate(todo):
            if j % gc_every == 0:
                gc.collect()
            cpu, wall, failed, text = op()
            records.add(route, i, kind, cpu, wall, failed, text)
            ops += 1
            if ops % every == 0:
                setups.append(probe_setup())
    return setups


def classify_ops(instances):
    return [("classify", i, None, functools.partial(timed_cli, classify_argv(inst)))
            for i, inst in enumerate(instances)]


BUILDERS = (
    ("builders.min_equidistant", min_equidistant_lasso),
    ("builders.min_weak", min_weak_lasso),
    ("builders.min_topological", min_topological_lasso),
    ("builders.circular", lambda tree: circular_lasso(circular_order(tree, seed=0))),
)


def trace_classify(instances, records, tracer, passes, gc_every=1):
    """Replays each CLI call as its chain of public calls."""
    counts = {"tree.vertices": 0, "tree.max_depth": 0, "cords.count": 0,
              "childgraph.edges": 0, "lasso.failing_vertices": 0}
    untraced = []
    for done in range(passes):
        for i, inst in enumerate(instances):
            ttext, ctext = read(inst["tree"]), read(inst["cords"])
            shape = from_newick(ttext)
            argv = classify_argv(inst)
            gc_now = i % gc_every == 0
            first = len(untraced) % 2 == 0

            def untraced_call():
                if gc_now:
                    gc.collect()
                return timed_cli(argv)[0]

            # The untraced twin of each call, for the tracing overhead, runs
            # before or after it in turn, so the warmer second run biases
            # neither side.
            tracer.op += 1
            if first:
                untraced.append(untraced_call())
            root, (_, _, failed, line) = tracer.call("cli.main", None, timed_cli, argv,
                                                     collect=gc_now)
            if not first:
                untraced.append(untraced_call())
            records.add("classify", i, None, None, None, failed, line)

            def replay(name, parent, fn, *args):
                return tracer.call(name, parent, fn, *args, collect=gc_now)

            parse, (tree, _) = replay("newick.parse", root, parse_newick, ttext)
            replay("tree.construct", parse, XTree, shape)
            _, (cords, _) = replay("cords.read", root, read_cord_file, ctext)
            a, b = min(cords) if cords else sorted(tree.leaf_labels)[:2]
            _, v = replay("tree.lca_table", root, tree.lca, a, b)
            replay("tree.route", root, tree.child_toward, v, a)
            cl, report = replay("lasso.classify", root, classify, tree, cords)
            _, graphs = replay("childgraph.graphs", cl, child_edge_graphs, tree, cords)
            tracer.op += 1
            for name, build in BUILDERS:
                replay(name, None, build, tree)
            if done == 0:
                counts["tree.vertices"] += tree.n_vertices
                counts["tree.max_depth"] = max(
                    counts["tree.max_depth"], max(tree.depth(u) for u in tree.vertices()))
                counts["cords.count"] += len(cords)
                counts["childgraph.edges"] += sum(len(list(g.edges())) for g in graphs.values())
                counts["lasso.failing_vertices"] += sum(
                    len(vs) for vs in report.failing_vertices.values())
    return counts, untraced


# --------------------------------------------------------------------------
# oracle route: one decision per operation
# --------------------------------------------------------------------------


def load_oracle(instances, records):
    """Maps each instance onto the warm enumerated tree object, and records classify."""
    trees = {t: t for t in enumerate_xtrees(ORACLE_LABELS)}
    for tree in trees:
        oracle_weak(tree, ())
    loaded = []
    for i, inst in enumerate(instances):
        tree = trees[parse_newick(read(inst["tree"]))[0]]
        cords = read_cord_file(read(inst["cords"]))[0]
        try:
            report = classify(tree, cords)
            flags = {k: getattr(report, k) for k in DECIDE}
        except Exception as exc:
            flags = {"error": repr(exc)}
        records.add("classify_flags", i, None, None, None, False, json.dumps(flags))
        loaded.append((i, tree, cords))
    return loaded


def clade_key(tree, v) -> str:
    return ",".join(sorted(tree.leaves_below(v)))


def decision_text(tree, ok, witness) -> str:
    if witness is None:
        return json.dumps({"ok": ok, "w": None})
    rival = witness.rival
    return json.dumps({"ok": ok, "w": {
        "rival": [clade_key(rival, v) for v in rival.interior_vertices()],
        "ht": {clade_key(tree, v): str(h) for v, h in witness.heights_t.heights.items()},
        "hr": {clade_key(rival, v): str(h) for v, h in witness.heights_rival.heights.items()},
    }})


def decisions(loaded):
    return [(i, kind, tree, cords) for i, tree, cords in loaded for kind in DECIDE]


def timed_decision(kind, tree, cords):
    """One oracle decision: (cpu, wall, failed, verdict, witness)."""
    w0 = time.perf_counter()
    c0 = clock()
    try:
        ok, witness = DECIDE[kind](tree, cords)
        failed = False
    except Exception as exc:
        failed, ok, witness = True, repr(exc), None
    cpu = clock() - c0
    return cpu, time.perf_counter() - w0, failed, ok, witness


def decision_op(kind, tree, cords):
    """One timed decision: (cpu, wall, failed, output text); the text is made untimed."""
    cpu, wall, failed, ok, witness = timed_decision(kind, tree, cords)
    return cpu, wall, failed, decision_text(tree, ok, witness)


def oracle_ops(loaded):
    return [("oracle", i, kind, functools.partial(decision_op, kind, tree, cords))
            for i, kind, tree, cords in decisions(loaded)]


def trace_oracle(loaded, records, tracer, passes):
    false_verdicts = 0
    untraced = []
    todo = decisions(loaded)
    for done in range(passes):
        for j, (i, kind, tree, cords) in enumerate(todo):
            if j % GC_BATCH == 0:
                gc.collect()
            tracer.op += 1
            if j % 2 == 0:  # untraced twin first or second in turn, as in trace_classify
                untraced.append(timed_decision(kind, tree, cords)[0])
            d, (ok, witness) = tracer.call(f"oracle.{kind}", None, DECIDE[kind], tree, cords)
            if j % 2 == 1:
                untraced.append(timed_decision(kind, tree, cords)[0])
            records.add("oracle", i, kind, None, None, False, decision_text(tree, ok, witness))
            if not ok:
                _, system = tracer.call("oracle.joint_system", d, joint_isometry_system,
                                        tree, witness.rival, cords)
                tracer.call("feasibility.strict_feasible", d, strict_feasible, system)
                tracer.call("heights.verify_witness", d, verify_witness,
                            tree, cords, witness, kind)
                if done == 0:
                    false_verdicts += 1
    return {"oracle.false_verdicts": false_verdicts}, untraced


def trace_enumeration(manifest, records, tracer):
    """Cold enumerations on fresh label sets, and sampled 6-leaf decisions."""
    for j in range(5):
        tracer.op += 1
        _, trees = tracer.call("oracle.enumerate", None, enumerate_xtrees,
                               [f"{x}{j}" for x in "vwxyz"])
        records.add("enumerate", 5, None, None, None, False, str(len(trees)))
    labels6 = manifest["labels6"]
    records.add("enumerate", 6, None, None, None, False, str(len(enumerate_xtrees(labels6))))
    for i, inst in enumerate(manifest["sampled6"]):
        tree = parse_newick(read(inst["tree"]))[0]
        cords = read_cord_file(read(inst["cords"]))[0]
        tracer.op += 1
        _, (ok, witness) = tracer.call("oracle.sampled6", None, oracle_weak, tree, cords,
                                       rival_sample=200, seed=0)
        records.add("sampled6", i, "weak", None, None, False, decision_text(tree, ok, witness))


def main() -> None:
    summary = {"setup_s": [SETUP_S]}
    if MODE != "setup":
        with open(os.path.join(WORK_DIR, "manifest.json")) as f:
            manifest = json.load(f)
        passes = int(PASSES)
        records = Records(os.path.join(WORK_DIR, "records.jsonl"))
        if MODE == "run" and ROUTE == "classify":
            summary["setup_s"] += run(classify_ops(manifest["classify"]), records, passes, 1)
        elif MODE == "run":
            loaded = load_oracle(manifest["oracle"], records)
            summary["setup_s"] += run(oracle_ops(loaded), records, passes, GC_BATCH)
        else:
            tracer = Tracer()
            loaded = load_oracle(manifest["oracle"], records)
            if ROUTE == "classify":
                counts, untraced = trace_classify(manifest["classify"], records, tracer, passes)
                more, _ = trace_oracle(loaded, records, tracer, 1)
                main_spans = {"cli.main"}
            else:
                counts, untraced = trace_oracle(loaded, records, tracer, passes)
                more, _ = trace_classify(manifest["classify"], records, tracer, 1,
                                         gc_every=GC_BATCH)
                main_spans = {f"oracle.{k}" for k in DECIDE}
            counts.update(more)
            trace_enumeration(manifest, records, tracer)
            traced = [s[5] - s[4] for s in tracer.spans if s[3] in main_spans]
            counts["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
            tracer.dump(os.path.join(WORK_DIR, "spans.jsonl"), counts)
        records.close()
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
