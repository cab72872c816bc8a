"""Command-line surface: outputs, determinism, exit codes."""

import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import (
    bearded_caterpillar,
    clade_by_sorting,
    random_cords,
    random_proper_heights,
    random_shape,
    random_xtree,
)
from treelasso import (
    HeightMap,
    XTree,
    cli,
    cord_set,
    format_cord_file,
    parse_newick,
    print_newick,
)
from treelasso.cli import main


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.nwk"
    path.write_text("(((a,b),c),d);\n")
    return str(path)


@pytest.fixture
def cords_file(tmp_path):
    path = tmp_path / "cords.txt"
    path.write_text("a b\na c\na d\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_with_oracle_agreement(capsys, tree_file, cords_file):
    code, out, err = run(
        capsys, "classify", "--tree", tree_file, "--cords", cords_file, "--oracle"
    )
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["v"] == 1
    assert payload["strong"] is True
    assert payload["oracle"]["agree"] is True
    assert "equidistant" in out


def test_classify_reports_failing_clades(capsys, tree_file, tmp_path):
    cords = tmp_path / "few.txt"
    cords.write_text("a b\n")
    code, out, _ = run(capsys, "classify", "--tree", tree_file, "--cords", str(cords))
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["equidistant"] is False
    assert "{a,b,c,d}" in payload["failing"]["equidistant"]


def test_build_kinds(capsys, tree_file, tmp_path):
    code, out, _ = run(capsys, "build", "--tree", tree_file, "--kind", "equidistant")
    assert code == 0
    assert out.splitlines() == ["a b", "a c", "a d"]

    code, out, _ = run(capsys, "build", "--tree", tree_file, "--kind", "circular")
    assert code == 0
    assert sorted(out.splitlines()) == ["a b", "a d", "b c", "c d"]

    part = tmp_path / "part.txt"
    part.write_text("a c\nb d\n")
    code, out, _ = run(
        capsys, "build", "--tree", tree_file, "--kind", "bipartition", "--partition", str(part)
    )
    assert code == 0
    assert sorted(out.splitlines()) == ["a b", "a d", "b c", "c d"]


def test_build_circular_seed_determinism(capsys, tree_file):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "build", "--tree", tree_file, "--kind", "circular", "--seed", "7"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_shared_parser_carries_no_state_between_calls(capsys, tree_file, cords_file):
    # main() reuses one parser per process: an option given to one call
    # must not reach the next.
    assert cli.build_parser() is cli.build_parser()

    code, out, _ = run(capsys, "classify", "--tree", tree_file, "--cords", cords_file, "--oracle")
    assert code == 0 and "oracle" in json.loads(out.strip().splitlines()[-1])
    code, out, _ = run(capsys, "classify", "--tree", tree_file, "--cords", cords_file)
    assert code == 0 and "oracle" not in json.loads(out.strip().splitlines()[-1])

    code, seeded, _ = run(capsys, "build", "--tree", tree_file, "--kind", "circular", "--seed", "3")
    assert code == 0
    code, out, _ = run(capsys, "build", "--tree", tree_file, "--kind", "circular")
    assert code == 0
    # seed=None takes the canonical child order; seed 3 embeds this tree otherwise
    assert sorted(out.splitlines()) == ["a b", "a d", "b c", "c d"] != sorted(seeded.splitlines())
    assert cli.build_parser().parse_args(["build", "--tree", tree_file, "--kind", "circular"]).seed is None

    codes = []
    for argv in (["classify", "--tree", tree_file], ["classify", "--tree", tree_file]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        codes.append(exc.value.code)
    assert codes == [2, 2]
    assert "--cords" in capsys.readouterr().err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--leaves", "a,b,c")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, "enumerate", "--leaves", "a,b,c,d", "--binary", "--count-only")
    assert code == 0
    assert out.strip() == "15"


def test_enumerate_rejects_an_empty_label(capsys):
    for leaves in ("a,,b,c,", "a,b,c,", ",a,b,c", ""):
        code, out, err = run(capsys, "enumerate", "--leaves", leaves, "--count-only")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "empty label" in err


def test_witness_round_trip(capsys, tmp_path):
    tree = tmp_path / "t4.nwk"
    tree.write_text("((a,b,c),d);\n")
    cords = tmp_path / "c.txt"
    cords.write_text("a b\na d\n")
    code, out, _ = run(
        capsys, "witness", "--tree", str(tree), "--cords", str(cords), "--kind", "weak"
    )
    assert code == 0
    first, second = out.strip().splitlines()
    t1, w1 = parse_newick(first)
    t2, w2 = parse_newick(second)
    h1, h2 = HeightMap.from_edge_weights(w1), HeightMap.from_edge_weights(w2)
    assert h1.is_l_isometric(h2, cord_set([("a", "b"), ("a", "d")]))
    assert not t2.refines(t1)


def test_witness_none(capsys, tree_file, cords_file):
    code, out, _ = run(
        capsys, "witness", "--tree", tree_file, "--cords", cords_file, "--kind", "topological"
    )
    assert code == 0
    assert out.strip() == "none"


def test_oracle_commands_at_six_leaves(capsys, tmp_path):
    tree = tmp_path / "t6.nwk"
    tree.write_text("((a,b),(c,d),(e,f));\n")
    strong = tmp_path / "strong.txt"
    strong.write_text("a b\na c\na e\nc d\nc e\ne f\n")
    code, out, err = run(capsys, "classify", "--tree", str(tree), "--cords", str(strong), "--oracle")
    assert code == 0 and err == ""
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["strong"] is True
    assert payload["oracle"] == {"equidistant": True, "weak": True, "topological": True, "agree": True}

    pairs = [("a", "b"), ("c", "d"), ("e", "f"), ("a", "c")]
    cords = tmp_path / "c.txt"
    cords.write_text(format_cord_file(cord_set(pairs)))
    code, out, _ = run(capsys, "witness", "--tree", str(tree), "--cords", str(cords), "--kind", "weak")
    assert code == 0
    first, second = out.strip().splitlines()
    t1, w1 = parse_newick(first)
    t2, w2 = parse_newick(second)
    h1, h2 = HeightMap.from_edge_weights(w1), HeightMap.from_edge_weights(w2)
    assert h1.is_l_isometric(h2, cord_set(pairs))
    assert not t2.refines(t1)


def test_classify_oracle_past_the_cap_prints_only_the_error(capsys, tmp_path, cords_file):
    # the oracle decides before any output: seven leaves exit 2 with no report
    tree = tmp_path / "t7.nwk"
    tree.write_text("(((a,b),c),((d,e),(f,g)));\n")
    code, out, err = run(capsys, "classify", "--tree", str(tree), "--cords", cords_file, "--oracle")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "2..6 leaves, got 7" in err
    assert len(err.strip().splitlines()) == 1


def test_equidistant_witness_past_the_enumeration_cap(capsys, tmp_path):
    tree = tmp_path / "t8.nwk"
    tree.write_text("((((a,b),c),(d,e)),((f,g),h));\n")
    cords = tmp_path / "c.txt"
    cords.write_text("a c\nc e\n")
    code, out, _ = run(
        capsys, "witness", "--tree", str(tree), "--cords", str(cords), "--kind", "equidistant"
    )
    assert code == 0
    first, second = out.strip().splitlines()
    t1, w1 = parse_newick(first)
    t2, w2 = parse_newick(second)
    assert t1 == t2 and w1 != w2
    h1, h2 = HeightMap.from_edge_weights(w1), HeightMap.from_edge_weights(w2)
    assert h1.is_l_isometric(h2, cord_set([("a", "c"), ("c", "e")]))


def test_distances(capsys, tmp_path):
    tree = tmp_path / "wt.nwk"
    tree.write_text("((a:1,b:1):2,c:3);\n")
    cords = tmp_path / "c.txt"
    cords.write_text("a b\na c\n")
    code, out, _ = run(capsys, "distances", "--tree", str(tree), "--cords", str(cords))
    assert code == 0
    assert out.splitlines() == ["a b 2", "a c 6"]


def test_distances_of_many_cords_match_leaf_distance(capsys, tmp_path):
    # one climb over all cords prints what one lca per cord gives
    tree = XTree(random_shape(3000, 36))
    heights = random_proper_heights(tree, 36)
    newick = tmp_path / "big.nwk"
    newick.write_text(print_newick(tree, heights.to_edge_weights()) + "\n")
    rng = random.Random(36)
    labels = sorted(tree.leaf_labels)
    cords = cord_set(rng.sample(labels, 2) for _ in range(2000))
    path = tmp_path / "cords.txt"
    path.write_text(format_cord_file(cords))
    code, out, err = run(capsys, "distances", "--tree", str(newick), "--cords", str(path))
    assert code == 0 and err == ""
    assert out == format_cord_file(cords, {c: heights.leaf_distance(*c) for c in cords})
    assert len(out.splitlines()) == len(cords) > 1900


def test_input_errors_exit_2(capsys, tree_file, cords_file, tmp_path):
    code, _, err = run(capsys, "classify", "--tree", "missing.nwk", "--cords", cords_file)
    assert code == 2 and "error:" in err

    bad = tmp_path / "bad.nwk"
    bad.write_text("((a));\n")
    code, _, err = run(capsys, "classify", "--tree", str(bad), "--cords", cords_file)
    assert code == 2 and "unary" in err

    unweighted = tmp_path / "plain.nwk"
    unweighted.write_text("(a,b,c);\n")
    code, _, err = run(capsys, "distances", "--tree", str(unweighted), "--cords", cords_file)
    assert code == 2

    # a cord label that is not a leaf: each subcommand's library call names it
    alien = tmp_path / "alien.txt"
    alien.write_text("a z\n")
    weighted = tmp_path / "weighted.nwk"
    weighted.write_text("(((a:1,b:1):1,c:2):1,d:3);\n")
    for argv in (
        ("classify", "--tree", tree_file),
        ("classify", "--oracle", "--tree", tree_file),
        ("witness", "--kind", "weak", "--tree", tree_file),
        ("distances", "--tree", str(weighted)),
    ):
        code, out, err = run(capsys, *argv, "--cords", str(alien))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "'z'" in err

    code, _, err = run(capsys, "build", "--tree", tree_file, "--kind", "bipartition")
    assert code == 2

    # a leaf label that a cord file would misread is named, not written
    for newick, label in (("((#x,b),(c,d));", "#x"), ("((a#1,b),(c,d));", "a#1")):
        hashed = tmp_path / "hashed.nwk"
        hashed.write_text(newick + "\n")
        code, out, err = run(capsys, "build", "--tree", str(hashed), "--kind", "topological")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and repr(label) in err

    # a build option that the kind does not use is rejected, not ignored
    partition = tmp_path / "p.txt"
    partition.write_text("a b\nc d\n")
    for argv, flag in (
        (("--kind", "weak", "--seed", "3"), "--seed"),
        (("--kind", "topological", "--partition", str(partition)), "--partition"),
    ):
        code, out, err = run(capsys, "build", "--tree", tree_file, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and flag in err


def test_deep_caterpillar_classifies(capsys, tmp_path):
    newick = "a0"
    for i in range(1, 601):
        newick = f"({newick},a{i})"
    tree = tmp_path / "deep.nwk"
    tree.write_text(newick + ";\n")
    cords = tmp_path / "c.txt"
    cords.write_text("a0 a1\n")
    code, out, err = run(capsys, "classify", "--tree", str(tree), "--cords", str(cords))
    assert code == 0 and err == ""
    payload = json.loads(out.strip().splitlines()[-1])
    # one cord meets only at the cherry {a0, a1}: the 599 vertices above fail
    assert [payload[k] for k in ("equidistant", "weak", "topological", "strong")] == [False] * 4
    assert [len(payload["failing"][k]) for k in ("equidistant", "weak", "topological")] == [599] * 3


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_recursion_and_memory_errors_exit_2(capsys, monkeypatch, tree_file, cords_file, error):
    def load(path):
        raise error()

    monkeypatch.setattr(cli, "_load_tree", load)
    code, out, err = run(capsys, "classify", "--tree", tree_file, "--cords", cords_file)
    assert code == 2 and out == ""
    assert err.startswith("error:") and error.__name__ in err
    assert len(err.strip().splitlines()) == 1


def test_deep_caterpillar_round_trip(capsys, tmp_path):
    # 2000 nested levels, already in canonical child order, and one cord
    # meeting at each interior vertex: a strong lasso on a binary tree.
    n = 2000
    text = "(" * n + "a0" + "".join(f",a{i})" for i in range(1, n + 1)) + ";"
    tree_path = tmp_path / "deep.nwk"
    tree_path.write_text(text + "\n")
    cords = tmp_path / "c.txt"
    cords.write_text("".join(f"a{i - 1} a{i}\n" for i in range(1, n + 1)))

    tree, _ = parse_newick(text)
    code, out, err = run(capsys, "classify", "--tree", str(tree_path), "--cords", str(cords))
    assert code == 0 and err == ""
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["equidistant"] is True and payload["strong"] is True
    assert payload["tree"] == tree.canonical_newick() == text
    assert print_newick(tree) == text


def test_classify_memory_stays_linear(capsys, tmp_path):
    # An all-pairs LCA table over these 2000 leaves would peak near 200 MB.
    tree = random_xtree(2000, 0)
    tree_path = tmp_path / "t.nwk"
    tree_path.write_text(tree.canonical_newick() + "\n")
    cords = tmp_path / "c.txt"
    cords.write_text(format_cord_file(random_cords(tree, 3 * 2000, seed=1)))
    tracemalloc.start()
    try:
        code = main(["classify", "--tree", str(tree_path), "--cords", str(cords)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 40 * 2**20, f"classify peaked at {peak / 2**20:.1f} MB"


def caterpillar_text(depth: int) -> str:
    """A caterpillar of the given depth, in canonical child order."""
    return "(" * depth + "a0" + "".join(f",a{i})" for i in range(1, depth + 1)) + ";"


def test_classify_cpu_is_depth_independent(capsys, tmp_path):
    # A 20,000-deep caterpillar with one seeded cord per interior vertex.
    # A parent-pointer walk per cord costs O(depth) and took about 5 s of
    # CPU on a 2-vCPU host; heavy-path meets take a few jumps per cord.
    n = 20_000
    tree_path = tmp_path / "deep.nwk"
    tree_path.write_text(caterpillar_text(n) + "\n")
    rng = random.Random(1)
    cords = tmp_path / "c.txt"
    cords.write_text("".join(f"a{rng.randrange(i)} a{i}\n" for i in range(1, n + 1)))
    start = time.process_time()
    code = main(["classify", "--tree", str(tree_path), "--cords", str(cords)])
    elapsed = time.process_time() - start
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out.strip().splitlines()[-1])
    assert [payload[k] for k in ("equidistant", "weak", "topological", "strong")] == [True] * 4
    assert elapsed < 2, f"classify took {elapsed:.2f} s of CPU"


NAMING_TREES = {
    "caterpillar": lambda: parse_newick(caterpillar_text(300))[0],
    "bearded-3": lambda: bearded_caterpillar(3, 40),
    "bearded-5": lambda: bearded_caterpillar(5, 20),
    "random": lambda: random_xtree(300, 4),
}


@pytest.mark.parametrize("shape", NAMING_TREES)
def test_failing_clades_match_per_vertex_sorting(capsys, monkeypatch, tmp_path, shape):
    tree = NAMING_TREES[shape]()
    tree_path = tmp_path / "t.nwk"
    tree_path.write_text(tree.canonical_newick() + "\n")
    interior = tree.interior_vertices()

    def first_leaf(v):
        return min(tree.leaves_below(v))

    # one cord per interior vertex, between its first two children
    per_vertex = {
        v: tuple(sorted(map(first_leaf, tree.children(v)[:2]))) for v in interior
    }
    chain = [max(interior, key=tree.depth)]  # the deepest vertex and its ancestors
    while tree.parent(chain[-1]) is not None:
        chain.append(tree.parent(chain[-1]))
    cord_sets = {
        # no equidistant failures
        "per-vertex": (set(per_vertex.values()), set()),
        # every seventh vertex fails
        "sparse": ({c for v, c in per_vertex.items() if v % 7}, {v for v in interior if not v % 7}),
        # the nested clades of one root path fail
        "nested": ({c for v, c in per_vertex.items() if v not in chain}, set(chain)),
        # every interior vertex fails
        "empty": (set(), set(interior)),
        "dense": (random_cords(tree, 3 * len(tree.leaf_labels), seed=2), None),
    }

    def reference(self, vertices):
        return {v: clade_by_sorting(self, v) for v in vertices}

    for name, (cords, eq_failing) in cord_sets.items():
        cords_path = tmp_path / f"{name}.txt"
        cords_path.write_text(format_cord_file(cords))
        argv = ("classify", "--tree", str(tree_path), "--cords", str(cords_path))
        code, out, err = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(XTree, "_clade_names", reference)
            ref_code, ref_out, _ = run(capsys, *argv)
        assert code == ref_code == 0 and err == ""
        assert out == ref_out, name
        if eq_failing is not None:
            failing = json.loads(out.strip().splitlines()[-1])["failing"]["equidistant"]
            assert failing == [clade_by_sorting(tree, v) for v in sorted(eq_failing)], name


def test_distance_column_rejected(capsys, tree_file, tmp_path):
    cords = tmp_path / "dist.txt"
    cords.write_text("a b 3/2\n")
    weighted = tmp_path / "wt.nwk"
    weighted.write_text("(((a:1,b:1):1,c:2):1,d:3);\n")
    for command, tree in (("classify", tree_file), ("witness", tree_file), ("distances", weighted)):
        extra = ["--kind", "weak"] if command == "witness" else []
        code, out, err = run(capsys, command, "--tree", str(tree), "--cords", str(cords), *extra)
        assert code == 2 and out == ""
        assert "distance column" in err and "not use" in err


def test_files_with_a_byte_order_mark_read_as_without(capsys, tmp_path):
    # tree, cord and partition files saved with a UTF-8 byte-order mark give
    # the output of the same files without one
    texts = {"tree": "(((a,b),c),d);\n", "cords": "a b\na d\n", "part": "a c\nb d\n"}
    plain, marked = {}, {}
    for name, text in texts.items():
        plain[name] = tmp_path / f"{name}.txt"
        plain[name].write_text(text, encoding="utf-8")
        marked[name] = tmp_path / f"{name}-bom.txt"
        marked[name].write_bytes(b"\xef\xbb\xbf" + text.encode())
    outputs = []
    for files in (plain, marked):
        tree, cords, part = (str(files[name]) for name in texts)
        outputs.append([
            run(capsys, "classify", "--tree", tree, "--cords", cords, "--oracle"),
            run(capsys, "witness", "--tree", tree, "--cords", cords, "--kind", "weak"),
            run(capsys, "build", "--tree", tree, "--kind", "bipartition", "--partition", part),
        ])
    assert [code for code, _, _ in outputs[0]] == [0, 0, 0]
    assert outputs[1] == outputs[0]


def test_a_closed_stdout_pipe_exits_141_quietly(capsys):
    # more output than a pipe holds (64 KB), read for one line: the writes
    # after the reader closes fail, and the command stops as SIGPIPE would,
    # with 128 + 13 and nothing on stderr
    argv = ["enumerate", "--leaves", ",".join(f"leaf_{x}" for x in "abcdef")]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out) > 2 * 2**16
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "treelasso.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
    assert first.decode() == out.splitlines(keepends=True)[0]


class _ClosedPipe:
    """A stdout whose reader is gone: every write and flush fails."""

    def __init__(self, fd: int) -> None:
        self.fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError

    def flush(self) -> None:
        raise BrokenPipeError

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(
    capsys, monkeypatch, tmp_path, tree_file, cords_file, collecting
):
    # main() pauses the cyclic collector for a command; on every way out,
    # exits 0, 2 and 141 and an option error, it is on again exactly when
    # it was on before
    argv = ["classify", "--tree", tree_file, "--cords", cords_file]
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert run(capsys, *argv)[0] == 0
        assert gc.isenabled() is collecting
        missing = ["classify", "--tree", str(tmp_path / "missing"), "--cords", cords_file]
        assert run(capsys, *missing)[0] == 2
        assert gc.isenabled() is collecting
        with pytest.raises(SystemExit):
            main(["classify", "--tree", tree_file])
        assert gc.isenabled() is collecting
        # main() points the closed pipe's descriptor at the null device
        with open(tmp_path / "sink", "w") as sink:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
                assert main(argv) == 141
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_a_paused_collector_defers_no_work(capsys, tmp_path):
    # the library's structures hold no reference cycles, so a classify
    # command leaves nothing for the collector it paused
    tree = random_xtree(2000, 35)
    tree_file, cords_file = tmp_path / "tree.nwk", tmp_path / "cords.txt"
    tree_file.write_text(tree.canonical_newick() + "\n")
    cords_file.write_text(format_cord_file(random_cords(tree, 2000, seed=35)))
    del tree
    gc.collect()
    assert run(capsys, "classify", "--tree", str(tree_file), "--cords", str(cords_file))[0] == 0
    assert gc.collect() == 0
