"""Command-line surface: outputs, determinism, exit codes."""

import json
import tracemalloc

import pytest

from conftest import random_cords, random_xtree
from treelasso import HeightMap, cli, cord_set, format_cord_file, parse_newick, print_newick
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

    alien = tmp_path / "alien.txt"
    alien.write_text("a z\n")
    code, _, err = run(capsys, "classify", "--tree", tree_file, "--cords", str(alien))
    assert code == 2

    code, _, err = run(capsys, "build", "--tree", tree_file, "--kind", "bipartition")
    assert code == 2


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
