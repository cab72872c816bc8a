"""Command-line surface: outputs, determinism, exit codes."""

import json

import pytest

from treelasso import HeightMap, cord_set, parse_newick
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


def test_deep_input_exits_2(capsys, tmp_path):
    newick = "a0"
    for i in range(1, 601):
        newick = f"({newick},a{i})"
    tree = tmp_path / "deep.nwk"
    tree.write_text(newick + ";\n")
    cords = tmp_path / "c.txt"
    cords.write_text("a0 a1\n")
    code, _, err = run(capsys, "classify", "--tree", str(tree), "--cords", str(cords))
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


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
