"""The output checker rejects corrupted answers.

    python3 -m pytest bench/test_check.py
"""

import json
import random

import check
import gen

TREE = [["a", "b"], "c"]
CORDS = [("a", "b")]
# ((a,b),c) with h(ab) = 1 and the rival ((a,c),b) with h(root) = 1: both
# put a and b at distance 2, and the rival does not refine the tree.
WITNESS = {
    "ok": False,
    "w": {
        "rival": ["a,b,c", "a,c"],
        "ht": {"a,b,c": "2", "a,b": "1"},
        "hr": {"a,b,c": "1", "a,c": "1/2"},
    },
}


def decide(out, kind="weak"):
    clusters = gen.Flat(TREE).clusters()
    expected = check.expected_report(gen.Flat(TREE), CORDS)["flags"][kind]
    return check.check_decision(kind, out, clusters, CORDS, expected, expected)


def corrupt(**changes):
    out = json.loads(json.dumps(WITNESS))
    for table, (key, value) in changes.items():
        out["w"][table][key] = value
    return out


def test_a_valid_witness_passes():
    assert decide(WITNESS) == []
    assert decide(WITNESS, "topological") == []


def test_a_corrupted_verdict_is_rejected():
    assert decide({"ok": True, "w": None})


def test_corrupted_witnesses_are_rejected():
    assert decide(corrupt(hr=("a,b,c", "3/2")))  # cord distances differ
    assert decide(corrupt(ht=("a,b", "2")))  # not proper
    assert decide(WITNESS, "equidistant")  # the rival is another tree
    refining = {"ok": False, "w": {"rival": ["a,b,c", "a,b"], "ht": WITNESS["w"]["ht"],
                                   "hr": WITNESS["w"]["ht"]}}
    assert decide(refining)  # the rival refines the tree


def classify_case(family):
    rng = random.Random(7)
    shape = gen.random_tree(rng, 40, 4)
    flat = gen.Flat(shape)
    cords, dropped = gen.cord_family(rng, flat, family)
    instance = {"cords": cords, "family": family, "dropped": dropped, "binary": False}
    expected = check.expected_report(flat, cords)
    line = {"v": 1, "tree": gen.to_newick(shape),
            "cords": len(cords), **expected["flags"], "failing": expected["failing"]}
    return instance, flat, expected, line


def test_classify_lines_are_checked():
    for family in gen.FAMILIES:
        instance, flat, expected, line = classify_case(family)
        assert check.check_classify(instance, flat, expected, json.dumps(line)) == []
        flipped = dict(line, equidistant=not line["equidistant"])
        assert check.check_classify(instance, flat, expected, json.dumps(flipped))
        moved = dict(line, failing=dict(line["failing"], weak=["{t0}"]))
        assert check.check_classify(instance, flat, expected, json.dumps(moved))


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("ok")
