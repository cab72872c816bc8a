"""What README.md shows holds: its quick start runs, its commands parse, its sources exist."""

import argparse
import doctest
import re
from pathlib import Path

from treelasso import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_quick_start_runs_as_shown():
    result = doctest.testfile(str(README), module_relative=False, report=False)
    assert result.attempted >= 10
    assert result.failed == 0


def _command_block() -> str:
    """The first fenced block after the "Command line" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    return section.split("```\n", 2)[1]


def test_command_line_block_matches_the_parser():
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    # each entry is a "treelasso <command> ..." line and its indented description
    entries = re.split(r"^treelasso ", _command_block(), flags=re.MULTILINE)[1:]
    shown = {}
    for entry in entries:
        name = entry.split()[0]
        assert name in commands.choices, f"README shows an unknown subcommand {name!r}"
        shown[name] = set(re.findall(r"--[a-z][a-z-]*", entry))
    assert sorted(shown) == sorted(commands.choices)
    for name, flags in shown.items():
        unknown = flags - set(commands.choices[name]._option_string_actions)
        assert not unknown, f"README shows {sorted(unknown)} for {name}, which has none"


def test_every_named_bench_file_exists():
    documents = [README, *sorted((ROOT / "src" / "treelasso").glob("*.py"))]
    text = "\n".join(path.read_text(encoding="utf-8") for path in documents)
    named = set(re.findall(r"BENCH_\d+\.json", text))
    missing = sorted(name for name in named if not (ROOT / name).is_file())
    assert not missing, f"named but not in the repository: {missing}"
