"""The benchmark worker still starts against the library it measures.

The worker imports library names at its top; a rename would break the
benchmark without failing any library test, so each route's set-up runs
here in its own process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


@pytest.mark.parametrize("route", ["classify", "oracle"])
def test_worker_setup_starts(route, tmp_path):
    done = subprocess.run(
        [sys.executable, str(WORKER), "setup", route, str(tmp_path), "0", "a,b,c,d,e"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(summary) == ["setup_s"]
    assert len(summary["setup_s"]) == 1 and summary["setup_s"][0] > 0
