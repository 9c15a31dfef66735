"""Every demo, and the README's library tour, runs to a clean exit, so
deleting a public name one of them uses fails a test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loewnerkit

SRC_DIR = str(Path(loewnerkit.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_clean(args):
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    _run_clean([str(demo)])


def test_readme_library_tour_runs():
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert "membership_test" in code
    _run_clean(["-c", code])
