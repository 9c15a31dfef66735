"""Every demo runs to a clean exit, so deleting a public name a demo uses
fails a test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loewnerkit

SRC_DIR = str(Path(loewnerkit.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
