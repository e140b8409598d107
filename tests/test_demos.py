"""Smoke test: every demo script runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vftk

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # demo_e8_frames runs without --census, which would add the full frame walk
    src = os.path.dirname(os.path.dirname(vftk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
