"""Each demo script runs standalone to exit code 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import slowfast_spde

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # in tmp_path: with matplotlib present, three demos save a figure to
    # the working directory
    src = str(Path(slowfast_spde.__file__).parents[1])
    env = {**os.environ, "MPLBACKEND": "Agg",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
