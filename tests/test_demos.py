"""Every demo script runs to completion against the package in this tree."""

import os
import subprocess
import sys

import pytest

from conftest import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs_cleanly(demo, tmp_path):
    # run from an empty directory, as tools/golden_diff.py does, so the
    # files a demo writes land in tmp_path
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                          cwd=tmp_path, env=subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
