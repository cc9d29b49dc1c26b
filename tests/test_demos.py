"""Every demo script runs to completion against the package in this tree,
and the CSV files the demos write are pinned by sha256. Their stdout is not
pinned: it prints numpy scalars, whose text depends on numpy's repr
(tools/golden_diff.py compares it between two trees instead)."""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

# demo -> {file it writes: sha256}
WRITTEN = {
    "02_integrate_trajectories.py": {
        "trajectory_demo.csv": "71d42b6611564d6a7c083c84a20fc6fe500d45746f462a9bc42bd9b18776f291",
    },
    "04_lyapunov_descent.py": {
        "lyapunov_demo.csv": "68ca30fa6aef4a5a8aa918e2a3c535f1fc6559401fb13554e1bd182c8bc0bdfa",
    },
}


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs_cleanly(demo, tmp_path):
    # run from an empty directory, as tools/golden_diff.py does, so the
    # files a demo writes land in tmp_path
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                          cwd=tmp_path, env=subprocess_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for name, digest in WRITTEN.get(demo, {}).items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
