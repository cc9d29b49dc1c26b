"""Every demo script runs to completion against the package in this tree,
and its stdout and the CSV files it writes are pinned by sha256. No demo
prints a numpy repr, only Python floats, complex numbers and formatted
text, so the stdout does not depend on numpy's version. The hashes were
recorded before the scenario runner wrote its files in one block; those of
demos 03 and 06, which print roots of G, again when the real-root polish
became Newton-bisection."""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

# demo -> sha256 of its stdout
STDOUT = {
    "01_model_and_equilibria.py": "c4d04453e20457c433b928c7667016c1539d45e87a9402ee9510da5191316d89",
    "02_integrate_trajectories.py": "636aee679e02c18d4901b1988d461d314dbb783a21b5c9b888ed053c6312a767",
    "03_stability_reports.py": "c88fe649822ce95538f267d3e83ac8cd0c4f9c3f4266ca95a0d21dff3c03fbb9",
    "04_lyapunov_descent.py": "a43c0a32891e4e2613d5d76e2a52a65f4321dd725be49e0edcdc720366541ce6",
    "05_persistence_check.py": "df30984c683465db32801fe471935d2ce63bdcdd149949c63445cb7eea0a1a59",
    "06_scenarios_and_sweeps.py": "e1511aa56f7ff9921704083590479ee2775bced234c927a0b856ded81ccbdf8d",
}

# demo -> {file it writes: sha256}
WRITTEN = {
    "02_integrate_trajectories.py": {
        "trajectory_demo.csv": "71d42b6611564d6a7c083c84a20fc6fe500d45746f462a9bc42bd9b18776f291",
    },
    "04_lyapunov_descent.py": {
        "lyapunov_demo.csv": "52d4b83b6f6d2030eb2258b6f29a35aee4238022eea40db5d1cfc8eacede29fa",
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
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT[demo]
    for name, digest in WRITTEN.get(demo, {}).items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
