"""The CLI artifacts of the demo scenarios, pinned by sha256.

Each command runs in-process through `cli.main` from a fresh working
directory with a relative --out, so the paths printed into report.txt are
the same on every machine. The `report --only` sections write no files;
their exit code, stdout and stderr are pinned instead. The hashes were recorded
before the RK4 loop had the model written inline (the report sections
before the records validated themselves). The report.txt and stability
section hashes were re-recorded when the real-root polish became
Newton-bisection: the printed roots moved by at most 1.2e-13, within
ROOT_XTOL. The lyapunov.csv hashes were re-recorded when the functionals'
logarithms moved from numpy's SIMD kernel to libm's math.log: values moved
in the last digit, and the new hashes are what the earlier code wrote with
AVX-512 dispatch off. Any changed byte in a node, a Lyapunov value, a report
line or a sweep row shows here. A change that moves the numbers on purpose
updates the hash and says why.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import malaria_dde.cli as cli
from conftest import subprocess_env

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "demos", "scenarios")

# (command, scenario file) -> {artifact: sha256}
GOLDENS = {
    ("simulate", "endemic.json"): {
        "report.txt": "3261ef1a36125f7b384575e2bf015417309338ef0fa284eea6739dacdb334edf",
        "trajectory.csv": "71d42b6611564d6a7c083c84a20fc6fe500d45746f462a9bc42bd9b18776f291",
        "lyapunov.csv": "363b629e98b6ecd9b50311c44195c7245fe6a0af076d1ab9e0bdc31ca79db967",
    },
    ("simulate", "fadeout.json"): {
        "report.txt": "f1a7538084465c58cf2b1a45a8bf66c1af39725721b0c22202b0a372e35fb265",
        "trajectory.csv": "ea3cec83b91bc446ed6981c3705325ad090bd0074fbbc2107db2434bdbc6df78",
        "lyapunov.csv": "c6e4e1ae92bb15a1dae357aa10f88135efe4554dd2bc6ffb1a4f50afebf3492f",
    },
    ("sweep", "sweep_c_vh.json"): {
        "sweep.csv": "e215a011bd5b25e6d62a5914d1e1ec4b3caafcfa0fee1b873993e1ad884ab429",
    },
}


@pytest.mark.parametrize("command,scenario", sorted(GOLDENS))
def test_cli_artifacts_are_byte_identical(tmp_path, monkeypatch, command, scenario):
    monkeypatch.chdir(tmp_path)
    out = os.path.join("out", scenario[:-5])
    argv = [command, os.path.join(SCENARIOS, scenario), "--out", out, "--quiet"]
    assert cli.main(argv) == 0
    written = sorted(os.listdir(out))
    assert written == sorted(GOLDENS[command, scenario])
    for name in written:
        with open(os.path.join(out, name), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == GOLDENS[command, scenario][name], name


EMPTY = hashlib.sha256(b"").hexdigest()

# (scenario file, section) -> (exit code, sha256 of stdout, sha256 of stderr)
# of `report --only section`; fadeout (R0 < 1) has no persistence section
REPORTS = {
    ("endemic.json", "stability"):
        (0, "f6748b19955e45fc4f6eef54a5a2f41d1403d0433518746b8b545f94774b89f7", EMPTY),
    ("endemic.json", "lyapunov"):
        (0, "97e8ee3351ea561e18c5a0c931563a684241074b2e4906a9b07f4d7ad88fd2b9", EMPTY),
    ("endemic.json", "persistence"):
        (0, "acec9756a804cd55392bc11075d1d0255f08bfc61f79dbefd2444d590b4e2bf3", EMPTY),
    ("fadeout.json", "stability"):
        (0, "13c51974a4d88871351b9b493bcbaeebb9f4473c25a3d1996722ede8d4bdee4c", EMPTY),
    ("fadeout.json", "lyapunov"):
        (0, "6b4e0b6c6d40f64f118ed844e606754963a3a19fb863c1f63610ded55e66865f", EMPTY),
    ("fadeout.json", "persistence"):  # "error: operation requires R0 > 1, ..."
        (1, EMPTY, "013f4f83f54db32d47642a0912661211656a6aaffa42cb798e9ac6737f0bbad7"),
}


@pytest.mark.parametrize("scenario,section", sorted(REPORTS))
def test_report_sections_are_byte_identical(capsys, scenario, section):
    code = cli.main(["report", os.path.join(SCENARIOS, scenario), "--only", section])
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == REPORTS[scenario, section]


def test_lyapunov_csv_does_not_depend_on_numpy_simd_dispatch(tmp_path):
    # numpy's AVX-512 log is one ulp off libm's on some inputs; the variable
    # turns that dispatch off (and is accepted on CPUs without the feature)
    digests = []
    for disable in (None, "X86_V4"):
        env = subprocess_env()
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disable:
            env["NPY_DISABLE_CPU_FEATURES"] = disable
        out = tmp_path / (disable or "default")
        proc = subprocess.run([sys.executable, "-m", "malaria_dde", "simulate",
                               os.path.join(SCENARIOS, "endemic.json"),
                               "--out", str(out), "--quiet"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256((out / "lyapunov.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
