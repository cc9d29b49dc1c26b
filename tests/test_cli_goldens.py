"""The CLI artifacts of the demo scenarios, pinned by sha256.

Each command runs in-process through `cli.main` from a fresh working
directory with a relative --out, so the paths printed into report.txt are
the same on every machine. The `report --only` sections write no files;
their exit code, stdout and stderr are pinned instead. The hashes were recorded
before the RK4 loop had the model written inline (the report sections
before the records validated themselves); any changed byte in a node, a
Lyapunov value, a report line or a sweep row shows here. A change that
moves the numbers on purpose updates the hash and says why.
"""

import hashlib
import os

import pytest

import malaria_dde.cli as cli

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "demos", "scenarios")

# (command, scenario file) -> {artifact: sha256}
GOLDENS = {
    ("simulate", "endemic.json"): {
        "report.txt": "106ffbb98d994473031aef9edee4f7ea5111f8fd66d1df2207ec4089532d155d",
        "trajectory.csv": "71d42b6611564d6a7c083c84a20fc6fe500d45746f462a9bc42bd9b18776f291",
        "lyapunov.csv": "88fee48187a966a9e794cb4eaeefb727cc75438c7a22b2d3543d1ad69614d5af",
    },
    ("simulate", "fadeout.json"): {
        "report.txt": "08feca58068b91fd98f88ad9aeef3e1f35159df8d15b1d3e6cb8addf9c3c771d",
        "trajectory.csv": "ea3cec83b91bc446ed6981c3705325ad090bd0074fbbc2107db2434bdbc6df78",
        "lyapunov.csv": "4bd10d9571e4abbceb00f2b07aee07822cb30d652c75aa394b9ddd0775db6bb0",
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
        (0, "f4ffd5651d77b78e6a61a65264a15683f6bf271c9cb33c4e19ec9ddbb3e73c22", EMPTY),
    ("endemic.json", "lyapunov"):
        (0, "97e8ee3351ea561e18c5a0c931563a684241074b2e4906a9b07f4d7ad88fd2b9", EMPTY),
    ("endemic.json", "persistence"):
        (0, "acec9756a804cd55392bc11075d1d0255f08bfc61f79dbefd2444d590b4e2bf3", EMPTY),
    ("fadeout.json", "stability"):
        (0, "2a17ba589966f2f6738df932a88d721e9bd0683d6d7c431e2b0e3aee61e46074", EMPTY),
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
