"""Scenario/sweep loading, orchestration artifacts, CLI behavior."""

import errno
import json
import os
import signal
import subprocess
import sys

import pytest

import malaria_dde.cli as cli
from malaria_dde import (
    HistorySegment,
    IntegrationSpec,
    InvalidSpecError,
    LyapunovTrace,
    NumericalError,
    SchemaError,
    SystemKind,
    integrate,
    load_scenario,
    load_sweep,
    run_scenario,
    run_sweep,
    trace_along,
    weak_persistence_check,
)
from conftest import subprocess_env

BASE = {
    "schema": 1,
    "params": {"beta_h": 2, "beta_v": 5, "mu_h": 0.5, "mu_v": 0.1,
               "c_vh": 0.2, "c_hv": 0.1, "tau": 1.0},
    "history": {"kind": "constant", "state": [4, 0.5, 30, 10]},
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def scenario_file(tmp_path, name="scn.json", **overrides):
    obj = {**BASE, **overrides}
    return write_json(tmp_path / name, obj)


def report_dict(lines):
    out = {}
    for ln in lines:
        key, _, value = ln.partition(" = ")
        out[key] = value
    return out


# ------------------------------------------------------------ loading

def test_load_scenario_defaults(tmp_path):
    scn = load_scenario(scenario_file(tmp_path))
    assert scn.params.beta_h == 2.0
    assert scn.integration == IntegrationSpec()
    assert scn.analyses.simulate and scn.analyses.stability
    assert not scn.analyses.lyapunov
    assert scn.analyses.persistence == ()


@pytest.mark.parametrize("mutate,field", [
    (lambda o: o.pop("schema"), "scenario.schema"),
    (lambda o: o.update(schema=7), "scenario.schema"),
    (lambda o: o.pop("params"), "scenario.params"),
    (lambda o: o["params"].pop("mu_v"), "scenario.params.mu_v"),
    (lambda o: o["params"].update(mu_v=-1), "scenario.params.mu_v"),
    (lambda o: o["params"].update(extra=1), "scenario.params.extra"),
    (lambda o: o.update(history={"kind": "spline"}), "scenario.history.kind"),
    (lambda o: o.update(history={"kind": "constant", "state": [1, 2, 3]}),
     "scenario.history.state"),
    (lambda o: o.update(integration={"t_end": -5}), "scenario.integration.t_end"),
    (lambda o: o.update(integration={"steps_per_delay": 0}),
     "scenario.integration.steps_per_delay"),
    *(pytest.param(lambda o, v=v: o.update(integration={"record_stride": v}),
                   "scenario.integration.record_stride", id=f"record_stride-{v}")
      for v in (0, 2, 1.0, True)),
    (lambda o: o.update(analyses={"persistence": [0.5, "x"]}),
     "scenario.analyses.persistence"),
    pytest.param(lambda o: o.update(analyses={"persistence": [0.5, 0.9, 0.5]}),
                 "scenario.analyses.persistence", id="persistence-theta-twice"),
    (lambda o: o.update(output={"formats": ["xml"]}), "scenario.output.formats"),
    pytest.param(lambda o: o.update(output={"formats": []}), "scenario.output.formats",
                 id="formats-empty"),
    pytest.param(lambda o: o.update(output={"formats": ["csv", "csv"]}),
                 "scenario.output.formats", id="formats-csv-twice"),
    (lambda o: o.update(typo=True), "scenario.typo"),
])
def test_load_scenario_schema_errors(tmp_path, mutate, field):
    obj = json.loads(json.dumps(BASE))
    mutate(obj)
    path = write_json(tmp_path / "bad.json", obj)
    with pytest.raises(SchemaError) as err:
        load_scenario(path)
    assert err.value.field == field


def test_record_stride_loads_only_as_1(tmp_path, capsys):
    # every mesh node is recorded, so the key means what leaving it out does
    plain = load_scenario(scenario_file(tmp_path, integration={"t_end": 5}))
    kept = load_scenario(scenario_file(tmp_path, "kept.json",
                                       integration={"t_end": 5, "record_stride": 1}))
    assert kept.integration == plain.integration
    for value in (0, 2, 1.0, True):
        path = scenario_file(tmp_path, "bad.json", integration={"record_stride": value})
        assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]) == 1
        assert "error: scenario.integration.record_stride: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_load_scenario_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scenario(str(p))
    with pytest.raises(SchemaError):
        load_scenario(str(tmp_path / "missing.json"))


def test_load_sweep_validation(tmp_path):
    good = {"schema": 1, "base": dict(BASE), "axis": "c_vh",
            "values": [0.1, 0.2], "columns": ["r0", "classification"]}
    sw = load_sweep(write_json(tmp_path / "s1.json", good))
    assert sw.axis == "c_vh"
    assert sw.columns == ("r0", "classification_e0", "classification_e_star")

    for mutate, field in [
        (lambda o: o.update(axis="gamma"), "sweep.axis"),
        (lambda o: o.update(values=[]), "sweep.values"),
        (lambda o: o.update(values=[0.1, -0.2]), "sweep.values[1]"),
        (lambda o: o.update(columns=["r0", "nope"]), "sweep.columns"),
        (lambda o: o.update(columns=["r0", "i_h_star", "r0"]), "sweep.columns"),
        # classification expands to classification_e0 and classification_e_star
        (lambda o: o.update(columns=["r0", "classification", "classification_e0"]),
         "sweep.columns"),
        (lambda o: o.pop("base"), "sweep.base"),
    ]:
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(SchemaError) as err:
            load_sweep(write_json(tmp_path / "bad.json", obj))
        assert err.value.field == field


def test_load_sweep_allows_zero_delay_values(tmp_path):
    obj = {"schema": 1, "base": dict(BASE), "axis": "tau", "values": [0, 1, 2]}
    sw = load_sweep(write_json(tmp_path / "s2.json", obj))
    assert sw.values == (0.0, 1.0, 2.0)
    assert sw.columns  # defaults applied


# ------------------------------------------------------------ running

def test_run_scenario_artifacts_and_report(tmp_path):
    path = scenario_file(
        tmp_path,
        integration={"t_end": 120},
        analyses={"simulate": True, "stability": True, "lyapunov": False,
                  "persistence": [0.5]})
    scn = load_scenario(path)
    lines = run_scenario(scn, out_dir=str(tmp_path / "out"))
    rep = report_dict(lines)
    assert float(rep["r0"]) == pytest.approx(1.2649110640673518, rel=1e-15)
    assert rep["e_star.exists"] == "true"
    assert float(rep["e_star.i_h"]) == pytest.approx(3.0 / 7.0, rel=1e-12)
    assert rep["stability.e0.classification"] == "Unstable"
    assert rep["stability.e_star.classification"] == "LAS"
    assert rep["persistence.theta_0.5.passes"] == "true"
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "report.txt").exists()
    text = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert text == lines
    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,S_h,I_h,S_v,I_v"


def test_run_scenario_report_only_sections(tmp_path):
    path = scenario_file(tmp_path, analyses={"simulate": True, "stability": True,
                                             "lyapunov": True, "persistence": [0.5]})
    scn = load_scenario(path)
    lines = run_scenario(scn, only="stability")
    rep = report_dict(lines)
    assert "stability.e0.classification" in rep
    assert not any(k.startswith(("lyapunov.", "persistence.", "trajectory."))
                   for k in rep)

    lines = run_scenario(scn, only="lyapunov")
    rep = report_dict(lines)
    assert rep["lyapunov.kind"] == "v_endemic"
    assert rep["lyapunov.descends"] == "true"
    assert not any(k.startswith("stability.") for k in rep)


def test_run_scenario_random_history_deterministic(tmp_path):
    path = scenario_file(tmp_path, history={"kind": "random"},
                         integration={"t_end": 30})
    scn = load_scenario(path)

    def content(lines):  # drop the artifact paths, they differ per out dir
        return [ln for ln in lines if ".file = " not in ln]

    a = run_scenario(scn, out_dir=str(tmp_path / "a"), seed=7)
    b = run_scenario(scn, out_dir=str(tmp_path / "b"), seed=7)
    c = run_scenario(scn, out_dir=str(tmp_path / "c"), seed=8)
    assert content(a) == content(b)
    assert content(a) != content(c)
    bytes_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert bytes_a == bytes_b


def test_run_sweep_monotone_and_constant_columns(tmp_path):
    obj = {"schema": 1, "base": dict(BASE), "axis": "c_vh",
           "values": [0.05, 0.1, 0.2], "columns": ["r0"]}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))
    out = run_sweep(sw, out_dir=str(tmp_path / "o1"))
    rows = [ln.split(",") for ln in open(out).read().splitlines()]
    assert rows[0] == ["c_vh", "r0", "error"]
    r0s = [float(r[1]) for r in rows[1:]]
    assert r0s == sorted(r0s) and r0s[0] < r0s[-1]

    obj = {"schema": 1, "base": dict(BASE), "axis": "tau",
           "values": [0, 0.5, 1, 2],
           "columns": ["r0", "classification", "i_h_star"]}
    sw = load_sweep(write_json(tmp_path / "sw2.json", obj))
    out = run_sweep(sw, out_dir=str(tmp_path / "o2"))
    rows = [ln.split(",") for ln in open(out).read().splitlines()[1:]]
    assert len({tuple(r[1:]) for r in rows}) == 1  # delay changes nothing
    assert rows[0][2] == "Unstable" and rows[0][3] == "LAS"


def test_run_sweep_row_order_follows_values(tmp_path):
    obj = {"schema": 1, "base": dict(BASE), "axis": "c_vh",
           "values": [0.2, 0.05, 0.1], "columns": ["r0"]}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))
    out = run_sweep(sw, out_dir=str(tmp_path / "o3"))
    first_col = [ln.split(",")[0] for ln in open(out).read().splitlines()[1:]]
    assert [float(v) for v in first_col] == [0.2, 0.05, 0.1]


def test_run_sweep_row_error_marker(tmp_path, monkeypatch):
    obj = {"schema": 1, "base": dict(BASE), "axis": "c_vh",
           "values": [0.05, 0.1], "columns": ["r0"]}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))

    import malaria_dde.scenario as scenario_mod
    real = scenario_mod._sweep_row

    def flaky(sweep, value, seed):
        if value == 0.05:
            raise NumericalError("synthetic row failure")
        return real(sweep, value, seed)

    monkeypatch.setattr(scenario_mod, "_sweep_row", flaky)
    out = run_sweep(sw, out_dir=str(tmp_path / "o4"))
    rows = open(out).read().splitlines()
    assert "synthetic row failure" in rows[1]
    assert rows[2].split(",")[-1] == ""  # second row unaffected


def test_sweep_tail_columns(tmp_path):
    obj = {"schema": 1,
           "base": {**BASE, "integration": {"t_end": 60}},
           "axis": "c_vh", "values": [0.2], "columns": ["tail"]}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))
    out = run_sweep(sw, out_dir=str(tmp_path / "o5"))
    header, row = open(out).read().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["tail_i_h_sup"]) > 0
    assert float(cells["tail_s_v_inf"]) <= float(cells["tail_s_v_sup"])


# ------------------------------------------------------------ CLI

def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "malaria_dde", *args],
                          env=subprocess_env(), capture_output=True, text=True)


def test_cli_simulate_roundtrip(tmp_path):
    path = scenario_file(tmp_path, integration={"t_end": 40})
    proc = run_cli("simulate", path, "--out", str(tmp_path / "out"), "--quiet")
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert (tmp_path / "out" / "trajectory.csv").exists()

    loud = run_cli("simulate", path, "--out", str(tmp_path / "out2"))
    assert loud.returncode == 0
    assert "r0 = " in loud.stdout


def test_cli_validation_exit_code(tmp_path):
    obj = json.loads(json.dumps(BASE))
    obj["params"]["mu_v"] = -1
    path = write_json(tmp_path / "bad.json", obj)
    proc = run_cli("simulate", path)
    assert proc.returncode == 1
    assert "mu_v" in proc.stderr


def test_cli_missing_file_exit_code(tmp_path):
    proc = run_cli("simulate", str(tmp_path / "nope.json"))
    assert proc.returncode == 1


def test_cli_report_only(tmp_path):
    path = scenario_file(tmp_path)
    proc = run_cli("report", path, "--only", "persistence")
    assert proc.returncode == 0
    assert "persistence.theta_0.5.passes = true" in proc.stdout
    assert "trajectory.file" not in proc.stdout


def test_cli_sweep(tmp_path):
    obj = {"schema": 1, "base": dict(BASE), "axis": "tau", "values": [0, 1]}
    path = write_json(tmp_path / "sw.json", obj)
    proc = run_cli("sweep", path, "--out", str(tmp_path / "o"))
    assert proc.returncode == 0
    assert (tmp_path / "o" / "sweep.csv").exists()


def test_only_the_cli_prints(tmp_path, capsys):
    path = scenario_file(tmp_path, integration={"t_end": 40})
    lines = run_scenario(load_scenario(path), out_dir=str(tmp_path / "out"))
    obj = {"schema": 1, "base": dict(BASE), "axis": "tau", "values": [0, 1],
           "columns": ["r0"]}
    run_sweep(load_sweep(write_json(tmp_path / "sw.json", obj)),
              out_dir=str(tmp_path / "o"))
    assert capsys.readouterr().out == ""
    assert cli.main(["simulate", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_cli_numerical_exit_code(monkeypatch, tmp_path):
    # the mapping itself, without needing a scenario that breaks numerically
    path = scenario_file(tmp_path)
    import malaria_dde.cli as cli_mod

    def boom(*a, **k):
        raise NumericalError("synthetic numerical failure")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    assert cli_mod.main(["simulate", path]) == 2
    monkeypatch.setattr(cli_mod, "run_scenario", lambda *a, **k: [])
    assert cli_mod.main(["simulate", path]) == 0


def test_cli_overflow_exits_with_numerical_code(tmp_path):
    obj = json.loads(json.dumps(BASE))
    obj["params"]["beta_h"] = 1e308
    obj["analyses"] = {"simulate": True, "stability": False}
    path = write_json(tmp_path / "blowup.json", obj)
    proc = run_cli("simulate", path, "--out", str(tmp_path / "o"), "--quiet")
    assert proc.returncode == 2
    assert "not finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_overflowing_r0_squared_is_a_numerical_error(tmp_path, capsys):
    # c_vh c_hv beta_h overflows, so R0^2 is inf and E* would be 0 and NaNs
    obj = json.loads(json.dumps(BASE))
    obj["params"]["c_vh"] = 1e308
    obj["analyses"] = {"simulate": False, "stability": False}
    path = write_json(tmp_path / "r0_inf.json", obj)
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err.startswith("error: R0^2") and "overflows" in err

    sweep = {"schema": 1, "base": dict(BASE), "axis": "c_vh",
             "values": [0.2, 1e308], "columns": ["r0", "e_star"]}
    rows = open(run_sweep(load_sweep(write_json(tmp_path / "sw.json", sweep)),
                          out_dir=str(tmp_path / "s"))).read().splitlines()
    assert rows[1].endswith(",") and "nan" not in rows[1]
    assert rows[2].startswith("1e+308,,,,,,") and "overflows" in rows[2]


def test_r0_squared_of_two_overflows_is_a_numerical_error(tmp_path, capsys):
    # c_vh c_hv beta_h and mu_h^2 mu_v both overflow, so R0^2 = inf / inf is
    # NaN; it once printed r0 = nan and wrote a sweep row of NaNs
    params = {"beta_h": 3.7149e86, "beta_v": 1.3575e-112, "mu_h": 3.4276e123,
              "mu_v": 6.3440e89, "c_vh": 1.1647e125, "c_hv": 5.7599e111, "tau": 1.0}
    path = scenario_file(tmp_path, params=params)
    assert cli.main(["report", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: R0^2") and "overflows to nan" in err

    sweep = {"schema": 1, "base": {**BASE, "params": params}, "axis": "tau",
             "values": [1.0], "columns": ["r0", "r0_squared", "e_star"]}
    rows = open(run_sweep(load_sweep(write_json(tmp_path / "sw.json", sweep)),
                          out_dir=str(tmp_path / "s"))).read().splitlines()
    assert rows[1].startswith("1,,,,,,,") and "overflows to nan" in rows[1]


# Runs the CLI on argv and prints its exit code and the numpy and scipy
# submodules then loaded, as JSON on the last stdout line.
_MODULES_AFTER_MAIN = (
    "import json, sys\n"
    "from malaria_dde.cli import main\n"
    "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m == 'scipy'\n"
    "                               or m.startswith(('numpy.', 'scipy.')))]))\n")


def _import_budget_argv(case, tmp_path):
    """(argv, exit code) of one import-budget case; no argv only imports."""
    if case == "import":
        return [], 0
    if case == "report-stability":
        return ["report", ENDEMIC_DEMO, "--only", "stability"], 0
    if case == "sweep-closed-form":
        obj = {"schema": 1, "base": dict(BASE), "axis": "c_vh",
               "values": [0.05, 0.2, 0.8],
               "columns": ["r0", "classification", "e_star"]}
        return ["sweep", write_json(tmp_path / "sw.json", obj),
                "--out", str(tmp_path / "o"), "--quiet"], 0
    if case == "sweep-tail":
        obj = {"schema": 1, "base": {**BASE, "integration": {"t_end": 20}},
               "axis": "c_vh", "values": [0.05, 0.2],
               "columns": ["tail", "classification"]}
        return ["sweep", write_json(tmp_path / "sw.json", obj),
                "--out", str(tmp_path / "o"), "--quiet"], 0
    if case == "schema-error":
        return ["simulate", scenario_file(tmp_path, typo=True)], 1
    assert case in ("simulate", "simulate-no-lyapunov")
    with open(ENDEMIC_DEMO) as fh:
        obj = json.load(fh)
    obj["analyses"]["lyapunov"] = case == "simulate"
    return ["simulate", write_json(tmp_path / "scn.json", obj),
            "--out", str(tmp_path / "o"), "--quiet"], 0


@pytest.mark.parametrize("case", ["import", "report-stability", "sweep-closed-form",
                                  "schema-error", "sweep-tail", "simulate-no-lyapunov",
                                  "simulate"])
def test_cli_loads_numpy_only_for_lyapunov(tmp_path, case):
    # numpy loads on first use: the closed-form paths, input errors, and the
    # march, tail, persistence and CSV of a constant history never load it;
    # the Lyapunov trace does. scipy is a test dependency only and never
    # loads (structural checks, not timing bounds)
    argv, code = _import_budget_argv(case, tmp_path)
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER_MAIN, *argv],
                          env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert got == code, proc.stderr
    assert not [m for m in loaded if m.partition(".")[0] == "scipy"]
    numpy_subs = [m for m in loaded if m.startswith("numpy.")]
    assert bool(numpy_subs) == (case == "simulate"), numpy_subs[:5]


def test_missing_numpy_fails_the_import_as_a_plain_import_does():
    # the lazy handle falls back to the plain import when numpy cannot be
    # found, so the error and its message are the usual ones
    code = ("import sys\n"
            "sys.modules['numpy'] = None  # as if numpy were not there\n"
            "try:\n"
            "    import {}\n"
            "except ImportError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    out = [subprocess.run([sys.executable, "-c", code.format(mod)],
                          env=subprocess_env(), capture_output=True, text=True).stdout
           for mod in ("numpy", "malaria_dde")]
    assert out[0].startswith("ModuleNotFoundError")
    assert out[1] == out[0]


def test_cli_seed_changes_random_history(tmp_path):
    path = scenario_file(tmp_path, history={"kind": "random"},
                         integration={"t_end": 5})
    a = run_cli("simulate", path, "--out", str(tmp_path / "sa"), "--seed", "1")
    b = run_cli("simulate", path, "--out", str(tmp_path / "sb"), "--seed", "2")
    assert a.returncode == 0 and b.returncode == 0
    ta = (tmp_path / "sa" / "trajectory.csv").read_text()
    tb = (tmp_path / "sb" / "trajectory.csv").read_text()
    assert ta != tb


# ------------------------------------------------ one run per spec, errors

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "..", "demos", "scenarios")
ENDEMIC_DEMO = os.path.join(SCENARIO_DIR, "endemic.json")
FADEOUT_DEMO = os.path.join(SCENARIO_DIR, "fadeout.json")


@pytest.fixture
def integrate_spy(monkeypatch):
    import malaria_dde.scenario as scenario_mod
    calls = []
    real = scenario_mod.integrate

    def spy(p, phi, spec):
        calls.append(spec)
        return real(p, phi, spec)

    monkeypatch.setattr(scenario_mod, "integrate", spy)
    return calls


def test_load_scenario_builds_the_integration_spec():
    scn = load_scenario(ENDEMIC_DEMO)
    assert scn.integration == IntegrationSpec(SystemKind.FULL, 200.0, 20)


def test_sweep_rows_integrate_to_their_own_default_horizon(tmp_path, monkeypatch):
    import malaria_dde.scenario as scenario_mod
    ends = []
    real = scenario_mod.integrate

    def spy(p, phi, spec):
        traj = real(p, phi, spec)
        ends.append(traj.t_end)
        return traj

    monkeypatch.setattr(scenario_mod, "integrate", spy)
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 1)  # the spy is in-process
    values = [0.2, 0.08, 0.05]
    obj = {"schema": 1,
           "base": {**BASE, "integration": {"steps_per_delay": 2}},
           "axis": "mu_h", "values": values, "columns": ["tail"]}
    run_sweep(load_sweep(write_json(tmp_path / "sw.json", obj)),
              out_dir=str(tmp_path / "o"))
    mu_v = BASE["params"]["mu_v"]
    assert ends == [40.0 / min(mu_h, mu_v) for mu_h in values] == [400.0, 500.0, 800.0]


def test_run_scenario_integrates_each_system_once(tmp_path, integrate_spy):
    # simulate and both persistence fractions share the full run; Lyapunov
    # reads the limiting one
    scn = load_scenario(ENDEMIC_DEMO)
    assert scn.analyses.lyapunov and len(scn.analyses.persistence) == 2
    run_scenario(scn, out_dir=str(tmp_path / "out"))
    assert sorted(s.system.value for s in integrate_spy) == ["full", "limiting"]

    integrate_spy.clear()
    run_scenario(scn, only="persistence")
    assert [s.system for s in integrate_spy] == [SystemKind.FULL]


def test_zero_delay_step_reaches_every_analysis(tmp_path, integrate_spy):
    params = {**BASE["params"], "tau": 0.0}
    path = scenario_file(tmp_path, params=params,
                         integration={"t_end": 40, "step": 0.01},
                         analyses={"lyapunov": True, "persistence": [0.5]})
    scn = load_scenario(path)
    rep = report_dict(run_scenario(scn, out_dir=str(tmp_path / "o")))
    assert {s.step for s in integrate_spy} == {0.01}

    p = scn.params
    phi = HistorySegment.constant(BASE["history"]["state"], 0.0)
    lim = integrate(p, phi, IntegrationSpec(system=SystemKind.LIMITING,
                                            t_end=40.0, step=0.01))
    trace = trace_along(p, lim)
    assert rep["lyapunov.v_last"] == f"{float(trace.values[-1]):.17g}"
    full = integrate(p, phi, IntegrationSpec(t_end=40.0, step=0.01))
    check = weak_persistence_check(p, full, 0.5)
    assert rep["persistence.theta_0.5.i_h_tail_sup"] == f"{check.i_h_tail_sup:.17g}"


def test_cli_lyapunov_horizon_shorter_than_delay_exits_1(tmp_path, capsys):
    params = {**BASE["params"], "tau": 2.0}
    path = scenario_file(tmp_path, params=params, integration={"t_end": 1.0},
                         analyses={"lyapunov": True})
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "horizon too short" in err and "Traceback" not in err


TABLE_HISTORY = {"kind": "table", "times": [-1.0, -0.5, 0.0],
                 "states": [[4, 0.5, 30, 10], [4, 0.6, 30, 10], [4, 0.7, 30, 10]]}


def test_table_history_span_must_match_tau(tmp_path, capsys):
    params = {**BASE["params"], "tau": 2.0}
    path = scenario_file(tmp_path, params=params, history=TABLE_HISTORY)
    with pytest.raises(SchemaError) as err:
        load_scenario(path)
    assert err.value.field == "scenario.history.times"
    assert cli.main(["simulate", path, "--quiet"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_table_history_within_the_span_tolerance_runs(tmp_path, capsys):
    # the loader accepts a span 1e-10 short of tau; the run once exited 1
    # with "t = -1 outside the computed range [-1, 0]"
    params = {**BASE["params"], "tau": 1.0000000001}
    history = {"kind": "table", "times": [-1.0, 0.0], "states": [[4, 0.5, 30, 10]] * 2}
    path = scenario_file(tmp_path, params=params, history=history,
                         integration={"t_end": 10})
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_tau_sweep_over_table_history_marks_rows(tmp_path):
    obj = {"schema": 1,
           "base": {**BASE, "history": TABLE_HISTORY, "integration": {"t_end": 10}},
           "axis": "tau", "values": [1.0, 2.0], "columns": ["tail"]}
    path = write_json(tmp_path / "sw.json", obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert rows[1].endswith(",")  # tau = 1 matches the table: no error
    assert "history spans" in rows[2]


def test_cli_mesh_past_the_step_ceiling_exits_1(tmp_path, capsys, no_runs_at_tiny_delays):
    # tau = 0 takes the default step 0.1 / max_rate = 1e-201
    path = scenario_file(tmp_path, params={**BASE["params"], "tau": 0, "beta_h": 1e200},
                         analyses={"simulate": True, "stability": False})
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "steps of h" in err and "Traceback" not in err


def test_sweep_marks_a_row_past_the_step_ceiling(tmp_path, no_runs_at_tiny_delays):
    obj = {"schema": 1,
           "base": {**BASE, "integration": {"t_end": 10}},
           "axis": "tau", "values": [1.0, 1e-300], "columns": ["tail"]}
    path = write_json(tmp_path / "sw.json", obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert rows[1].endswith(",")  # tau = 1: no error
    assert "steps of h" in rows[2]


@pytest.mark.parametrize("history,message", [
    (None, "requires R0 > 1"),  # fadeout.json: R0 = 0.447
    ({"kind": "constant", "state": [4, 0, 30, 10]}, "needs I_h(0) > 0"),
])
def test_persistence_preconditions_fail_before_integrating(
        tmp_path, capsys, integrate_spy, history, message):
    path = (FADEOUT_DEMO if history is None
            else scenario_file(tmp_path, history=history))
    assert cli.main(["report", path, "--only", "persistence"]) == 1
    assert integrate_spy == []
    assert message in capsys.readouterr().err


# ------------------------------------------------ output writes and seeds

LYAPUNOV_ON = {"simulate": True, "stability": False, "lyapunov": True}

# exit code -> a scenario whose simulate stage succeeds and whose Lyapunov
# stage then fails
LATE_FAILURES = {
    # the Lyapunov horizon is shorter than the delay
    1: {"params": {**BASE["params"], "tau": 2.0}, "integration": {"t_end": 1.0}},
    # the limiting run breaks down where the full run does not: it divides
    # I_v = 1000 by S_v0 = 50 instead of by N_v
    2: {"params": {**BASE["params"], "c_vh": 5.0},
        "history": {"kind": "constant", "state": [4, 0.5, 0, 1000]},
        "integration": {"t_end": 20}},
}


def _tree(top):
    return {f: (top / f).read_bytes() for f in sorted(os.listdir(top))}


@pytest.mark.parametrize("code", sorted(LATE_FAILURES))
def test_failing_simulate_writes_nothing(tmp_path, capsys, code):
    path = scenario_file(tmp_path, **LATE_FAILURES[code], analyses=LYAPUNOV_ON)
    out = tmp_path / "fresh"
    assert cli.main(["simulate", path, "--out", str(out), "--quiet"]) == code
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("code", sorted(LATE_FAILURES))
def test_failing_simulate_keeps_an_earlier_run(tmp_path, code):
    out = tmp_path / "o"
    good = scenario_file(tmp_path, "good.json", integration={"t_end": 10},
                         analyses=LYAPUNOV_ON)
    assert cli.main(["simulate", good, "--out", str(out), "--quiet"]) == 0
    before = _tree(out)
    assert sorted(before) == ["lyapunov.csv", "report.txt", "trajectory.csv"]
    bad = scenario_file(tmp_path, "bad.json", **LATE_FAILURES[code],
                        analyses=LYAPUNOV_ON)
    assert cli.main(["simulate", bad, "--out", str(out), "--quiet"]) == code
    assert _tree(out) == before


def _sweep_file(tmp_path, columns=("r0",)):
    obj = {"schema": 1, "base": dict(BASE), "axis": "tau", "values": [0, 1],
           "columns": list(columns)}
    return write_json(tmp_path / "sw.json", obj)


@pytest.mark.parametrize("command,out", [("simulate", "taken"), ("sweep", "taken/x"),
                                         ("simulate", "full"), ("sweep", "full")])
def test_unwritable_output_exits_1(tmp_path, capsys, command, out):
    # a regular file where the output directory, or one of its parents, goes;
    # or ("full") the last file written, staged as <name>.part, is /dev/full,
    # so the write itself fails
    (tmp_path / "taken").write_text("kept\n")
    path = (_sweep_file(tmp_path) if command == "sweep"
            else scenario_file(tmp_path, integration={"t_end": 10}))
    if out == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        (tmp_path / out).mkdir()
        last = "sweep.csv" if command == "sweep" else "report.txt"
        os.symlink("/dev/full", tmp_path / out / f"{last}.part")
    assert cli.main([command, path, "--out", str(tmp_path / out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output.dir: cannot write ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_failing_write_keeps_an_earlier_run(tmp_path, capsys, monkeypatch):
    # the disk fills part way through lyapunov.csv, after trajectory.csv of
    # the second run is written: no file of the first run may change
    out = tmp_path / "o"
    first = scenario_file(tmp_path, "first.json", integration={"t_end": 10},
                          analyses=LYAPUNOV_ON)
    assert cli.main(["simulate", first, "--out", str(out), "--quiet"]) == 0
    before = _tree(out)
    assert sorted(before) == ["lyapunov.csv", "report.txt", "trajectory.csv"]

    def disk_full(self, target):
        with open(target, "w") as fh:
            fh.write("t,V\n0,")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), target)

    monkeypatch.setattr(LyapunovTrace, "to_csv", disk_full)
    second = scenario_file(tmp_path, "second.json", integration={"t_end": 12},
                           analyses=LYAPUNOV_ON)
    assert cli.main(["simulate", second, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: output.dir: cannot write ")
    assert _tree(out) == before


@pytest.fixture
def fails_rather_than_hangs():
    """A sweep left waiting on a worker's pipe fails after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the sweep did not finish within 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("failing_row", [0, 1], ids=["parent-row", "worker-row"])
def test_failing_sweep_keeps_an_earlier_run(tmp_path, monkeypatch, failing_row,
                                            fails_rather_than_hangs):
    # a failure outside the row-error path (not a ModelError or an
    # ArithmeticError) leaves the sweep before it writes anything, whether
    # this process ran the row or a forked worker did; no worker is left
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 2)
    sw = load_sweep(_sweep_file(tmp_path, ["r0", "tail"]))
    out = tmp_path / "o"
    run_sweep(sw, out_dir=str(out))
    assert_no_child_processes()
    before = _tree(out)
    assert sorted(before) == ["sweep.csv"]

    real = scenario_mod._sweep_row

    def row_fails(sweep, value, seed):
        if value == sweep.values[failing_row]:
            raise RuntimeError("synthetic failure outside the row-error path")
        return real(sweep, value, seed)

    monkeypatch.setattr(scenario_mod, "_sweep_row", row_fails)
    with pytest.raises(RuntimeError, match="synthetic"):
        run_sweep(sw, out_dir=str(out))
    assert_no_child_processes()
    assert _tree(out) == before


def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forked_sweep(tmp_path, workers, monkeypatch, name):
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: workers)
    obj = {"schema": 1,
           "base": {**BASE, "history": {"kind": "random"}, "integration": {"t_end": 10}},
           "axis": "tau", "values": [0.5, 1e-300, 1.0, 2.0, 1.5],
           "columns": ["r0", "tail"]}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))
    run_sweep(sw, out_dir=str(tmp_path / name), seed=4)
    data = (tmp_path / name / "sweep.csv").read_bytes()
    assert_no_child_processes()
    return data


def test_forked_sweep_is_the_serial_bytes(tmp_path, monkeypatch, no_runs_at_tiny_delays,
                                          fails_rather_than_hangs):
    # 5 rows split unevenly across 2 and 3 processes; the second row is past
    # the step ceiling, so its error cell comes back from a worker
    serial = _forked_sweep(tmp_path, 1, monkeypatch, "o1")
    assert b"steps of h" in serial.splitlines()[2]
    for n in (2, 3):
        assert _forked_sweep(tmp_path, n, monkeypatch, f"o{n}") == serial


def test_rows_of_a_worker_that_dies_run_in_process(tmp_path, monkeypatch,
                                                   fails_rather_than_hangs):
    import malaria_dde.scenario as scenario_mod
    serial = _forked_sweep(tmp_path, 1, monkeypatch, "o1")
    real, parent = scenario_mod._sweep_row, os.getpid()

    def dies_in_a_worker(sweep, value, seed):
        if value == sweep.values[1] and os.getpid() != parent:
            os._exit(3)
        return real(sweep, value, seed)

    monkeypatch.setattr(scenario_mod, "_sweep_row", dies_in_a_worker)
    assert _forked_sweep(tmp_path, 3, monkeypatch, "o3") == serial


@pytest.mark.parametrize("columns,values", [
    (["r0", "classification", "e_star"], [0.5, 1.0, 2.0]),  # no row integrates
    (["tail"], [1.0]),  # one row
], ids=["no-tail", "one-row"])
def test_sweeps_that_cannot_gain_do_not_fork(tmp_path, monkeypatch, columns, values):
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 2)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    obj = {"schema": 1, "base": {**BASE, "integration": {"t_end": 10}},
           "axis": "tau", "values": values, "columns": columns}
    run_sweep(load_sweep(write_json(tmp_path / "sw.json", obj)), out_dir=str(tmp_path / "o"))
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + len(values) and all(r.endswith(",") for r in rows[1:])


def test_a_fork_that_fails_runs_the_rows_in_process(tmp_path, monkeypatch,
                                                    fails_rather_than_hangs):
    serial = _forked_sweep(tmp_path, 1, monkeypatch, "o1")

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _forked_sweep(tmp_path, 3, monkeypatch, "o3") == serial


@pytest.mark.parametrize("argv", [["simulate", "x.json", "--seed", "abc"], [],
                                  ["simulate", "x.json", "--bogus"]],
                         ids=["bad-seed", "no-command", "unknown-option"])
def test_rejected_command_line_exits_1(capsys, argv):
    # 2 is the numerical-breakdown code; argparse's own default is 2
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: malaria-dde") and "Traceback" not in err
    assert err.splitlines()[-1].startswith("malaria-dde")
    assert ": error: " in err.splitlines()[-1]


def test_help_exits_0_with_usage_on_stdout(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: malaria-dde sweep")


def _main_result(capsys, argv):
    """(exit code, stdout, stderr) of one in-process cli.main call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_shared_parser_answers_every_call_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    # main parses with the one parser built at import; no state carries from
    # a rejected line or a --help into the calls after it
    scn = scenario_file(tmp_path, integration={"t_end": 20})
    sweep = _sweep_file(tmp_path)
    calls = [(["simulate", scn, "--seed", "abc"], 1), (["sweep", "--help"], 0),
             (["simulate", scn, "--out", str(tmp_path / "o")], 0),
             (["sweep", sweep, "--out", str(tmp_path / "s")], 0),
             (["report", scn, "--only", "persistence"], 0)]
    shared = [_main_result(capsys, argv) for argv, _ in calls]
    fresh = []
    for argv, _ in calls:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(_main_result(capsys, argv))
    assert shared == fresh
    assert [r[0] for r in shared] == [code for _, code in calls]


@pytest.mark.parametrize("argv", [["simulate", "a.json", "--out", "d", "--quiet"],
                                  ["sweep", "s.json", "--seed", "3"],
                                  ["report", "a.json", "--only", "lyapunov"]],
                         ids=["simulate", "sweep", "report"])
def test_shared_parser_parses_as_a_fresh_one(argv):
    assert cli._PARSER.parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("command", ["simulate", "report", "sweep"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    # the sweep has no tail column, so it never draws from the generator:
    # it exited 0 before the seed was checked
    path = (_sweep_file(tmp_path) if command == "sweep"
            else scenario_file(tmp_path, history={"kind": "random"},
                               integration={"t_end": 10}))
    out = tmp_path / "o"
    argv = [command, path, "--seed", "-1"]
    if command != "report":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None])
def test_run_entries_reject_seeds_that_are_not_counts(tmp_path, seed):
    scn = load_scenario(scenario_file(tmp_path, integration={"t_end": 10}))
    with pytest.raises(InvalidSpecError, match="seed"):
        run_scenario(scn, out_dir=str(tmp_path / "a"), seed=seed)
    with pytest.raises(InvalidSpecError, match="seed"):
        run_sweep(load_sweep(_sweep_file(tmp_path, ["tail"])),
                  out_dir=str(tmp_path / "b"), seed=seed)
    assert sorted(os.listdir(tmp_path)) == ["scn.json", "sw.json"]


def test_run_entries_accept_numpy_integer_seeds(tmp_path):
    # numpy registers its integer types with numbers.Integral, which the
    # seed rule tests, so a numpy integer seeds as the equal int does
    import numpy as np
    scn = load_scenario(scenario_file(tmp_path, history={"kind": "random"},
                                      integration={"t_end": 5}))
    assert (run_scenario(scn, out_dir=str(tmp_path / "a"), seed=np.int64(2))
            == run_scenario(scn, out_dir=str(tmp_path / "a"), seed=2))
