"""Scenario/sweep loading, orchestration artifacts, CLI behavior."""

import errno
import json
import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import malaria_dde.cli as cli
import malaria_dde.stability as stability
from malaria_dde import (
    EquilibriumKind,
    HistorySegment,
    IntegrationSpec,
    InvalidSpecError,
    ModelParams,
    NumericalError,
    RateUnderflowError,
    SchemaError,
    SystemKind,
    classify,
    endemic_equilibrium,
    integrate,
    load_scenario,
    load_sweep,
    r0_squared,
    run_scenario,
    run_sweep,
    tail_stats,
    trace_along,
    weak_persistence_check,
)
from malaria_dde.scenario import (
    DEFAULT_SWEEP_COLUMNS,
    SWEEP_COLUMNS,
    HistorySpec,
    Scenario,
    SweepSpec,
    _sweep_row,
    _uniform,
)

from conftest import subprocess_env
from test_benchmark_inputs import _load_gen

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


def test_tail_only_sweep_rows_read_no_r0_where_it_underflows(tmp_path):
    # R0^2's divisor mu_h^2 mu_v underflows to 0 at these rates, but no
    # tail_* or error_class cell reads R0^2 or E*, so each row prints the
    # tail that integrate returns and no error; both rows, one per process
    base = {**BASE, "params": {"beta_h": 1, "beta_v": 1, "mu_h": 1e-110, "mu_v": 1e-110,
                               "c_vh": 0.2, "c_hv": 0.1, "tau": 1},
            "history": {"kind": "constant", "state": [1, 0.5, 1, 0.5]},
            "integration": {"t_end": 10}}
    obj = {"schema": 1, "base": base, "axis": "c_vh", "values": [0.2, 0.4],
           "columns": ["tail", "error_class"]}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))
    with pytest.raises(RateUnderflowError):
        r0_squared(sw.base.params)
    header, *rows = open(run_sweep(sw, out_dir=str(tmp_path / "o"))).read().splitlines()
    assert len(rows) == 2
    for value, row in zip(sw.values, rows):
        p = sw.base.params._replace(c_vh=value)
        tail = tail_stats(integrate(p, sw.base.history.build(p, 0), sw.base.integration))
        cells = [f"{getattr(b, c):.17g}" for c in ("s_h", "i_h", "s_v", "i_v")
                 for b in (tail.inf, tail.sup)]
        assert row.split(",") == [f"{value:.17g}", *cells, "", ""]
    assert rows[0].split(",")[1] == "5.2674989708728797"


def test_sweep_verdicts_match_classify_over_moderate_rates():
    # rows read their verdicts from g0 alone; classify also polishes the root
    rng = np.random.default_rng(36)
    history = HistorySpec("constant", state=(1.0, 0.1, 1.0, 0.1))
    kinds = {"classification_e0": EquilibriumKind.DISEASE_FREE,
             "classification_e_star": EquilibriumKind.ENDEMIC}
    seen = set()
    for _ in range(2000):
        p = ModelParams(*rng.uniform(0.05, 5.0, 6), tau=rng.uniform(0.0, 3.0))
        r0 = rng.uniform(0.3, 3.0)  # set by c_hv
        p = p._replace(c_hv=r0 * r0 * p.mu_h * p.mu_h * p.mu_v / (p.c_vh * p.beta_h))
        sweep = SweepSpec(Scenario(params=p, history=history), "tau", (p.tau,), tuple(kinds))
        row = dict(zip(sweep.columns, _sweep_row(sweep, p.tau, 0)))  # cells in column order
        for col, which in kinds.items():
            absent = which is EquilibriumKind.ENDEMIC and endemic_equilibrium(p) is None
            assert row[col] == ("absent" if absent
                                else classify(p, which).classification.value), p
            seen.add(row[col])
    assert seen == {"LAS", "Unstable", "absent"}


def test_sweep_verdicts_run_no_root_polish(tmp_path, monkeypatch):
    # the saving as a count: a stability-only sweep builds no E* coefficients
    # and polishes no root, while report --only stability still polishes both
    calls = {"_polish": 0, "from_params": 0}
    polish, endemic = stability._polish, stability.EndemicCharCoeffs.from_params.__func__

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stability, "_polish", counted("_polish", polish))
    monkeypatch.setattr(stability.EndemicCharCoeffs, "from_params",
                        classmethod(counted("from_params", endemic)))
    obj = {"schema": 1, "base": dict(BASE), "axis": "c_vh",
           "values": [0.05, 0.1, 0.2, 0.4], "columns": ["r0", "classification", "e_star"]}
    rows = open(run_sweep(load_sweep(write_json(tmp_path / "sw.json", obj)),
                          out_dir=str(tmp_path / "o"))).read().splitlines()
    assert [r.split(",")[3] for r in rows[1:]] == ["absent", "absent", "LAS", "LAS"]
    assert calls == {"_polish": 0, "from_params": 0}
    run_scenario(load_scenario(ENDEMIC_DEMO), only="stability")
    assert calls == {"_polish": 2, "from_params": 1}


def test_sweep_rows_compute_r0_squared_and_check_e_star_once(tmp_path, monkeypatch):
    # the saving as a count: a row computes R0^2 once (endemic_equilibrium
    # takes the row's), checks E*'s finiteness at most once however many of
    # its cells print, and a row of tail and error_class cells does neither
    import malaria_dde.equilibria as equilibria
    import malaria_dde.scenario as scenario_mod
    calls = {"r0_squared": 0, "_finite_star": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (equilibria, scenario_mod):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    def sweep(columns, **base):
        obj = {"schema": 1, "base": {**BASE, **base}, "axis": "c_vh",
               "values": [0.05, 0.1, 0.2, 0.4], "columns": columns}  # R0^2 0.4 to 3.2
        return load_sweep(write_json(tmp_path / "sw.json", obj))

    every = sweep(["r0", "r0_squared", "classification", "e_star", "error_class"])
    rows = []
    for value in every.values:
        calls.update(r0_squared=0, _finite_star=0)
        rows.append(_sweep_row(every, value, 0))
        assert calls["r0_squared"] == 1 and calls["_finite_star"] <= 1
    assert [row[3] for row in rows] == ["absent", "absent", "LAS", "LAS"]
    assert [row[4] == "" for row in rows] == [True, True, False, False]  # s_h_star
    tails = sweep(["tail", "error_class"], integration={"t_end": 10})
    calls.update(r0_squared=0, _finite_star=0)
    for value in tails.values:
        assert len(_sweep_row(tails, value, 0)) == 9
    assert calls == {"r0_squared": 0, "_finite_star": 0}


@pytest.mark.parametrize("only,calls", [("stability", 4), ("lyapunov", 3)])
def test_report_sections_compute_r0_squared_once_per_reader(only, calls, monkeypatch):
    # the saving as a count: the equilibria lines compute R0^2 once and take
    # E* from it, and each Lyapunov divisor check runs the threshold test
    # once; the rest are the two G(0)s and E*'s weights (stability) and the
    # check before the limiting run and trace_along's own (lyapunov)
    import malaria_dde.equilibria as equilibria
    import malaria_dde.scenario as scenario_mod
    original, seen = equilibria.r0_squared, []

    def counted(p):
        seen.append(p)
        return original(p)

    for module in (equilibria, scenario_mod, stability):  # each binds r0_squared
        monkeypatch.setattr(module, "r0_squared", counted)
    run_scenario(load_scenario(ENDEMIC_DEMO), only=only)
    assert len(seen) == calls


@pytest.mark.parametrize("columns,header,row", [
    # E*'s cells read its components: an error row, where it once printed nan
    (["r0", "classification", "e_star", "error_class"],
     "s_h_star,i_h_star,s_v_star,i_v_star,error_class,error",
     ',,,,,,,NumericalError,"error: E* component s_h = nan is not finite"'),
    # the verdicts read G(0) and E*'s existence alone
    (["r0", "classification", "error_class"],
     "classification_e_star,error_class,error", "527175.38375614118,Unstable,LAS,,"),
], ids=["e_star", "verdicts"])
def test_a_non_finite_endemic_state_fails_only_the_rows_that_print_it(tmp_path, columns,
                                                                       header, row):
    # at these valid rates E*'s closed form gives S_h = inf / inf
    base = {**BASE, "params": {"beta_h": 1.3310652524698147e+69,
                               "beta_v": 7.521925569700577e-152,
                               "mu_h": 3.698771195959083e+31,
                               "mu_v": 2.704525289284165e+103,
                               "c_vh": 4.652308886266356e-186,
                               "c_hv": 1.6605361641466093e+294, "tau": 1}}
    obj = {"schema": 1, "base": base, "axis": "c_vh", "values": [4.652308886266356e-186],
           "columns": columns}
    path = write_json(tmp_path / "sw.json", obj)
    assert cli.main(["sweep", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert lines[0].endswith(header)
    assert lines[1] == "4.6523088862663561e-186," + row


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


# Runs the CLI once per argv of a JSON [argvs, workers] argument (workers,
# if set, pins scenario._workers) and prints the exit codes and the numpy,
# scipy and dataclasses modules then loaded, as JSON on the last stdout line.
_MODULES_AFTER_MAIN = (
    "import json, sys\n"
    "import malaria_dde.scenario\n"
    "from malaria_dde.cli import main\n"
    "runs, workers = json.loads(sys.argv[1])\n"
    "if workers:\n"
    "    malaria_dde.scenario._workers = lambda: workers\n"
    "codes = [main(argv) for argv in runs]\n"
    "print(json.dumps([codes, sorted(m for m in sys.modules if m in ('scipy', 'dataclasses')\n"
    "                                or m.startswith(('numpy.', 'scipy.')))]))\n")

_RANDOM_TAIL_SWEEP = {"schema": 1, "base": {**BASE, "history": {"kind": "random"},
                                            "integration": {"t_end": 20}},
                      "axis": "c_vh", "values": [0.05, 0.2, 0.8],
                      "columns": ["tail", "classification"]}


def _import_budget_runs(case, tmp_path):
    """(argvs, exit codes, workers pin or None) of one import-budget case;
    no argv only imports."""
    out = ["--out", str(tmp_path / "o"), "--quiet"]
    if case == "import":
        return [], [], None
    if case in ("report-stability", "report-lyapunov"):
        return [["report", ENDEMIC_DEMO, "--only", case.removeprefix("report-")]], [0], None
    if case == "sweep-closed-form":
        obj = {"schema": 1, "base": dict(BASE), "axis": "c_vh",
               "values": [0.05, 0.2, 0.8],
               "columns": ["r0", "classification", "e_star"]}
        return [["sweep", write_json(tmp_path / "sw.json", obj), *out]], [0], None
    if case == "sweep-tail":
        obj = {"schema": 1, "base": {**BASE, "integration": {"t_end": 20}},
               "axis": "c_vh", "values": [0.05, 0.2],
               "columns": ["tail", "classification"]}
        return [["sweep", write_json(tmp_path / "sw.json", obj), *out]], [0], None
    if case.startswith("sweep-tail-random-"):
        path = write_json(tmp_path / "sw.json", _RANDOM_TAIL_SWEEP)
        # one worker: the rows run here, so their imports show; two: they fork
        return [["sweep", path, *out]], [0], 1 if case.endswith("serial") else 2
    if case == "schema-error":
        return [["simulate", scenario_file(tmp_path, typo=True)]], [1], None
    if case == "demo-scenarios":
        runs = [["sweep" if f.startswith("sweep") else "simulate",
                 os.path.join(SCENARIO_DIR, f), "--out", str(tmp_path / f), "--quiet"]
                for f in sorted(os.listdir(SCENARIO_DIR))]
        return runs, [0] * len(runs), None
    if case.startswith("perfbench-"):
        workload = case.removeprefix("perfbench-")
        paths = _load_gen().write_pool(workload, 0, str(tmp_path / workload))
        command = "simulate" if workload == "simulate" else "sweep"
        return [[command, path, *out] for path in paths], [0] * len(paths), None
    assert case in ("simulate", "simulate-no-lyapunov", "simulate-random")
    with open(ENDEMIC_DEMO) as fh:
        obj = json.load(fh)
    obj["analyses"]["lyapunov"] = case != "simulate-no-lyapunov"
    if case == "simulate-random":
        obj["history"] = {"kind": "random"}
    return [["simulate", write_json(tmp_path / "scn.json", obj), *out]], [0], None


@pytest.mark.parametrize("case", [
    "import", "report-stability", "sweep-closed-form", "schema-error", "sweep-tail",
    "simulate-no-lyapunov", "simulate", "report-lyapunov", "demo-scenarios",
    "simulate-random", "sweep-tail-random-serial", "sweep-tail-random-forked",
    "perfbench-simulate", "perfbench-sweep_tail", "perfbench-stability_scan"])
def test_cli_loads_no_numpy(tmp_path, case):
    # the package imports no numpy, and no CLI command loads it: the closed-form
    # paths, input errors, the march, tail, persistence, Lyapunov trace and
    # CSVs, and random histories, in this process or in sweep workers.
    # scipy is a test dependency only and never loads. Nor does dataclasses,
    # with the inspect, ast and dis it imports: the value types are named
    # tuples, cheaper to define at every start (structural checks, not
    # timing bounds)
    runs, codes, workers = _import_budget_runs(case, tmp_path)
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER_MAIN,
                           json.dumps([runs, workers])],
                          env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert got == codes, proc.stderr
    assert not [m for m in loaded if m.partition(".")[0] == "scipy"]
    assert not [m for m in loaded if m.startswith("numpy.")], loaded[:5]
    assert "dataclasses" not in loaded


# Runs the CLI once per argv of a JSON [block, argvs] argument, with two
# CPUs for forks, and prints the exit codes; block imports the package as if
# numpy were not installed.
_MAIN_WITHOUT_NUMPY = (
    "import json, sys\n"
    "block, runs = json.loads(sys.argv[1])\n"
    "if block:\n"
    "    sys.modules['numpy'] = None  # as if numpy were not there\n"
    "import malaria_dde.scenario\n"
    "from malaria_dde.cli import main\n"
    "malaria_dde.scenario._workers = lambda: 2\n"
    "print(json.dumps([main(argv) for argv in runs]))\n")


def test_the_package_runs_without_numpy(tmp_path):
    # no runtime dependency: with numpy blocked, the package imports, and
    # simulate (constant and random history, Lyapunov in a forked child),
    # a forked tail sweep and report --only lyapunov exit 0 with the bytes
    # of a run that could load numpy
    with open(ENDEMIC_DEMO) as fh:
        random_endemic = {**json.load(fh), "history": {"kind": "random"}}
    inputs = {"random.json": random_endemic, "sweep.json": _RANDOM_TAIL_SWEEP}
    runs = [["simulate", ENDEMIC_DEMO, "--out", "endemic"],
            ["simulate", "random.json", "--out", "random", "--seed", "7"],
            ["sweep", "sweep.json", "--out", "sweep"],
            ["report", ENDEMIC_DEMO, "--only", "lyapunov"]]
    got = {}
    for block in (True, False):
        cwd = tmp_path / ("blocked" if block else "free")
        cwd.mkdir()
        for name, obj in inputs.items():
            write_json(cwd / name, obj)
        proc = subprocess.run([sys.executable, "-c", _MAIN_WITHOUT_NUMPY,
                               json.dumps([block, runs])], cwd=cwd,
                              env=subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        *out, codes = proc.stdout.splitlines()
        assert json.loads(codes) == [0] * len(runs), proc.stderr
        files = {f.relative_to(cwd).as_posix(): f.read_bytes()
                 for f in cwd.rglob("*") if f.is_file()}
        got[block] = (out, proc.stderr, files)
    assert {"endemic/trajectory.csv", "random/lyapunov.csv",
            "sweep/sweep.csv"} <= set(got[True][2])
    assert got[True] == got[False]


def test_integrate_and_dense_eval_load_no_numpy():
    # dense_eval reads the node buffer and computes its interval's two
    # derivatives with model.rhs: reads in the history, on a node and
    # between nodes load no numpy module (a structural check)
    code = ("import sys\n"
            "from malaria_dde import *\n"
            "traj = integrate(ModelParams(2.0, 5.0, 0.5, 0.1, 0.2, 0.1, 1.0),\n"
            "                 HistorySegment.constant((4.0, 0.5, 30.0, 10.0), 1.0),\n"
            "                 IntegrationSpec(t_end=3.0))\n"
            "for t in (-0.5, 0.0, 0.3, 1.234, 3.0):\n"
            "    dense_eval(traj, t)\n"
            "print([m for m in sys.modules if m.startswith('numpy.')])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# 0 .. 999, then seeds of one, two, three and seven 32-bit words
PCG_SEEDS = (*range(1000), 2**32 - 1, 2**32, 2**63, 2**64 + 5, 2**200 + 17)


def test_pcg64_port_draws_what_numpy_default_rng_uniform_draws():
    # the stdlib SeedSequence + PCG64 port against numpy itself, a test
    # dependency: the same doubles, draw for draw, bit for bit
    import numpy as np
    for seed in PCG_SEEDS:
        rng, uniform = np.random.default_rng(seed), _uniform(seed)
        for low, high in ((0.2, 2.0), (0.01, 1.0), (0.0, 1.0), (-3.0, 5.0)):
            assert uniform(low, high).hex() == float(rng.uniform(low, high)).hex(), seed


def test_random_history_is_numpys_four_draws():
    import numpy as np
    p = load_scenario(ENDEMIC_DEMO).params
    for seed in PCG_SEEDS:
        rng = np.random.default_rng(seed)
        expected = (rng.uniform(0.2, 2.0) * p.s_h0, rng.uniform(0.01, 1.0) * p.s_h0,
                    rng.uniform(0.2, 2.0) * p.s_v0, rng.uniform(0.01, 1.0) * p.s_v0)
        got = HistorySpec("random").build(p, seed).value_at(0.0)
        assert [v.hex() for v in got] == [float(v).hex() for v in expected], seed


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
def integrate_spy(monkeypatch, tmp_path):
    """A function that returns the spec of each integrate call since it was
    last called, in this process and in forked children alike: each call
    appends a line to a file."""
    import malaria_dde.scenario as scenario_mod
    log = tmp_path / "integrate.log"
    log.write_text("")
    real = scenario_mod.integrate

    def spy(p, phi, spec):
        with open(log, "a") as fh:
            fh.write(json.dumps([spec.system.value, *spec[1:]]) + "\n")
        return real(p, phi, spec)

    def calls():
        lines = log.read_text().splitlines()
        log.write_text("")
        return [IntegrationSpec(SystemKind(s), *rest) for s, *rest in map(json.loads, lines)]

    monkeypatch.setattr(scenario_mod, "integrate", spy)
    return calls


def test_load_scenario_builds_the_integration_spec():
    scn = load_scenario(ENDEMIC_DEMO)
    assert scn.integration == IntegrationSpec(SystemKind.FULL, 200.0, 20)


def test_sweep_rows_integrate_to_their_own_default_horizon(tmp_path, monkeypatch):
    import malaria_dde.scenario as scenario_mod
    ends = []
    real = scenario_mod._integrate

    def spy(p, phi, spec, store):
        traj = real(p, phi, spec, store)
        assert traj.nodes == 0  # a row keeps no node
        ends.append(traj.t_end)
        return traj

    monkeypatch.setattr(scenario_mod, "_integrate", spy)
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 1)  # the spy is in-process
    values = [0.2, 0.08, 0.05]
    obj = {"schema": 1,
           "base": {**BASE, "integration": {"steps_per_delay": 2}},
           "axis": "mu_h", "values": values, "columns": ["tail"]}
    run_sweep(load_sweep(write_json(tmp_path / "sw.json", obj)),
              out_dir=str(tmp_path / "o"))
    mu_v = BASE["params"]["mu_v"]
    assert ends == [40.0 / min(mu_h, mu_v) for mu_h in values] == [400.0, 500.0, 800.0]


def test_run_scenario_integrates_each_system_once(tmp_path, monkeypatch, integrate_spy):
    # simulate and both persistence fractions share the full run; Lyapunov
    # reads the limiting one, in this process or in its forked child. Where
    # simulate's own run is the limiting one, nothing forks and Lyapunov
    # reads that run: one limiting run and one full run in all
    import malaria_dde.scenario as scenario_mod
    scn = load_scenario(ENDEMIC_DEMO)
    assert scn.analyses.lyapunov and len(scn.analyses.persistence) == 2
    limiting = scn._replace(integration=scn.integration._replace(system=SystemKind.LIMITING))
    for workers in (1, 2):
        monkeypatch.setattr(scenario_mod, "_workers", lambda: workers)
        for s in (scn, limiting):
            run_scenario(s, out_dir=str(tmp_path / "out"))
            assert_no_child_processes()
            assert sorted(c.system.value for c in integrate_spy()) == ["full", "limiting"]

        run_scenario(scn, only="persistence")
        assert [c.system for c in integrate_spy()] == [SystemKind.FULL]


def test_zero_delay_step_reaches_every_analysis(tmp_path, integrate_spy):
    params = {**BASE["params"], "tau": 0.0}
    path = scenario_file(tmp_path, params=params,
                         integration={"t_end": 40, "step": 0.01},
                         analyses={"lyapunov": True, "persistence": [0.5]})
    scn = load_scenario(path)
    rep = report_dict(run_scenario(scn, out_dir=str(tmp_path / "o")))
    assert {s.step for s in integrate_spy()} == {0.01}

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


# each rejected by HistorySegment; the load once passed every one, and only
# simulate failed, at no field
INVALID_HISTORIES = {
    "negative-sample": {"kind": "constant", "state": [4, -0.5, 30, 10]},
    "no-mosquitoes": {"kind": "constant", "state": [4, 0.5, 0, 0]},
    "times-fall": {"kind": "table", "times": [-1.0, -0.25, -0.5, 0.0],
                   "states": [[4, 0.5, 30, 10]] * 4},
    "times-end-before-0": {"kind": "table", "times": [-1.0, -0.5],
                           "states": [[4, 0.5, 30, 10]] * 2},
    "rows-differ": {**TABLE_HISTORY, "states": TABLE_HISTORY["states"][:2]},
}


@pytest.mark.parametrize("history", INVALID_HISTORIES.values(), ids=INVALID_HISTORIES)
def test_an_invalid_history_fails_the_load_at_the_history(tmp_path, capsys, history):
    path = scenario_file(tmp_path, history=history)
    with pytest.raises(SchemaError) as err:
        load_scenario(path)
    assert err.value.field == "scenario.history"
    base = {k: v for k, v in BASE.items() if k != "schema"}
    sweeps = [write_json(tmp_path / f"sweep{i}.json",
                         {"schema": 1, "base": {**base, "history": history},
                          "axis": "c_vh", "values": [0.1, 0.2], "columns": columns})
              for i, columns in enumerate((["r0", "classification"], ["tail"]))]
    for sweep in sweeps:
        with pytest.raises(SchemaError) as err:
            load_sweep(sweep)
        assert err.value.field == "sweep.base.history"
    capsys.readouterr()
    out = tmp_path / "o"
    for argv in (["report", path], ["simulate", path, "--out", str(out)],
                 *(["sweep", sweep, "--out", str(out)] for sweep in sweeps)):
        assert cli.main(argv) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith(("error: scenario.history: ",
                                   "error: sweep.base.history: "))
    assert not out.exists()


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
    # tau = 0 takes the default step 0.1 / max_rate = 1e-201; E* stays finite, as
    # report.txt prints its components before the run
    path = scenario_file(tmp_path, params={**BASE["params"], "tau": 0, "c_vh": 1e200},
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
    assert integrate_spy() == []
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


@pytest.mark.parametrize("command,failing", [
    ("simulate", "trajectory.csv"), ("simulate", "lyapunov.csv"),
    ("simulate", "report.txt"), ("sweep", "sweep.csv"),
])
def test_failing_write_keeps_an_earlier_run(tmp_path, capsys, monkeypatch, command,
                                            failing):
    # the disk fills part way through one file of the second run, after the
    # files staged before it are written: no file of the first run may
    # change, and no staged <name>.part file is left
    import malaria_dde.scenario as scenario_mod
    out = tmp_path / "o"

    def run(t_end, columns):
        path = (_sweep_file(tmp_path, columns) if command == "sweep"
                else scenario_file(tmp_path, integration={"t_end": t_end},
                                   analyses=LYAPUNOV_ON))
        return cli.main([command, path, "--out", str(out), "--quiet"])

    assert run(10, ["r0"]) == 0
    before = _tree(out)
    assert sorted(before) == (["sweep.csv"] if command == "sweep"
                              else ["lyapunov.csv", "report.txt", "trajectory.csv"])

    def disk_full(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if str(file) == str(out / f"{failing}.part"):
            write = fh.write

            def full(data):
                write("t,")  # a part, then no space left
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), file)
            fh.write = fh.writelines = full
        return fh

    monkeypatch.setattr(scenario_mod, "open", disk_full, raising=False)
    assert run(12, ["r0", "r0_squared"]) == 1
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


class TwoArg(Exception):
    """An exception that pickle cannot rebuild: __init__ takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


SYNTHETIC = RuntimeError("synthetic failure outside the row-error path")


@pytest.mark.parametrize("failing_row,failure", [
    (0, SYNTHETIC), (1, SYNTHETIC), (0, TwoArg("x", "y")), (1, TwoArg("x", "y")),
], ids=["parent-row", "worker-row", "parent-row-two-arg", "worker-row-two-arg"])
def test_failing_sweep_keeps_an_earlier_run(tmp_path, monkeypatch, failing_row, failure,
                                            fails_rather_than_hangs):
    # a failure outside the row-error path (not a ModelError or an
    # ArithmeticError) leaves the sweep before it writes anything, whether
    # this process ran the row or a forked worker did; no worker is left, and
    # the failure is raised as itself, from the row that raised it
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
            raise failure
        return real(sweep, value, seed)

    monkeypatch.setattr(scenario_mod, "_sweep_row", row_fails)
    with pytest.raises(Exception) as info:
        run_sweep(sw, out_dir=str(out))
    assert info.type is type(failure) and str(info.value) == str(failure)
    assert info.traceback[-1].name == "row_fails"
    assert_no_child_processes()
    assert _tree(out) == before


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failing", [(1.0, 1.5), (1.5, 2.5)], ids=["1.0-1.5", "1.5-2.5"])
def test_a_sweep_raises_the_first_failure_in_row_order(tmp_path, monkeypatch, workers,
                                                       failing, fails_rather_than_hangs):
    # two rows fail outside the row-error path; whichever processes run them,
    # the earlier one's failure is raised, as in a serial run. At 2 workers
    # this process runs rows 0, 2 and 4; at 3, worker 2 runs row 2 and
    # worker 1 row 4
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: workers)
    real = scenario_mod._sweep_row

    def row_fails(sweep, value, seed):
        if value in failing:
            raise RuntimeError(f"row {value}")
        return real(sweep, value, seed)

    monkeypatch.setattr(scenario_mod, "_sweep_row", row_fails)
    obj = {"schema": 1, "base": {**BASE, "integration": {"t_end": 10}},
           "axis": "tau", "values": [0.5, 1.0, 1.5, 2.0, 2.5], "columns": ["tail"]}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))
    with pytest.raises(RuntimeError) as info:
        run_sweep(sw, out_dir=str(tmp_path / "o"))
    assert str(info.value) == f"row {failing[0]}"
    assert info.traceback[-1].name == "row_fails"
    assert_no_child_processes()
    assert not (tmp_path / "o").exists()


def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forked_sweep(tmp_path, workers, monkeypatch, name, columns=("r0", "tail")):
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: workers)
    obj = {"schema": 1,
           "base": {**BASE, "history": {"kind": "random"}, "integration": {"t_end": 10}},
           "axis": "tau", "values": [0.5, 1e-300, 1.0, 2.0, 1.5],
           "columns": list(columns)}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))
    run_sweep(sw, out_dir=str(tmp_path / name), seed=4)
    data = (tmp_path / name / "sweep.csv").read_bytes()
    assert_no_child_processes()
    return data


@pytest.mark.parametrize("columns", [
    ("r0", "tail"),
    SWEEP_COLUMNS,
    ("error_class", "tail", "e_star", "r0", "classification", "r0_squared"),
], ids=["r0-tail", "every-column", "out-of-order"])
def test_forked_sweep_is_the_serial_bytes(tmp_path, monkeypatch, no_runs_at_tiny_delays,
                                          fails_rather_than_hangs, columns):
    # 5 rows split unevenly across 2 and 3 processes; the second row is past
    # the step ceiling, so its error cell comes back from a worker; whatever
    # the columns and their order, a plan that needs the run forks
    serial = _forked_sweep(tmp_path, 1, monkeypatch, "o1", columns)
    assert b"steps of h" in serial.splitlines()[2]
    for n in (2, 3):
        assert _forked_sweep(tmp_path, n, monkeypatch, f"o{n}", columns) == serial


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


def _open_descriptors():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("call,err", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                         ids=["fork", "pipe"])
def test_a_fork_that_fails_runs_the_rows_in_process(tmp_path, monkeypatch, call, err,
                                                    fails_rather_than_hangs):
    # the first worker starts; for the second, os.fork or os.pipe fails, so
    # its rows run here and no descriptor is left open
    serial = _forked_sweep(tmp_path, 1, monkeypatch, "o1")
    real, calls = getattr(os, call), []

    def fails_after_one(*args):
        calls.append(call)
        if len(calls) > 1:
            raise OSError(err, os.strerror(err))
        return real(*args)

    before = _open_descriptors()
    monkeypatch.setattr(os, call, fails_after_one)
    assert _forked_sweep(tmp_path, 3, monkeypatch, "o3") == serial
    assert len(calls) == 2 and _open_descriptors() == before


def test_error_class_column_names_the_exception(tmp_path, monkeypatch,
                                                no_runs_at_tiny_delays,
                                                fails_rather_than_hangs):
    # opt-in: no group and no default holds it, so existing sweeps keep their
    # bytes; at 2 workers the failing row runs in the forked worker
    import malaria_dde.scenario as scenario_mod
    assert "error_class" not in DEFAULT_SWEEP_COLUMNS
    assert all("error_class" not in group
               for group in scenario_mod._COLUMN_ALIASES.values())
    obj = {"schema": 1, "base": {**BASE, "integration": {"t_end": 10}},
           "axis": "tau", "values": [1.0, 1e-300], "columns": ["error_class", "tail"]}
    sw = load_sweep(write_json(tmp_path / "sw.json", obj))
    for workers in (1, 2):
        monkeypatch.setattr(scenario_mod, "_workers", lambda: workers)
        rows = (tmp_path / "o").joinpath("sweep.csv")
        run_sweep(sw, out_dir=str(tmp_path / "o"))
        assert_no_child_processes()
        header, ok, past_ceiling = rows.read_text().splitlines()
        assert header.startswith("tau,error_class,tail_s_h_inf,")
        assert ok.startswith("1,,") and ok.endswith(",")
        assert past_ceiling.startswith("1e-300,InvalidSpecError,,")
        assert "steps of h" in past_ceiling


# ------------------------------------------------ the Lyapunov section in a child

ALL_ARTIFACTS = {"integration": {"t_end": 12}, "analyses": {**LYAPUNOV_ON,
                                                            "persistence": [0.5]}}


def _simulate(tmp_path, monkeypatch, workers, name="o", **overrides):
    """Run the ALL_ARTIFACTS scenario, with `overrides`, at `workers` CPUs and
    return its files."""
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: workers)
    path = scenario_file(tmp_path, **{**ALL_ARTIFACTS, **overrides})
    out = tmp_path / name
    assert cli.main(["simulate", path, "--out", str(out), "--quiet"]) == 0
    assert_no_child_processes()
    return _tree(out)


@pytest.fixture
def fork_calls(monkeypatch):
    """Each os.fork call, logged as it goes through."""
    calls, real = [], os.fork

    def logged():
        calls.append("fork")
        return real()

    monkeypatch.setattr(os, "fork", logged)
    return calls


def test_artifacts_are_the_same_bytes_at_one_and_two_workers(tmp_path, monkeypatch,
                                                             fork_calls):
    serial = _simulate(tmp_path, monkeypatch, 1)
    assert fork_calls == [] and sorted(serial) == ["lyapunov.csv", "report.txt",
                                                   "trajectory.csv"]
    assert _simulate(tmp_path, monkeypatch, 2) == serial
    assert fork_calls == ["fork"]  # one child, for the Lyapunov section


@pytest.mark.parametrize("analyses,system,files,forks", [
    ({"simulate": True, "stability": False}, "full", ["report.txt", "trajectory.csv"], 0),
    ({"simulate": False, "lyapunov": True}, "full", ["lyapunov.csv", "report.txt"], 0),
    (LYAPUNOV_ON, "full", ["lyapunov.csv", "report.txt", "trajectory.csv"], 1),
    ({"simulate": False, "lyapunov": True, "persistence": [0.5]}, "full",
     ["lyapunov.csv", "report.txt"], 0),
    (ALL_ARTIFACTS["analyses"], "limiting", ["lyapunov.csv", "report.txt",
                                              "trajectory.csv"], 0),
], ids=["simulate-only", "lyapunov-only", "simulate-lyapunov", "lyapunov-persistence",
        "limiting-all"])
def test_the_lyapunov_section_forks_once_beside_a_full_simulate(
        tmp_path, monkeypatch, fork_calls, analyses, system, files, forks):
    # a child only where this process runs the full system meanwhile; a
    # limiting simulate's run is the one Lyapunov reads, so it forks nothing
    integration = {"t_end": 12, "system": system}
    serial = _simulate(tmp_path, monkeypatch, 1, analyses=analyses,
                       integration=integration)
    assert sorted(serial) == files
    assert _simulate(tmp_path, monkeypatch, 2, analyses=analyses,
                     integration=integration) == serial
    assert fork_calls == ["fork"] * forks


@pytest.fixture
def sigchld_ignored():
    """SIGCHLD set to SIG_IGN, so the kernel reaps each child itself."""
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    yield
    signal.signal(signal.SIGCHLD, old)


def test_children_the_kernel_reaps_leave_the_same_bytes(tmp_path, monkeypatch, fork_calls,
                                                        sigchld_ignored):
    # os.waitpid raises ChildProcessError: the Lyapunov section runs here
    serial = _simulate(tmp_path, monkeypatch, 1)
    assert _simulate(tmp_path, monkeypatch, 2) == serial
    assert fork_calls == ["fork"]


@pytest.mark.parametrize("code", sorted(LATE_FAILURES))
def test_a_failing_run_whose_children_the_kernel_reaps_keeps_its_error(
        tmp_path, capsys, monkeypatch, code, fork_calls, sigchld_ignored):
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 2)
    path = scenario_file(tmp_path, **LATE_FAILURES[code], analyses=LYAPUNOV_ON)
    out = tmp_path / "fresh"
    assert cli.main(["simulate", path, "--out", str(out), "--quiet"]) == code
    assert fork_calls == ["fork"]
    assert_no_child_processes()
    assert not out.exists()
    assert "output.dir" not in capsys.readouterr().err


def _fails_for_artifacts(call, err):
    """os.fork or os.pipe raising err; a Lyapunov section that raises in a
    forked child only."""
    import malaria_dde.scenario as scenario_mod
    if call in ("fork", "pipe"):
        def fails(*args):
            raise OSError(err, os.strerror(err))
        return os, call, fails

    real, parent = scenario_mod.trace_along, os.getpid()

    def fails(p, traj):
        if os.getpid() != parent:
            raise RuntimeError("the section failed in the child")
        return real(p, traj)
    return scenario_mod, "trace_along", fails


@pytest.mark.parametrize("call,err", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE),
                                      ("child", None)],
                         ids=["fork", "pipe", "child-exits-1"])
def test_an_artifact_with_no_child_bytes_is_formatted_here(tmp_path, monkeypatch,
                                                           call, err, fork_calls):
    # the Lyapunov section, lyapunov.csv with it, runs in this process
    serial = _simulate(tmp_path, monkeypatch, 1, "o1")
    before = _open_descriptors()
    monkeypatch.setattr(*_fails_for_artifacts(call, err))
    assert _simulate(tmp_path, monkeypatch, 2, "o2") == {
        f: data.replace(b"/o1/", b"/o2/") for f, data in serial.items()}
    assert _open_descriptors() == before
    assert len(fork_calls) == (1 if call == "child" else 0)


@pytest.mark.parametrize("code", sorted(LATE_FAILURES))
def test_a_run_that_fails_after_simulate_leaves_no_child(tmp_path, capsys, monkeypatch,
                                                         code, fork_calls):
    # the Lyapunov section fails in the child, then again here at its place
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 2)
    path = scenario_file(tmp_path, **LATE_FAILURES[code], analyses=LYAPUNOV_ON)
    out = tmp_path / "fresh"
    assert cli.main(["simulate", path, "--out", str(out), "--quiet"]) == code
    assert fork_calls == ["fork"]
    assert_no_child_processes()
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_a_run_that_fails_beside_its_child_kills_it(tmp_path, monkeypatch, fork_calls,
                                                    fails_rather_than_hangs):
    # simulate fails here while the child still runs the Lyapunov section:
    # the child is killed and reaped, and nothing is written
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 2)

    def fails(traj):
        raise RuntimeError("simulate failed")

    monkeypatch.setattr(scenario_mod, "tail_stats", fails)
    path = scenario_file(tmp_path, **{**ALL_ARTIFACTS, "integration": {"t_end": 200}})
    with pytest.raises(RuntimeError, match="simulate failed"):
        cli.main(["simulate", path, "--out", str(tmp_path / "o"), "--quiet"])
    assert fork_calls == ["fork"]
    assert_no_child_processes()
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lyapunov_fails", [True, False], ids=["both-fail", "persistence-fails"])
def test_a_persistence_failure_follows_the_lyapunov_section(
        tmp_path, capsys, monkeypatch, fork_calls, lyapunov_fails):
    # persistence (I_h(0) = 0) would fail after the Lyapunov section. Where
    # that section, earlier in section order, fails in the child and again
    # here, its error is raised; where it passes in the child, persistence
    # raises its own: the errors of a serial run
    import malaria_dde.scenario as scenario_mod
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 2)
    path = scenario_file(tmp_path, **(LATE_FAILURES[1] if lyapunov_fails else {}),
                         history={"kind": "constant", "state": [4, 0, 30, 10]},
                         analyses={**LYAPUNOV_ON, "persistence": [0.5]})
    assert cli.main(["simulate", path, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert fork_calls == ["fork"]
    assert_no_child_processes()
    err = capsys.readouterr().err
    assert ("horizon too short" in err) is lyapunov_fails
    assert ("needs I_h(0) > 0" in err) is not lyapunov_fails
    assert not (tmp_path / "o").exists()


@pytest.fixture
def second_thread():
    """A live thread beside this one, for the length of the test."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    yield
    done.set()
    thread.join()


@pytest.mark.parametrize("argv,workers,thread", [
    (["report"], 2, False),
    (["report", "--only", "lyapunov"], 2, False),
    (["simulate", "--out", "{out}", "--quiet"], 1, False),
    (["simulate", "--out", "{out}", "--quiet"], 2, True),
], ids=["report", "report-only", "one-cpu", "second-thread"])
def test_runs_that_cannot_gain_do_not_fork(tmp_path, monkeypatch, request, argv,
                                           workers, thread):
    import malaria_dde.scenario as scenario_mod
    if thread:
        request.getfixturevalue("second_thread")
    monkeypatch.setattr(scenario_mod, "_workers", lambda: workers)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    path = scenario_file(tmp_path, **ALL_ARTIFACTS)
    command, *rest = argv
    rest = [a.format(out=tmp_path / "o") for a in rest]
    assert cli.main([command, path, *rest]) == 0
    if command == "simulate":
        assert sorted(os.listdir(tmp_path / "o")) == ["lyapunov.csv", "report.txt",
                                                      "trajectory.csv"]


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
