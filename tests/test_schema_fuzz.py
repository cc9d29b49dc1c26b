"""Schema fuzzing: one field of a small valid scenario or sweep is replaced by
an arbitrary JSON value, and the file goes through the CLI in-process.

`report --only stability` and a sweep without tail columns load every field
but integrate nothing, so each case is cheap. Whatever the value, the call
must return 0, 1 or 2: every failure leaves through the error taxonomy.

The same values check that the loader, which checks a file's form and hands
each value to the record that owns it, fails at a params or integration
field exactly when ModelParams or IntegrationSpec rejects the value there.
"""

import copy
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import malaria_dde.cli as cli
from malaria_dde import (
    IntegrationSpec,
    ModelParams,
    SchemaError,
    SystemKind,
    ValidationError,
    load_scenario,
    load_sweep,
)

SCENARIO = {
    "schema": 1,
    "params": {"beta_h": 2, "beta_v": 5, "mu_h": 0.5, "mu_v": 0.1,
               "c_vh": 0.2, "c_hv": 0.1, "tau": 1.0},
    "history": {"kind": "constant", "state": [4, 0.5, 30, 10]},
    "integration": {"system": "full", "t_end": 40, "steps_per_delay": 20,
                    "step": 0.05, "record_stride": 1},
    "analyses": {"simulate": True, "stability": True, "lyapunov": False,
                 "persistence": [0.5]},
    "output": {"dir": "out", "formats": ["csv"]},
}
TABLE = {"kind": "table", "times": [-1.0, -0.5, 0.0],
         "states": [[4, 0.5, 30, 10], [4, 0.6, 30, 10], [4, 0.7, 30, 10]]}
TABLE_SCENARIO = {**SCENARIO, "history": TABLE}
SWEEP = {"schema": 1,
         "base": {k: v for k, v in SCENARIO.items() if k != "schema"},
         "axis": "c_vh", "values": [0.1, 0.2],
         "columns": ["r0", "r0_squared", "classification", "e_star"]}


def field_paths(obj, prefix=()):
    """The document itself, every key or index path below it, and one new
    key per object."""
    out = [prefix]
    if isinstance(obj, dict):
        out.append(prefix + ("extra",))
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return out
    for key, value in children:
        out.extend(field_paths(value, prefix + (key,)))
    return out


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


CASES = ([("report", SCENARIO, p) for p in field_paths(SCENARIO)]
         + [("report", TABLE_SCENARIO, p) for p in field_paths(TABLE, ("history",))]
         + [("sweep", SWEEP, p) for p in field_paths(SWEEP)])

EXTREMES = [math.nan, math.inf, -math.inf, 10**400, -10**400, 1e308, -1e308,
            5e-324, 1e-200, 0, -0.0, -1, 1, 1.5, "", "full", "csv", "table"]
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.text(max_size=6) | st.sampled_from(EXTREMES))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


def run_main(tmp_path, command, doc):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    if command == "report":
        return cli.main(["report", str(path), "--only", "stability"])
    return cli.main(["sweep", str(path), "--out", str(tmp_path / "out"), "--quiet"])


@settings(max_examples=300)
@given(case=st.sampled_from(CASES), value=JSON_VALUES)
def test_any_one_field_exits_through_the_taxonomy(tmp_path_factory, case, value):
    command, doc, path = case
    tmp = tmp_path_factory.mktemp("fuzz")
    assert run_main(tmp, command, replaced(doc, path, value)) in (0, 1, 2)


@pytest.mark.parametrize("command,doc", [
    ("report", SCENARIO), ("report", TABLE_SCENARIO), ("sweep", SWEEP)])
def test_fuzz_documents_are_valid_as_written(tmp_path, command, doc):
    # so a failure above comes from the replaced field
    assert run_main(tmp_path, command, doc) == 0


# ------------------------------------------------ explicit regressions

BAD_TABLE_SAMPLE = {**TABLE, "states": [[4, 0.5, 30, 10], [4, "x", 30, 10],
                                        [4, 0.7, 30, 10]]}


@pytest.mark.parametrize("path,value,field", [
    # used to end in an OverflowError traceback
    (("integration", "t_end"), math.inf, "scenario.integration.t_end"),
    # used to end in a ValueError traceback
    (("history",), BAD_TABLE_SAMPLE, "scenario.history.states"),
    # used to run and exit 0
    (("history",), {**TABLE, "times": [math.nan, -0.5, 0.0]},
     "scenario.history.times"),
    # used to exit 2 with "solution blew up"
    (("history", "state"), [4, math.nan, 30, 10], "scenario.history.state"),
    (("analyses", "persistence"), [0.5, 1.5], "scenario.analyses.persistence"),
    (("params", "mu_v"), -math.inf, "scenario.params.mu_v"),
    (("params", "tau"), 10**400, "scenario.params.tau"),
    (("schema",), True, "scenario.schema"),
], ids=["t_end-inf", "table-string", "table-nan-time", "constant-nan",
        "theta-1.5", "rate-minus-inf", "tau-huge-int", "schema-true"])
def test_bad_scenario_values_exit_1_at_their_field(tmp_path, capsys, path, value,
                                                   field):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(replaced(SCENARIO, path, value)))
    with pytest.raises(SchemaError) as err:
        load_scenario(str(scn))
    assert err.value.field == field
    assert cli.main(["simulate", str(scn), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_sweep_value_fails_the_load(tmp_path, value):
    # used to give a row error marker and exit 0
    assert run_main(tmp_path, "sweep", replaced(SWEEP, ("values",), [0.1, value])) == 1
    with pytest.raises(SchemaError) as err:
        load_sweep(str(tmp_path / "sweep.json"))
    assert err.value.field == "sweep.values[1]"


def test_underflowing_rates_exit_2_and_mark_their_sweep_row(tmp_path, capsys):
    # admissible, but mu_h^2 * mu_v underflows to 0 in R0^2
    doc = replaced(SCENARIO, ("params", "mu_h"), 1e-200)
    assert run_main(tmp_path, "report", doc) == 2
    assert "division by zero" in capsys.readouterr().err

    sweep = {**SWEEP, "axis": "mu_h", "values": [0.5, 1e-200]}
    assert run_main(tmp_path, "sweep", sweep) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[1].endswith(",") and "division by zero" in rows[2]


def _underflowing_lyapunov_divisor(tmp_path, capsys, monkeypatch, *argv):
    """cli.main(argv + the scenario) at two CPUs, with Lyapunov on and
    rates for which S_h0 = beta_h / mu_h underflows to 0 in V_DFE: it exits
    2 naming S_h0 and leaves no child. Returns the systems it integrated."""
    import malaria_dde.scenario as scenario_mod
    doc = replaced(SCENARIO, ("params",), {**SCENARIO["params"], "beta_h": 5e-324,
                                           "mu_h": 3.0})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(replaced(doc, ("analyses", "lyapunov"), True)))
    systems, real = [], scenario_mod.integrate

    def spy(p, phi, spec):
        systems.append(spec.system)
        return real(p, phi, spec)

    monkeypatch.setattr(scenario_mod, "integrate", spy)
    monkeypatch.setattr(scenario_mod, "_workers", lambda: 2)
    assert cli.main([argv[0], str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err == ("error: S_h0 = beta_h / mu_h underflows to 0: division by zero "
                   "for admissible but extreme rates\n")
    with pytest.raises(ChildProcessError):  # no child is left
        os.waitpid(-1, os.WNOHANG)
    return systems


def test_an_underflowing_lyapunov_divisor_exits_2_naming_it(tmp_path, capsys,
                                                            monkeypatch):
    # the divisors are checked before the limiting run
    assert _underflowing_lyapunov_divisor(tmp_path, capsys, monkeypatch,
                                          "report", "--only", "lyapunov") == []


def test_an_underflowing_lyapunov_divisor_stops_simulate_before_its_limiting_run(
        tmp_path, capsys, monkeypatch):
    # the Lyapunov child fails its divisor check, and so does this process
    # after the full run, at the section's place; the child is reaped and
    # nothing is written
    out = tmp_path / "out"
    assert _underflowing_lyapunov_divisor(tmp_path, capsys, monkeypatch,
                                          "simulate", "--out", str(out)) == [SystemKind.FULL]
    assert not out.exists()


def test_an_underflowing_s_v0_exits_2_naming_it(tmp_path, capsys):
    # admissible, but S_v0 = beta_v / mu_v underflows to 0, and the limiting
    # system divides by it; this once printed "float division by zero"
    doc = replaced(SCENARIO, ("params",), {**SCENARIO["params"], "beta_v": 5e-324,
                                           "mu_v": 3.0})
    doc = replaced(doc, ("integration", "system"), "limiting")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: S_v0 = beta_v / mu_v underflows to 0: division by zero "
                   "for admissible but extreme rates\n")


# ------------------------------------------------ the loader defers to the records

RECORD_FIELDS = ([("params", name) for name in ModelParams._fields]
                 + [("integration", f) for f in IntegrationSpec._fields])


def assert_loader_fails_where_the_record_does(tmp_path, section, field, value):
    """`value` at section.field of a scenario file fails load_scenario, with
    a SchemaError at that field, exactly when the record's constructor raises
    on it; for a params field, a sweep of that axis whose second value is
    `value` fails load_sweep at sweep.values[1] exactly then too. The loader
    reads `system` from JSON text, so the record gets the SystemKind that the
    text names. None is not drawn: it is the record's "unset", which a file
    expresses by leaving the key out."""
    if section == "params":
        record, others = ModelParams, SCENARIO["params"]
    else:
        record, others = IntegrationSpec, {}
    if field == "system":
        value_for_record = next((k for k in SystemKind if k.value == value), value)
    else:
        value_for_record = value
    try:
        record(**{**others, field: value_for_record})
        rejected = False
    except ValidationError as exc:
        rejected = True
        assert exc.name == field
    docs = [(load_scenario, replaced(SCENARIO, (section, field), value),
             f"scenario.{section}.{field}")]
    if section == "params":
        docs.append((load_sweep, {**SWEEP, "axis": field,
                                  "values": [SCENARIO["params"][field], value]},
                     "sweep.values[1]"))
    for load, doc, where in docs:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        if rejected:
            with pytest.raises(SchemaError) as err:
                load(str(path))
            assert err.value.field == where
            # the field is named once, as the prefix
            assert str(err.value).startswith(f"{where}: ")
            assert where not in str(err.value)[len(where):]
        else:
            load(str(path))


@pytest.mark.parametrize("section,field", RECORD_FIELDS)
def test_records_reject_the_extremes_the_loader_rejects(tmp_path, section, field):
    for value in (*EXTREMES, "limiting", True, False):
        assert_loader_fails_where_the_record_does(tmp_path, section, field, value)


@settings(max_examples=300)
@given(case=st.sampled_from(RECORD_FIELDS),
       value=st.floats() | st.integers() | st.booleans() | st.text(max_size=8))
def test_records_reject_what_the_loader_rejects(tmp_path_factory, case, value):
    assert_loader_fails_where_the_record_does(tmp_path_factory.mktemp("record"), *case,
                                              value)
