"""Scenario and sweep files: the batch surface behind the CLI.

A scenario is one JSON object (schema 1):

    {
      "schema": 1,
      "params": {"beta_h": 2, "beta_v": 5, "mu_h": 0.5, "mu_v": 0.1,
                 "c_vh": 0.2, "c_hv": 0.1, "tau": 1.0},
      "history": {"kind": "constant", "state": [3, 0.5, 30, 5]},
      "integration": {"system": "full", "t_end": 400,
                      "steps_per_delay": 20, "record_stride": 1},
      "analyses": {"simulate": true, "stability": true,
                   "lyapunov": false, "persistence": [0.5]},
      "output": {"dir": "out", "formats": ["csv"]}
    }

history.kind may also be "table" (times from -tau to 0 plus states arrays)
or "random" (constant history drawn once from the seeded generator:
S-components uniform in [0.2, 2] x the disease-free pool, I-components
uniform in [0.01, 1] x the same scale). Every section except schema/params
is optional; omitted values fall back to the defaults table. Unknown keys
are rejected so typos surface as SchemaError instead of silently running
defaults.

A sweep wraps a base scenario, an axis (one parameter name), the values to
visit in order, and the derived columns to tabulate. Rows are independent; a
failing row records an error marker and the sweep carries on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from . import defaults
from .equilibria import (
    basic_reproduction_number,
    endemic_equilibrium,
    equilibrium_set,
    r0_squared,
)
from .errors import (
    EndemicAbsentError,
    InvalidSpecError,
    ModelError,
    NegativeDelayError,
    NonPositiveRateError,
    SchemaError,
)
from .integrator import IntegrationSpec, SystemKind, Trajectory, integrate, tail_stats
from .lyapunov import FunctionalKind, trace_along
from .model import HistorySegment, ModelParams, validate_params
from .persistence import weak_persistence_check
from .stability import EquilibriumKind, classify

SCHEMA_VERSION = 1

PARAM_FIELDS = ("beta_h", "beta_v", "mu_h", "mu_v", "c_vh", "c_hv", "tau")

_STAR_COLUMNS = ("s_h_star", "i_h_star", "s_v_star", "i_v_star")
_TAIL_COLUMNS = tuple(f"tail_{c}_{b}" for c in ("s_h", "i_h", "s_v", "i_v")
                      for b in ("inf", "sup"))
_COLUMN_ALIASES = {
    "classification": ("classification_e0", "classification_e_star"),
    "e_star": _STAR_COLUMNS,
    "tail": _TAIL_COLUMNS,
}
SWEEP_COLUMNS = (("r0", "r0_squared", "classification_e0", "classification_e_star")
                 + _STAR_COLUMNS + _TAIL_COLUMNS)
DEFAULT_SWEEP_COLUMNS = ("r0", "classification_e0", "classification_e_star",
                         "i_h_star")


@dataclass(frozen=True)
class HistorySpec:
    kind: str                      # constant | table | random
    state: tuple[float, ...] | None = None
    times: tuple[float, ...] | None = None
    states: tuple[tuple[float, ...], ...] | None = None

    def build(self, p: ModelParams, rng: np.random.Generator) -> HistorySegment:
        if self.kind == "constant":
            return HistorySegment.constant(self.state, p.tau)
        if self.kind == "table":
            return HistorySegment.table(self.times, self.states)
        draw = (rng.uniform(0.2, 2.0) * p.s_h0,
                rng.uniform(0.01, 1.0) * p.s_h0,
                rng.uniform(0.2, 2.0) * p.s_v0,
                rng.uniform(0.01, 1.0) * p.s_v0)
        return HistorySegment.constant(draw, p.tau)


@dataclass(frozen=True)
class Analyses:
    simulate: bool = True
    stability: bool = True
    lyapunov: bool = False
    persistence: tuple[float, ...] = ()


@dataclass(frozen=True)
class Scenario:
    params: ModelParams
    history: HistorySpec
    system: SystemKind = SystemKind.FULL
    t_end: float | None = None
    steps_per_delay: int = defaults.STEPS_PER_DELAY
    step: float | None = None
    record_stride: int = defaults.RECORD_STRIDE
    analyses: Analyses = Analyses()
    out_dir: str = "out"

    def resolved_t_end(self) -> float:
        if self.t_end is not None:
            return self.t_end
        return defaults.default_t_end(self.params.mu_h, self.params.mu_v)

    def integration_spec(self) -> IntegrationSpec:
        return IntegrationSpec(system=self.system, t_end=self.resolved_t_end(),
                               steps_per_delay=self.steps_per_delay,
                               step=self.step, record_stride=self.record_stride)


# ---------------------------------------------------------------- loading

def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")


def _number(obj: dict, key: str, path: str, default=None, required=False):
    if key not in obj:
        if required:
            raise SchemaError(f"{path}.{key}", "missing")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def _boolean(obj: dict, key: str, path: str, default: bool) -> bool:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        raise SchemaError(f"{path}.{key}", f"expected a boolean, got {v!r}")
    return v


def _integer(obj: dict, key: str, path: str, default: int) -> int:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _check_schema_version(obj: dict, path: str, required: bool) -> None:
    if "schema" not in obj:
        if required:
            raise SchemaError(f"{path}.schema", "missing")
        return
    if obj["schema"] != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema",
                          f"unsupported version {obj['schema']!r}")


def _parse_params(obj: Any, path: str) -> ModelParams:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    _require_keys(obj, set(PARAM_FIELDS), path)
    values = {f: _number(obj, f, path, required=True) for f in PARAM_FIELDS}
    try:
        return validate_params(ModelParams(**values))
    except NonPositiveRateError as exc:
        raise SchemaError(f"{path}.{exc.name}", "must be strictly positive") from None
    except NegativeDelayError:
        raise SchemaError(f"{path}.tau", "must be >= 0") from None


def _parse_history(obj: Any, path: str) -> HistorySpec:
    if obj is None:
        raise SchemaError(path, "missing")
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    kind = obj.get("kind")
    if kind == "constant":
        _require_keys(obj, {"kind", "state"}, path)
        state = obj.get("state")
        if (not isinstance(state, list) or len(state) != 4
                or any(isinstance(x, bool) or not isinstance(x, (int, float))
                       for x in state)):
            raise SchemaError(f"{path}.state", "expected 4 numbers")
        return HistorySpec(kind="constant", state=tuple(float(x) for x in state))
    if kind == "table":
        _require_keys(obj, {"kind", "times", "states"}, path)
        times = obj.get("times")
        states = obj.get("states")
        if not isinstance(times, list) or not times:
            raise SchemaError(f"{path}.times", "expected a nonempty array")
        if (not isinstance(states, list) or len(states) != len(times)
                or any(not isinstance(r, list) or len(r) != 4 for r in states)):
            raise SchemaError(f"{path}.states", "expected len(times) rows of 4")
        return HistorySpec(kind="table",
                           times=tuple(float(t) for t in times),
                           states=tuple(tuple(float(x) for x in r) for r in states))
    if kind == "random":
        _require_keys(obj, {"kind"}, path)
        return HistorySpec(kind="random")
    raise SchemaError(f"{path}.kind", f"expected constant|table|random, got {kind!r}")


def _parse_scenario_dict(obj: Any, path: str = "scenario",
                         schema_required: bool = True) -> Scenario:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a JSON object")
    _require_keys(obj, {"schema", "params", "history", "integration",
                        "analyses", "output"}, path)
    _check_schema_version(obj, path, schema_required)
    if "params" not in obj:
        raise SchemaError(f"{path}.params", "missing")
    params = _parse_params(obj["params"], f"{path}.params")
    history = _parse_history(obj.get("history"), f"{path}.history")
    if history.kind == "table":
        span = -history.times[0]
        if abs(span - params.tau) > 1e-9 * (1.0 + params.tau):
            raise SchemaError(f"{path}.history.times",
                              f"span {span!r} differs from params.tau = "
                              f"{params.tau!r}")

    system = SystemKind.FULL
    t_end = None
    steps = defaults.STEPS_PER_DELAY
    step = None
    stride = defaults.RECORD_STRIDE
    if "integration" in obj:
        integ = obj["integration"]
        if not isinstance(integ, dict):
            raise SchemaError(f"{path}.integration", "expected an object")
        ipath = f"{path}.integration"
        _require_keys(integ, {"system", "t_end", "steps_per_delay", "step",
                              "record_stride"}, ipath)
        if "system" in integ:
            try:
                system = SystemKind.parse(integ["system"])
            except (InvalidSpecError, TypeError):
                raise SchemaError(f"{ipath}.system",
                                  f"expected full|limiting, got {integ['system']!r}")
        t_end = _number(integ, "t_end", ipath)
        if t_end is not None and t_end <= 0:
            raise SchemaError(f"{ipath}.t_end", "must be positive")
        steps = _integer(integ, "steps_per_delay", ipath, defaults.STEPS_PER_DELAY)
        if steps < 1:
            raise SchemaError(f"{ipath}.steps_per_delay", "must be >= 1")
        step = _number(integ, "step", ipath)
        if step is not None and step <= 0:
            raise SchemaError(f"{ipath}.step", "must be positive")
        stride = _integer(integ, "record_stride", ipath, defaults.RECORD_STRIDE)
        if stride < 1:
            raise SchemaError(f"{ipath}.record_stride", "must be >= 1")

    analyses = Analyses()
    if "analyses" in obj:
        ana = obj["analyses"]
        if not isinstance(ana, dict):
            raise SchemaError(f"{path}.analyses", "expected an object")
        apath = f"{path}.analyses"
        _require_keys(ana, {"simulate", "stability", "lyapunov", "persistence"},
                      apath)
        thetas: tuple[float, ...] = ()
        if "persistence" in ana:
            tl = ana["persistence"]
            if (not isinstance(tl, list)
                    or any(isinstance(x, bool) or not isinstance(x, (int, float))
                           for x in tl)):
                raise SchemaError(f"{apath}.persistence",
                                  "expected an array of numbers")
            thetas = tuple(float(x) for x in tl)
        analyses = Analyses(
            simulate=_boolean(ana, "simulate", apath, True),
            stability=_boolean(ana, "stability", apath, True),
            lyapunov=_boolean(ana, "lyapunov", apath, False),
            persistence=thetas,
        )

    out_dir = "out"
    if "output" in obj:
        out = obj["output"]
        if not isinstance(out, dict):
            raise SchemaError(f"{path}.output", "expected an object")
        opath = f"{path}.output"
        _require_keys(out, {"dir", "formats"}, opath)
        if "dir" in out:
            if not isinstance(out["dir"], str) or not out["dir"]:
                raise SchemaError(f"{opath}.dir", "expected a nonempty string")
            out_dir = out["dir"]
        if "formats" in out:
            fm = out["formats"]
            if not isinstance(fm, list) or any(f != "csv" for f in fm):
                raise SchemaError(f"{opath}.formats", "only [\"csv\"] is supported")

    return Scenario(params=params, history=history, system=system, t_end=t_end,
                    steps_per_delay=steps, step=step, record_stride=stride,
                    analyses=analyses, out_dir=out_dir)


def _load_json(path: str, what: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(what, f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(what, f"invalid JSON in {path}: {exc}") from None


def load_scenario(path: str) -> Scenario:
    return _parse_scenario_dict(_load_json(path, "scenario"))


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    axis: str
    values: tuple[float, ...]
    columns: tuple[str, ...]


def _parse_sweep_dict(obj: Any) -> SweepSpec:
    if not isinstance(obj, dict):
        raise SchemaError("sweep", "expected a JSON object")
    _require_keys(obj, {"schema", "base", "axis", "values", "columns"}, "sweep")
    _check_schema_version(obj, "sweep", required=True)
    if "base" not in obj:
        raise SchemaError("sweep.base", "missing")
    base = _parse_scenario_dict(obj["base"], "sweep.base", schema_required=False)
    axis = obj.get("axis")
    if axis not in PARAM_FIELDS:
        raise SchemaError("sweep.axis",
                          f"expected one of {'/'.join(PARAM_FIELDS)}, got {axis!r}")
    values = obj.get("values")
    if not isinstance(values, list) or not values:
        raise SchemaError("sweep.values", "expected a nonempty array")
    out_values = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"sweep.values[{i}]", f"expected a number, got {v!r}")
        v = float(v)
        if axis == "tau":
            if v < 0:
                raise SchemaError(f"sweep.values[{i}]", "tau must be >= 0")
        elif v <= 0:
            raise SchemaError(f"sweep.values[{i}]", f"{axis} must be positive")
        out_values.append(v)

    columns: list[str] = []
    raw_cols = obj.get("columns", list(DEFAULT_SWEEP_COLUMNS))
    if not isinstance(raw_cols, list):
        raise SchemaError("sweep.columns", "expected an array of column names")
    for c in raw_cols:
        if c in _COLUMN_ALIASES:
            columns.extend(_COLUMN_ALIASES[c])
        elif c in SWEEP_COLUMNS:
            columns.append(c)
        else:
            raise SchemaError("sweep.columns", f"unknown column {c!r}")

    return SweepSpec(base=base, axis=axis, values=tuple(out_values),
                     columns=tuple(columns))


def load_sweep(path: str) -> SweepSpec:
    return _parse_sweep_dict(_load_json(path, "sweep"))


# ---------------------------------------------------------------- running

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _equilibria_lines(p: ModelParams) -> list[str]:
    eq = equilibrium_set(p)
    lines = [f"r0 = {_fmt(eq.r0)}",
             f"r0_squared = {_fmt(r0_squared(p))}"]
    for name in ("s_h", "i_h", "s_v", "i_v"):
        lines.append(f"e0.{name} = {_fmt(getattr(eq.e0, name))}")
    if eq.e_star is None:
        lines.append("e_star.exists = false")
    else:
        lines.append("e_star.exists = true")
        for name in ("s_h", "i_h", "s_v", "i_v"):
            lines.append(f"e_star.{name} = {_fmt(getattr(eq.e_star, name))}")
    return lines


def run_scenario(scn: Scenario, out_dir: str | None = None, quiet: bool = False,
                 seed: int = 0, only: str | None = None) -> list[str]:
    """Execute a scenario and return the report lines.

    Each distinct IntegrationSpec is integrated once and shared: simulate
    reads the scenario's own spec, persistence the spec with system FULL and
    record_stride 1, Lyapunov the spec with system LIMITING and
    record_stride 1.

    `only` restricts the work to one section ("stability", "lyapunov" or
    "persistence") and suppresses file artifacts; otherwise artifacts go to
    out_dir (CLI --out overrides the scenario's own output.dir).
    """
    p = scn.params
    rng = np.random.default_rng(seed)
    target = out_dir if out_dir is not None else scn.out_dir
    write_files = only is None
    lines = _equilibria_lines(p)

    do_stability = scn.analyses.stability if only is None else only == "stability"
    do_simulate = scn.analyses.simulate and only is None
    do_lyapunov = scn.analyses.lyapunov if only is None else only == "lyapunov"
    thetas = scn.analyses.persistence
    if only == "persistence" and not thetas:
        thetas = (defaults.DEFAULT_THETA,)
    elif only is not None and only != "persistence":
        thetas = ()

    if do_stability:
        lines.extend(classify(p, EquilibriumKind.DISEASE_FREE).as_lines())
        try:
            lines.extend(classify(p, EquilibriumKind.ENDEMIC).as_lines())
        except EndemicAbsentError:
            lines.append("stability.e_star.classification = absent")

    phi = None
    if do_simulate or do_lyapunov or thetas:
        phi = scn.history.build(p, rng)
    spec = scn.integration_spec()
    runs: dict[IntegrationSpec, Trajectory] = {}

    def run(key: IntegrationSpec) -> Trajectory:
        if key not in runs:
            runs[key] = integrate(p, phi, key)
        return runs[key]

    if do_simulate:
        traj = run(spec)
        lines.append(f"trajectory.t_end = {_fmt(traj.t_end)}")
        lines.append(f"trajectory.nodes = {traj.times.size}")
        tail = tail_stats(traj, defaults.TAIL_WINDOW)
        for name in ("s_h", "i_h", "s_v", "i_v"):
            lines.append(f"tail.{name}.inf = {_fmt(getattr(tail.inf, name))}")
            lines.append(f"tail.{name}.sup = {_fmt(getattr(tail.sup, name))}")
        if write_files:
            os.makedirs(target, exist_ok=True)
            csv_path = os.path.join(target, "trajectory.csv")
            traj.to_csv(csv_path)
            lines.append(f"trajectory.file = {csv_path}")

    if do_lyapunov:
        kind = (FunctionalKind.V_DFE if r0_squared(p) <= 1.0
                else FunctionalKind.V_ENDEMIC)
        trace = trace_along(p, run(replace(spec, system=SystemKind.LIMITING,
                                           record_stride=1)), kind)
        lines.append(f"lyapunov.kind = {kind.value}")
        lines.append(f"lyapunov.v_first = {_fmt(float(trace.values[0]))}")
        lines.append(f"lyapunov.v_last = {_fmt(float(trace.values[-1]))}")
        lines.append(f"lyapunov.max_increase = {_fmt(trace.max_increase)}")
        lines.append(f"lyapunov.descends = {str(trace.passes_descent()).lower()}")
        if write_files:
            os.makedirs(target, exist_ok=True)
            lya_path = os.path.join(target, "lyapunov.csv")
            trace.to_csv(lya_path)
            lines.append(f"lyapunov.file = {lya_path}")

    for theta in thetas:
        full = run(replace(spec, system=SystemKind.FULL, record_stride=1))
        lines.extend(weak_persistence_check(p, full, theta).as_lines())

    if write_files:
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "report.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    return lines


def _sweep_row(sweep: SweepSpec, value: float, seed: int) -> dict[str, str]:
    scn = sweep.base
    p = validate_params(replace(scn.params, **{sweep.axis: value}))
    row: dict[str, str] = {}
    star = endemic_equilibrium(p)
    for col in sweep.columns:
        if col == "r0":
            row[col] = _fmt(basic_reproduction_number(p))
        elif col == "r0_squared":
            row[col] = _fmt(r0_squared(p))
        elif col == "classification_e0":
            row[col] = classify(p, EquilibriumKind.DISEASE_FREE).classification.value
        elif col == "classification_e_star":
            row[col] = ("absent" if star is None else
                        classify(p, EquilibriumKind.ENDEMIC).classification.value)
        elif col in _STAR_COLUMNS:
            name = col[:-5]  # strip _star
            row[col] = "" if star is None else _fmt(getattr(star, name))
        elif col in _TAIL_COLUMNS:
            if "tail" not in row:  # integrate once, cache all tail cells
                phi = scn.history.build(p, np.random.default_rng(seed))
                spec = replace(scn, params=p).integration_spec()
                tail = tail_stats(integrate(p, phi, spec), defaults.TAIL_WINDOW)
                for name in ("s_h", "i_h", "s_v", "i_v"):
                    row[f"tail_{name}_inf"] = _fmt(getattr(tail.inf, name))
                    row[f"tail_{name}_sup"] = _fmt(getattr(tail.sup, name))
                row["tail"] = "done"
        else:  # pragma: no cover - column set is validated at load time
            raise SchemaError("sweep.columns", f"unknown column {col!r}")
    row.pop("tail", None)
    return row


def run_sweep(sweep: SweepSpec, out_dir: str | None = None, quiet: bool = False,
              seed: int = 0) -> str:
    """Run every row, write <out>/sweep.csv, return its path."""
    target = out_dir if out_dir is not None else sweep.base.out_dir
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, "sweep.csv")
    header = [sweep.axis, *sweep.columns, "error"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for value in sweep.values:
            cells = [_fmt(value)]
            try:
                row = _sweep_row(sweep, value, seed)
                cells.extend(row.get(c, "") for c in sweep.columns)
                cells.append("")
            except ModelError as exc:
                cells.extend("" for _ in sweep.columns)
                text = f"error: {exc}".replace('"', '""')
                cells.append(f'"{text}"')
            fh.write(",".join(cells) + "\n")
    if not quiet:
        print(f"sweep.file = {path}")
        print(f"sweep.rows = {len(sweep.values)}")
    return path
