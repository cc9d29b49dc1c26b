"""Scenario and sweep files: the batch surface behind the CLI.

A scenario is one JSON object (schema 1):

    {
      "schema": 1,
      "params": {"beta_h": 2, "beta_v": 5, "mu_h": 0.5, "mu_v": 0.1,
                 "c_vh": 0.2, "c_hv": 0.1, "tau": 1.0},
      "history": {"kind": "constant", "state": [3, 0.5, 30, 5]},
      "integration": {"system": "full", "t_end": 400, "steps_per_delay": 20},
      "analyses": {"simulate": true, "stability": true,
                   "lyapunov": false, "persistence": [0.5]},
      "output": {"dir": "out", "formats": ["csv"]}
    }

history.kind may also be "table" (times from -tau to 0 plus states arrays)
or "random" (constant history drawn once from the seeded generator:
S-components uniform in [0.2, 2] x the disease-free pool, I-components
uniform in [0.01, 1] x the same scale). schema, params and history are
required; an omitted key keeps its Scenario / IntegrationSpec / Analyses
default. Unknown keys are rejected so typos surface as SchemaError instead
of silently running defaults. Numbers must be finite (Python's json accepts
NaN and Infinity), the six rates strictly positive, tau >= 0, persistence
fractions strictly inside (0, 1) and distinct, and a table history must span
params.tau. Every mesh node is recorded, so integration.record_stride is
accepted only as the integer 1, as output.formats is only ["csv"].

A sweep wraps a base scenario, an axis (one parameter name), the values to
visit in order, and the derived columns to tabulate (no column twice, once
the groups are expanded). Each value is checked at
load by the rule of params.<axis>. Rows are independent; a failing row
records an error marker and the sweep carries on. Rows that integrate (tail
columns) run in forked workers on every CPU os.sched_getaffinity allows, and
sweep.csv is the same bytes as a run on one CPU.
"""

from __future__ import annotations

import contextlib
import json
import marshal
import math
import numbers
import os
import threading
from dataclasses import dataclass, replace
from typing import Any, Callable

from . import defaults
from .equilibria import endemic_equilibrium, equilibrium_set, r0_squared
from .errors import InvalidSpecError, ModelError, SchemaError, SubcriticalR0Error
from .integrator import IntegrationSpec, SystemKind, Trajectory, integrate, tail_stats
from .lyapunov import trace_along
from .model import COMPONENT_NAMES, HistorySegment, ModelParams, _finite_real, _spans, np
from .persistence import _require_preconditions, weak_persistence_check
from .stability import EquilibriumKind, classify

SCHEMA_VERSION = 1

PARAM_FIELDS = ("beta_h", "beta_v", "mu_h", "mu_v", "c_vh", "c_hv", "tau")

_STAR_COLUMNS = ("s_h_star", "i_h_star", "s_v_star", "i_v_star")
_TAIL_COLUMNS = tuple(f"tail_{c}_{b}" for c in COMPONENT_NAMES
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

    def build(self, p: ModelParams, seed: int) -> HistorySegment:
        """The history for p; a random one is drawn from numpy's generator
        seeded with seed, the only kind that loads numpy."""
        if self.kind == "constant":
            return HistorySegment.constant(self.state, p.tau)
        if self.kind == "table":
            return HistorySegment.table(self.times, self.states)
        rng = np.random.default_rng(seed)
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
    integration: IntegrationSpec = IntegrationSpec()
    analyses: Analyses = Analyses()
    out_dir: str = "out"


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    axis: str
    values: tuple[float, ...]
    columns: tuple[str, ...]


# ---------------------------------------------------------------- loading
#
# One table, _FIELDS: section -> key -> rule. A rule takes (value, field path)
# and returns the value to keep or raises SchemaError at that field, so every
# JSON value is checked once, at load. A key left out is not passed on.

_Rule = Callable[[Any, str], Any]


def _any(v: Any, field: str) -> Any:
    return v


def _finite(v: Any, field: str) -> float:
    if not _finite_real(v):
        raise SchemaError(field, f"expected a finite number, got {v!r}")
    return float(v)


def _finite_where(test: Callable[[float], bool], msg: str) -> _Rule:
    def rule(v: Any, field: str) -> float:
        x = _finite(v, field)
        if not test(x):
            raise SchemaError(field, f"{msg}, got {x!r}")
        return x

    return rule


_positive = _finite_where(lambda x: x > 0, "must be strictly positive")
_nonnegative = _finite_where(lambda x: x >= 0, "must be >= 0")
_theta = _finite_where(lambda x: 0 < x < 1, "theta must lie strictly inside (0, 1)")


def _distinct(items: tuple, field: str) -> tuple:
    """items, unless one of them is given twice."""
    for i, x in enumerate(items):
        if x in items[:i]:
            raise SchemaError(field, f"{x!r} is given twice")
    return items


def _count(v: Any, field: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise SchemaError(field, f"expected an integer >= 1, got {v!r}")
    return v


def _boolean(v: Any, field: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError(field, f"expected a boolean, got {v!r}")
    return v


def _array(item: _Rule, size: int | None = None, nonempty: bool = False) -> _Rule:
    """A JSON array, of exactly `size` items if given, whose items all pass
    `item`; an item's error is reported at the array's field."""
    shape = (f"an array of {size}" if size is not None
             else "a nonempty array" if nonempty else "an array")

    def rule(v: Any, field: str) -> tuple:
        if (not isinstance(v, list) or (size is not None and len(v) != size)
                or (nonempty and not v)):
            raise SchemaError(field, f"expected {shape}")
        return tuple(item(x, field) for x in v)

    return rule


def _system(v: Any, field: str) -> SystemKind:
    try:
        return SystemKind(v)
    except ValueError:
        raise SchemaError(field, f"expected full|limiting, got {v!r}") from None


def _text(v: Any, field: str) -> str:
    if not isinstance(v, str) or not v:
        raise SchemaError(field, "expected a nonempty string")
    return v


def _formats(v: Any, field: str) -> tuple[str, ...]:
    if v != ["csv"]:
        raise SchemaError(field, "only [\"csv\"] is supported")
    return ("csv",)


def _one(v: Any, field: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v != 1:
        raise SchemaError(field, f"only 1 is supported (every node is recorded), "
                                 f"got {v!r}")
    return v


def _integration(**kw: Any) -> IntegrationSpec:
    """The integration section's spec; its record_stride, if given, is 1."""
    kw.pop("record_stride", None)
    return IntegrationSpec(**kw)


def _version(v: Any, field: str) -> int:
    if isinstance(v, bool) or v != SCHEMA_VERSION:
        raise SchemaError(field, f"unsupported version {v!r}")
    return SCHEMA_VERSION


def _axis(v: Any, field: str) -> str:
    if v not in PARAM_FIELDS:
        raise SchemaError(field,
                          f"expected one of {'/'.join(PARAM_FIELDS)}, got {v!r}")
    return v


def _columns(v: Any, field: str) -> tuple[str, ...]:
    if not isinstance(v, list):
        raise SchemaError(field, "expected an array of column names")
    out: list[str] = []
    for c in v:
        if not isinstance(c, str) or (c not in _COLUMN_ALIASES
                                      and c not in SWEEP_COLUMNS):
            raise SchemaError(field, f"unknown column {c!r}")
        out.extend(_COLUMN_ALIASES.get(c, (c,)))
    return _distinct(tuple(out), field)


def _object(name: str, build: Callable[..., Any] = dict) -> _Rule:
    """A nested section, built from its checked keys."""
    return lambda v, field: build(**_section(v, name, field))


def _history(v: Any, field: str) -> HistorySpec:
    """One of the history.<kind> sections, picked by its kind."""
    if not isinstance(v, dict):
        raise SchemaError(field, "expected an object")
    kind = v.get("kind")
    if kind not in ("constant", "table", "random"):
        raise SchemaError(f"{field}.kind",
                          f"expected constant|table|random, got {kind!r}")
    spec = HistorySpec(**_section(v, f"history.{kind}", field))
    if kind == "table" and len(spec.states) != len(spec.times):
        raise SchemaError(f"{field}.states", "expected len(times) rows of 4")
    return spec


_FIELDS: dict[str, dict[str, _Rule]] = {
    "scenario": {"schema": _version, "params": _object("params", ModelParams),
                 "history": _history,
                 "integration": _object("integration", _integration),
                 "analyses": _object("analyses", Analyses),
                 "output": _object("output")},
    "params": {**dict.fromkeys(PARAM_FIELDS[:-1], _positive), "tau": _nonnegative},
    "history.constant": {"kind": _any, "state": _array(_finite, 4)},
    "history.table": {"kind": _any, "times": _array(_finite, nonempty=True),
                      "states": _array(_array(_finite, 4))},
    "history.random": {"kind": _any},
    "integration": {"system": _system, "t_end": _positive,
                    "steps_per_delay": _count, "step": _positive,
                    "record_stride": _one},
    "analyses": {"simulate": _boolean, "stability": _boolean,
                 "lyapunov": _boolean,
                 "persistence": lambda v, f: _distinct(_array(_theta)(v, f), f)},
    "output": {"dir": _text, "formats": _formats},
    # each value is checked by the rule of params.<axis> once the axis is known
    "sweep": {"schema": _version,
              "base": lambda v, field: _scenario(v, "sweep.base", field),
              "axis": _axis, "values": _array(_any, nonempty=True),
              "columns": _columns},
}
_FIELDS["sweep.base"] = _FIELDS["scenario"]

_REQUIRED: dict[str, tuple[str, ...]] = {
    "scenario": ("schema", "params", "history"),
    "sweep.base": ("params", "history"),
    "params": PARAM_FIELDS,
    "history.constant": ("state",),
    "history.table": ("times", "states"),
    "sweep": ("schema", "base", "axis", "values"),
}


def _section(obj: Any, name: str, path: str) -> dict[str, Any]:
    """Check that obj is an object with no unknown keys and every required
    key, and return each present key's value as its rule keeps it."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    rules = _FIELDS[name]
    for key in obj:
        if key not in rules:
            raise SchemaError(f"{path}.{key}", "unknown key")
    out = {}
    for key, rule in rules.items():
        if key in obj:
            out[key] = rule(obj[key], f"{path}.{key}")
        elif key in _REQUIRED.get(name, ()):
            raise SchemaError(f"{path}.{key}", "missing")
    return out


def _scenario(obj: Any, name: str, path: str) -> Scenario:
    s = _section(obj, name, path)
    params, history = s["params"], s["history"]
    if history.kind == "table":
        span = -history.times[0]
        if not _spans(span, params.tau):
            raise SchemaError(f"{path}.history.times",
                              f"span {span!r} differs from params.tau = "
                              f"{params.tau!r}")
    return Scenario(params=params, history=history,
                    integration=s.get("integration", Scenario.integration),
                    analyses=s.get("analyses", Scenario.analyses),
                    out_dir=s.get("output", {}).get("dir", Scenario.out_dir))


def _load_json(path: str, what: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(what, f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, encoding or nesting
        raise SchemaError(what, f"invalid JSON in {path}: {exc}") from None


def load_scenario(path: str) -> Scenario:
    return _scenario(_load_json(path, "scenario"), "scenario", "scenario")


def load_sweep(path: str) -> SweepSpec:
    s = _section(_load_json(path, "sweep"), "sweep", "sweep")
    rule = _FIELDS["params"][s["axis"]]
    values = tuple(rule(v, f"sweep.values[{i}]") for i, v in enumerate(s["values"]))
    return SweepSpec(base=s["base"], axis=s["axis"], values=values,
                     columns=s.get("columns", DEFAULT_SWEEP_COLUMNS))


# ---------------------------------------------------------------- running

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _equilibria_lines(p: ModelParams) -> list[str]:
    eq = equilibrium_set(p)
    lines = [f"r0 = {_fmt(eq.r0)}",
             f"r0_squared = {_fmt(r0_squared(p))}"]
    for name in COMPONENT_NAMES:
        lines.append(f"e0.{name} = {_fmt(getattr(eq.e0, name))}")
    if eq.e_star is None:
        lines.append("e_star.exists = false")
    else:
        lines.append("e_star.exists = true")
        for name in COMPONENT_NAMES:
            lines.append(f"e_star.{name} = {_fmt(getattr(eq.e_star, name))}")
    return lines


def _check_seed(seed: Any) -> None:
    # numpy registers its integers with numbers.Integral; np.integer would load numpy
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidSpecError(f"seed must be an integer >= 0, got {seed!r}")


def run_scenario(scn: Scenario, out_dir: str | None = None, seed: int = 0,
                 only: str | None = None) -> list[str]:
    """Execute a scenario and return the report lines.

    `only` ("stability", "lyapunov" or "persistence") narrows the Analyses to
    that section (persistence at DEFAULT_THETA if the scenario names no
    fraction) and writes no files. Otherwise report.txt and the CSVs go to
    out_dir (default: the scenario's output.dir) in one block after the last
    analysis, so a run that fails writes nothing. Each distinct
    IntegrationSpec is integrated once: simulate reads the scenario's spec,
    persistence it with system FULL, Lyapunov with system LIMITING.
    """
    _check_seed(seed)
    a = scn.analyses
    target = scn.out_dir if out_dir is None else out_dir
    if only is not None:
        a = Analyses(simulate=False, stability=only == "stability",
                     lyapunov=only == "lyapunov",
                     persistence=((a.persistence or (defaults.DEFAULT_THETA,))
                                  if only == "persistence" else ()))
        target = None
    p = scn.params
    lines = _equilibria_lines(p)
    artifacts: list[tuple[str, Any]] = []  # (path, object with to_csv)

    def artifact(key: str, obj: Any) -> None:  # <key>.csv, written at the end
        if target is not None:
            artifacts.append((os.path.join(target, f"{key}.csv"), obj))
            lines.append(f"{key}.file = {artifacts[-1][0]}")

    if a.stability:
        lines.extend(classify(p, EquilibriumKind.DISEASE_FREE).as_lines())
        try:
            lines.extend(classify(p, EquilibriumKind.ENDEMIC).as_lines())
        except SubcriticalR0Error:
            lines.append("stability.e_star.classification = absent")

    phi = None
    if a.simulate or a.lyapunov or a.persistence:
        phi = scn.history.build(p, seed)
    spec = scn.integration
    runs: dict[IntegrationSpec, Trajectory] = {}

    def run(key: IntegrationSpec) -> Trajectory:
        if key not in runs:
            runs[key] = integrate(p, phi, key)
        return runs[key]

    if a.simulate:
        traj = run(spec)
        lines.append(f"trajectory.t_end = {_fmt(traj.t_end)}")
        lines.append(f"trajectory.nodes = {traj.nodes}")
        tail = tail_stats(traj)
        for name in COMPONENT_NAMES:
            lines.append(f"tail.{name}.inf = {_fmt(getattr(tail.inf, name))}")
            lines.append(f"tail.{name}.sup = {_fmt(getattr(tail.sup, name))}")
        artifact("trajectory", traj)

    if a.lyapunov:
        trace = trace_along(p, run(replace(spec, system=SystemKind.LIMITING)))
        lines.append(f"lyapunov.kind = {trace.kind.value}")
        lines.append(f"lyapunov.v_first = {_fmt(float(trace.values[0]))}")
        lines.append(f"lyapunov.v_last = {_fmt(float(trace.values[-1]))}")
        lines.append(f"lyapunov.max_increase = {_fmt(trace.max_increase)}")
        lines.append(f"lyapunov.descends = {str(trace.passes_descent()).lower()}")
        artifact("lyapunov", trace)

    for theta in a.persistence:
        _require_preconditions(p, phi, theta)  # before the full run
        full = run(replace(spec, system=SystemKind.FULL))
        lines.extend(weak_persistence_check(p, full, theta).as_lines())

    if target is not None:
        _write_out(target, artifacts, "report.txt", lines)
    return lines


def _write_out(target: str, artifacts: list[tuple[str, Any]], name: str,
               lines: list[str]) -> str:
    """Make target, write each (path, object with to_csv), then `lines` to
    target/name, and return that path. Each file is written under a staged
    name, <path>.part, and all are renamed into place only after the last
    write succeeds, so a failed write leaves the earlier run's files as they
    were. An OSError removes what was staged and is SchemaError("output.dir")."""
    path = os.path.join(target, name)
    finals: list[str] = []  # each staged as final + ".part"
    try:
        os.makedirs(target, exist_ok=True)
        for final, obj in artifacts:
            finals.append(final)
            obj.to_csv(final + ".part")
        finals.append(path)
        with open(path + ".part", "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for final in finals:
            os.replace(final + ".part", final)
    except OSError as exc:
        for final in finals:
            with contextlib.suppress(OSError):
                os.remove(final + ".part")
        raise SchemaError("output.dir", f"cannot write {target}: {exc}") from None
    return path


def _sweep_row(sweep: SweepSpec, value: float, seed: int) -> dict[str, str]:
    scn = sweep.base
    p = replace(scn.params, **{sweep.axis: value})
    row: dict[str, str] = {}
    tail = None
    r2 = r0_squared(p)
    star = endemic_equilibrium(p)
    for col in sweep.columns:
        if col == "r0":
            row[col] = _fmt(math.sqrt(r2))
        elif col == "r0_squared":
            row[col] = _fmt(r2)
        elif col == "classification_e0":
            row[col] = classify(p, EquilibriumKind.DISEASE_FREE).classification.value
        elif col == "classification_e_star":
            row[col] = ("absent" if star is None else
                        classify(p, EquilibriumKind.ENDEMIC).classification.value)
        elif col in _STAR_COLUMNS:
            name = col[:-5]  # strip _star
            row[col] = "" if star is None else _fmt(getattr(star, name))
        elif col in _TAIL_COLUMNS:
            if tail is None:  # integrate once, fill all tail cells
                phi = scn.history.build(p, seed)
                tail = tail_stats(integrate(p, phi, scn.integration))
                for name in COMPONENT_NAMES:
                    row[f"tail_{name}_inf"] = _fmt(getattr(tail.inf, name))
                    row[f"tail_{name}_sup"] = _fmt(getattr(tail.sup, name))
        else:  # pragma: no cover - column set is validated at load time
            raise SchemaError("sweep.columns", f"unknown column {col!r}")
    return row


def _row_line(sweep: SweepSpec, value: float, seed: int) -> str:
    """The row's CSV line; a ModelError or ArithmeticError is its error cell."""
    try:
        row, error = _sweep_row(sweep, value, seed), ""
    except (ModelError, ArithmeticError) as exc:  # e.g. rates that underflow
        text = f"error: {exc}".replace('"', '""')
        row, error = {}, f'"{text}"'
    return ",".join([_fmt(value), *(row.get(c, "") for c in sweep.columns), error])


def _workers() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _worker(sweep: SweepSpec, values: tuple[float, ...], seed: int, fd: int) -> None:
    """In a forked worker: marshal the rows' lines, or the pickled error that
    stopped them, to fd, and leave by os._exit (no stdio flush, no atexit)."""
    code = 1
    try:
        try:
            msg = marshal.dumps((True, [_row_line(sweep, v, seed) for v in values]))
        except BaseException as exc:
            import pickle
            try:
                pickle.loads(blob := pickle.dumps(exc))
            except Exception:
                blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            msg = marshal.dumps((False, blob))
        with open(fd, "wb") as fh:
            fh.write(msg)
        code = 0
    finally:
        os._exit(code)


def _sweep_lines(sweep: SweepSpec, seed: int) -> list[str]:
    """Every row's line, in row order. Rows that integrate (tail columns) are
    split across n = min(_workers(), rows) processes: this one runs rows 0, n,
    2n, ..., and forked worker w rows w, w + n, .... A worker's rows run here
    if it ends without a result, and its error is raised once all are reaped."""
    values = sweep.values
    n = min(_workers(), len(values)) if set(_TAIL_COLUMNS) & set(sweep.columns) else 1
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_row_line(sweep, v, seed) for v in values]
    if sweep.base.history.kind == "random":
        np.random  # load numpy once here, not in every worker
    lines = [""] * len(values)
    kids: list[tuple[int, int, Any]] = []  # (w, pid, read end of its pipe)
    got: dict[int, bytes] = {}
    try:
        for w in range(1, n):
            r, fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # e.g. no process ids left: the rows run here
                os.close(r)
                os.close(fd)
                break
            if pid == 0:
                _worker(sweep, values[w::n], seed, fd)
            os.close(fd)  # open only in the worker, so its death reads as EOF
            kids.append((w, pid, open(r, "rb")))
        lines[::n] = [_row_line(sweep, v, seed) for v in values[::n]]
        got = {w: fh.read() for w, _, fh in kids}
    finally:
        for w, pid, fh in kids:
            fh.close()
            if w not in got:  # this process failed first
                os.kill(pid, 9)  # SIGKILL
            if os.waitpid(pid, 0)[1]:
                got.pop(w, None)
    for w in range(1, n):
        ok, part = marshal.loads(got[w]) if w in got else (True, None)
        if not ok:
            import pickle
            raise pickle.loads(part)
        lines[w::n] = part or [_row_line(sweep, v, seed) for v in values[w::n]]
    return lines


def run_sweep(sweep: SweepSpec, out_dir: str | None = None, seed: int = 0) -> str:
    """Run every row, then write <out>/sweep.csv and return its path. A row's
    ModelError or ArithmeticError is its error cell; any other failure writes
    nothing. Rows with tail columns run in forked workers on every CPU
    os.sched_getaffinity allows, with the same output as on one CPU."""
    _check_seed(seed)
    lines = [",".join([sweep.axis, *sweep.columns, "error"]),
             *_sweep_lines(sweep, seed)]
    target = out_dir if out_dir is not None else sweep.base.out_dir
    return _write_out(target, [], "sweep.csv", lines)
