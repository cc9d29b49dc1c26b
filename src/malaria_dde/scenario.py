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
default. At load the loader checks form (unknown keys, so typos surface as
SchemaError; JSON types and shapes; finite numbers, as Python's json accepts
NaN and Infinity); the records check meaning, at the field each error names:
ModelParams, IntegrationSpec, _require_theta, and HistorySegment and its span
rule for a constant or table history (a random one is drawn at run time).
As every mesh node is recorded, record_stride is only 1; formats only ["csv"].

A sweep wraps a base scenario, an axis (one parameter name), the values to
visit in order, and the derived columns to tabulate (no column twice, once
the groups are expanded). Each value is checked at load by ModelParams as
params.<axis>. One table (_GROUPS) gives each column its cell and its needs:
R0^2 and E* (r0, r0_squared, classification and e_star), E*'s finiteness
check (e_star) and the node-less run (tail); error_class needs none. A sweep
plans its rows once: a row runs each need its columns ask for once, R0^2
and E* first, the others in the order of the first column that asks for
each, then reads its cells. Cells cannot raise, so a row raises as if each
need ran at its first cell, and a row that asks for no need computes none.
The classification cells read G(0) alone (stability._g0): no root search.
A row that raises a ModelError or ArithmeticError records an error marker
(and its class name in the opt-in error_class column) and the sweep
carries on. A sweep whose plan needs the run splits its rows across forked
workers (_sweep_lines), and sweep.csv is the same bytes as a run on one
CPU.

A scenario run that simulates the full system with Lyapunov on runs the
Lyapunov section in one forked child on two or more CPUs (run_scenario).
Each hand-off has one form, forked or not: _fork marshals what its call
returns, _Child.result() loads it, and every artifact is its text, a (file
name, strings) pair that _write_out writes.
"""

from __future__ import annotations

import contextlib
import json
import marshal
import math
import numbers
import os
import threading
import types
from collections import namedtuple
from typing import IO, Any, Callable

from . import defaults
from .equilibria import _finite_star, disease_free_equilibrium, endemic_equilibrium, r0_squared
from .errors import InvalidSpecError, ModelError, SchemaError, SubcriticalR0Error, ValidationError
from .integrator import (IntegrationSpec, SystemKind, Trajectory, _integrate, integrate, mesh,
                         tail_stats)
from .lyapunov import _require_divisors, _traceable, trace_along
from .model import COMPONENT_NAMES, HistorySegment, ModelParams, _finite_real, _fmt, _require_span
from .persistence import _require_preconditions, _require_theta, weak_persistence_check
from .stability import EquilibriumKind, _classification, _g0, classify

SCHEMA_VERSION = 1

PARAM_FIELDS = ModelParams._fields


class HistorySpec(namedtuple("HistorySpec", "kind state times states",
                             defaults=(None, None, None))):
    """history.kind (constant | table | random) and its section's arrays as
    tuples: state for constant, times and states for table."""

    __slots__ = ()

    def build(self, p: ModelParams, seed: int) -> HistorySegment:
        """The history for p; a random one takes the first four draws of
        numpy's default_rng(seed).uniform, made by _uniform without numpy."""
        if self.kind == "constant":
            return HistorySegment.constant(self.state, p.tau)
        if self.kind == "table":
            return HistorySegment.table(self.times, self.states)
        uniform = _uniform(seed)
        draw = (uniform(0.2, 2.0) * p.s_h0,
                uniform(0.01, 1.0) * p.s_h0,
                uniform(0.2, 2.0) * p.s_v0,
                uniform(0.01, 1.0) * p.s_v0)
        return HistorySegment.constant(draw, p.tau)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(8) (pool size 4): eight
    32-bit words hashed from the seed's 32-bit words, low word first."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    words, hash_b = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        words.append(value ^ value >> 16)
    return words


def _uniform(seed: int) -> Callable[[float, float], float]:
    """numpy's default_rng(seed).uniform, draw for draw: PCG64 (128-bit LCG,
    XSL-RR output) seeded from _seed_words, doubles (x >> 11) * 2**-53,
    scaled as low + (high - low) * u. O'Neill, "PCG: A Family of Simple Fast
    Space-Efficient Statistically Good Algorithms for Random Number
    Generation", HMC-CS-2014-0905."""
    w = _seed_words(int(seed))
    u64 = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _M128
    # from state 0: one step (state = inc), add the seed's 128 bits, one step
    state = ((inc + (u64[0] << 64 | u64[1])) * _PCG64_MULT + inc) & _M128

    def uniform(low: float, high: float) -> float:
        nonlocal state
        state = (state * _PCG64_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        return low + (high - low) * ((x >> 11) * (1.0 / 9007199254740992.0))

    return uniform


class Analyses(namedtuple("Analyses", "simulate stability lyapunov persistence",
                          defaults=(True, True, False, ()))):
    __slots__ = ()


class Scenario(namedtuple("Scenario", "params history integration analyses out_dir",
                          defaults=(IntegrationSpec(), Analyses(), "out"))):
    __slots__ = ()


class SweepSpec(namedtuple("SweepSpec", "base axis values columns")):
    __slots__ = ()


# ---------------------------------------------------------------- loading
#
# One table, _FIELDS: section -> key -> rule. A rule takes (value, field path),
# checks its form, and returns the value to keep or raises SchemaError there;
# its record checks its meaning (_judged). A key left out is not passed on.

_Rule = Callable[[Any, str], Any]


def _any(v: Any, field: str) -> Any:
    return v


def _finite(v: Any, field: str) -> float:
    if not _finite_real(v):
        raise SchemaError(field, f"expected a finite number, got {v!r}")
    return float(v)


def _judged(field: str, record: Callable[..., Any], *args: Any, **kw: Any) -> Any:
    """record(*args, **kw); a ValidationError is a SchemaError at field.<its name>, or field."""
    try:
        return record(*args, **kw)
    except ValidationError as exc:
        raise SchemaError(f"{field}.{exc.name}" if exc.name else field, str(exc)) from None


def _distinct(items: tuple, field: str) -> tuple:
    """items, unless one of them is given twice."""
    for i, x in enumerate(items):
        if x in items[:i]:
            raise SchemaError(field, f"{x!r} is given twice")
    return items


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
    """A nested section, built by its record from its checked keys."""
    return lambda v, field: _judged(field, build, **_section(v, name, field))


def _history(v: Any, field: str) -> HistorySpec:
    """One of the history.<kind> sections, picked by its kind."""
    if not isinstance(v, dict):
        raise SchemaError(field, "expected an object")
    kind = v.get("kind")
    if kind not in ("constant", "table", "random"):
        raise SchemaError(f"{field}.kind",
                          f"expected constant|table|random, got {kind!r}")
    return HistorySpec(**_section(v, f"history.{kind}", field))


_FIELDS: dict[str, dict[str, _Rule]] = {
    "scenario": {"schema": _version, "params": _object("params", ModelParams),
                 "history": _history,
                 "integration": _object("integration", _integration),
                 "analyses": _object("analyses", Analyses),
                 "output": _object("output")},
    "params": dict.fromkeys(PARAM_FIELDS, _finite),
    "history.constant": {"kind": _any, "state": _array(_finite, 4)},
    "history.table": {"kind": _any, "times": _array(_finite, nonempty=True),
                      "states": _array(_array(_finite, 4))},
    "history.random": {"kind": _any},
    "integration": {"system": _system, "t_end": _finite, "steps_per_delay": _any,
                    "step": _finite, "record_stride": _one},
    "analyses": {"simulate": _boolean, "stability": _boolean, "lyapunov": _boolean,
                 "persistence": lambda v, f: _judged(
                     f, tuple, map(_require_theta, _distinct(_array(_finite)(v, f), f)))},
    "output": {"dir": _text, "formats": _formats},
    # the values are checked as params.<axis> once the axis is known
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
    if history.kind != "random":  # a random one's draws are valid by construction
        _judged(f"{path}.history", lambda: _require_span(history.build(params, 0), params.tau))
    default = Scenario._field_defaults
    return Scenario(params=params, history=history,
                    integration=s.get("integration", default["integration"]),
                    analyses=s.get("analyses", default["analyses"]),
                    out_dir=s.get("output", {}).get("dir", default["out_dir"]))


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
    """The sweep. params.<axis> holds above a bound (rate > 0, tau >= 0), so the values
    are scanned for the first bad one only if one is not finite or the least fails."""
    s = _section(_load_json(path, "sweep"), "sweep", "sweep")
    params, axis, raw = s["base"].params, s["axis"], s["values"]
    values = tuple(map(float, raw)) if all(map(_finite_real, raw)) else ()
    try:
        params._replace(**{axis: min(values, default=math.nan)})
    except ValidationError:
        for i, v in enumerate(raw):
            field = f"sweep.values[{i}]"
            x = _finite(v, field)
            try:
                params._replace(**{axis: x})
            except ValidationError as exc:
                raise SchemaError(field, str(exc)) from None
    return SweepSpec(base=s["base"], axis=axis, values=values,
                     columns=s.get("columns", DEFAULT_SWEEP_COLUMNS))


# ---------------------------------------------------------------- running

def _equilibria_lines(p: ModelParams) -> list[str]:
    """equilibrium_set's lines from one R0^2 (r0 is its sqrt, as
    basic_reproduction_number takes it)."""
    r2 = r0_squared(p)
    star = _finite_star(endemic_equilibrium(p, r2))
    lines = [f"r0 = {_fmt(math.sqrt(r2))}",
             f"r0_squared = {_fmt(r2)}"]
    for name, value in zip(COMPONENT_NAMES, disease_free_equilibrium(p)):
        lines.append(f"e0.{name} = {_fmt(value)}")
    if star is None:
        lines.append("e_star.exists = false")
    else:
        lines.append("e_star.exists = true")
        for name, value in zip(COMPONENT_NAMES, star):
            lines.append(f"e_star.{name} = {_fmt(value)}")
    return lines


def _check_seed(seed: Any) -> None:
    # numpy registers its integers with numbers.Integral; np.integer would load numpy
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidSpecError(f"seed must be an integer >= 0, got {seed!r}")


def _workers() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


class _Child:
    """A forked child whose value is the message it sends (see _fork)."""

    def __init__(self, pid: int, pipe: IO[bytes]):
        self._pid, self._pipe = pid, pipe

    def result(self) -> Any:
        """The child's value, loaded from its message; None where no complete
        marshalled value arrives (its call raised, it died, or its pipe cannot
        be read). It raises no OSError of its own, and reaps nothing."""
        try:
            with self._pipe as pipe:
                return marshal.loads(pipe.read())
        except (OSError, EOFError, ValueError, TypeError):  # marshal's three
            return None

    def stop(self) -> None:
        """Kill the child and reap it: the one reap, run on every child."""
        self._pipe.close()
        pid, self._pid = self._pid, 0
        if pid:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)  # ChildProcessError where SIGCHLD is ignored


def _fork(fn: Callable[..., Any], *args: Any) -> _Child | None:
    """Run fn(*args) in a forked child, which writes fn's value, marshalled,
    to a pipe, or writes nothing if fn raises (or its value has no marshal
    form). Either way it leaves by os._exit(0) (no stdio flush, no atexit,
    no traceback); _Child.result() loads the value and _Child.stop() reaps.
    None, with no descriptor left open, where this process has no os.fork
    or runs another thread (the child would copy none of that thread, and a
    lock it held would stay held), or where os.pipe or os.fork fails."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    ends: tuple[int, ...] = ()
    try:
        ends = r, w = os.pipe()
        pid = os.fork()
    except OSError:  # e.g. no descriptors or process ids left
        for end in ends:
            os.close(end)
        return None
    if pid == 0:
        try:
            data = marshal.dumps(fn(*args))
            with open(w, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(w)  # open only in the child, so its death reads as EOF
    return _Child(pid, open(r, "rb"))


def _strings(obj: Any) -> list[str]:
    """What obj.to_csv writes to a file, as the strings it writes, uncopied."""
    parts: list[str] = []
    obj.to_csv(types.SimpleNamespace(writelines=parts.extend))
    return parts


def run_scenario(scn: Scenario, out_dir: str | None = None, seed: int = 0,
                 only: str | None = None) -> list[str]:
    """Execute a scenario and return the report lines.

    `only` ("stability", "lyapunov" or "persistence") narrows the Analyses to
    that section (persistence at DEFAULT_THETA if the scenario names no
    fraction) and writes no files. Otherwise report.txt and the CSVs go to
    out_dir (default: the scenario's output.dir) in one block after the last
    analysis, so a run that fails writes nothing; each is kept as its
    strings until then. Each distinct IntegrationSpec is integrated once:
    simulate reads the scenario's spec, persistence it with system FULL,
    Lyapunov with system LIMITING, once the functional's divisors are checked.

    The Lyapunov section returns its report lines and lyapunov.csv's strings
    wherever it runs. On two or more CPUs, where simulate runs the full
    system and Lyapunov is on, it (the divisor check, the limiting run,
    trace_along and the CSV's strings) runs in one forked child (_fork),
    started once the history is built, where the scenario's mesh (one for
    every system, integrator.mesh) is valid and leaves a window to trace.
    This process meanwhile runs simulate and formats trajectory.csv, then
    takes the child's value at the section's place; persistence follows, as
    on one CPU. If the child sends nothing (its section raised, it died, or
    os.pipe or os.fork failed), the section runs here at its place, so the
    first failure in section order is raised as a serial run raises it. The
    child is killed and reaped however the run ends.
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
    files: list[tuple[str, list[str]]] = []

    def artifact(key: str, strings: list[str]) -> None:
        """<key>.csv, written at the end from its strings (see _write_out)."""
        if target is not None:
            files.append((f"{key}.csv", strings))
            lines.append(f"{key}.file = {os.path.join(target, files[-1][0])}")

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

    def lyapunov() -> tuple[list[str], list[str]]:
        """The Lyapunov section's report lines and lyapunov.csv's strings."""
        _require_divisors(p)  # before the limiting run
        trace = trace_along(p, run(spec._replace(system=SystemKind.LIMITING)))
        csv = [] if target is None else _strings(trace)
        return [f"lyapunov.kind = {trace.kind.value}",
                f"lyapunov.v_first = {_fmt(float(trace.values[0]))}",
                f"lyapunov.v_last = {_fmt(float(trace.values[-1]))}",
                f"lyapunov.max_increase = {_fmt(trace.max_increase)}",
                f"lyapunov.descends = {str(trace.passes_descent()).lower()}"], csv

    # the limiting run in a child while this process runs the full one, if
    # it has a window to trace; the runs share one mesh, and a mesh error is
    # raised here as simulate's run(spec) would raise it
    fork = a.lyapunov and a.simulate and spec.system is SystemKind.FULL and _workers() >= 2
    child = _fork(lyapunov) if fork and _traceable(mesh(p, phi, spec)) else None
    try:
        if a.simulate:
            traj = run(spec)
            lines.append(f"trajectory.t_end = {_fmt(traj.t_end)}")
            lines.append(f"trajectory.nodes = {traj.nodes}")
            tail = tail_stats(traj)
            for name in COMPONENT_NAMES:
                lines.append(f"tail.{name}.inf = {_fmt(getattr(tail.inf, name))}")
                lines.append(f"tail.{name}.sup = {_fmt(getattr(tail.sup, name))}")
            artifact("trajectory", _strings(traj))

        if a.lyapunov:
            section, csv = (child and child.result()) or lyapunov()
            lines.extend(section)
            artifact("lyapunov", csv)

        for theta in a.persistence:
            _require_preconditions(p, phi, theta)  # before the full run
            full = run(spec._replace(system=SystemKind.FULL))
            lines.extend(weak_persistence_check(p, full, theta).as_lines())

        if target is not None:
            _write_out(target, [*files, ("report.txt", ["\n".join(lines), "\n"])])
    finally:
        if child is not None:
            child.stop()
    return lines


def _write_out(target: str, files: list[tuple[str, list[str]]]) -> str:
    """Make target, write each (name, strings) pair to target/name, the
    strings in order, and return the last file's path. Each file is written
    under a staged name, <name>.part, and all are renamed into place only
    after the last write succeeds, so a failed write leaves the earlier
    run's files as they were. An OSError in a write removes what was staged
    and is SchemaError("output.dir")."""
    finals: list[str] = []  # each staged as final + ".part"
    try:
        os.makedirs(target, exist_ok=True)
        for name, strings in files:
            finals.append(os.path.join(target, name))
            with open(finals[-1] + ".part", "w") as fh:
                fh.writelines(strings)
        for final in finals:
            os.replace(final + ".part", final)
    except OSError as exc:
        for final in finals:
            with contextlib.suppress(OSError):
                os.remove(final + ".part")
        raise SchemaError("output.dir", f"cannot write {target}: {exc}") from None
    return finals[-1]


# ---------------------------------------------------------------- sweeps

class _Row:
    """A row's params, base scenario and seed, and what its needs set: r0
    sets r2 and star (R0^2 and E*), checked checks star's finiteness, and
    run sets tail."""

    __slots__ = ("p", "scn", "seed", "r2", "star", "tail")

    def r0(self) -> None:
        self.r2 = r0_squared(self.p)
        self.star = endemic_equilibrium(self.p, self.r2)

    def checked(self) -> None:
        self.star = _finite_star(self.star)

    def run(self) -> None:  # integrate once, storing no node
        phi = self.scn.history.build(self.p, self.seed)
        self.tail = _integrate(self.p, phi, self.scn.integration, store=False).tail

    def verdict(self, which: EquilibriumKind) -> str:
        return _classification(_g0(self.p, which, self.r2)).value


# One table: group (a shorthand, or its one column) -> column -> (cell, needs).
# A cell reads the row once its needs, drawn from _Row's three, have run.
_GROUPS = {
    "r0": {"r0": (lambda row: _fmt(math.sqrt(row.r2)), (_Row.r0,))},
    "r0_squared": {"r0_squared": (lambda row: _fmt(row.r2), (_Row.r0,))},
    "classification": {
        "classification_e0": (lambda row: row.verdict(EquilibriumKind.DISEASE_FREE), (_Row.r0,)),
        "classification_e_star": (lambda row: "absent" if row.star is None
                                  else row.verdict(EquilibriumKind.ENDEMIC), (_Row.r0,))},
    "e_star": {f"{c}_star": (lambda row, k=k: "" if row.star is None else _fmt(row.star[k]),
                             (_Row.r0, _Row.checked)) for k, c in enumerate(COMPONENT_NAMES)},
    "tail": {f"tail_{c}_{b}": (lambda row, k=k, b=b: _fmt(getattr(row.tail, b)[k]), (_Row.run,))
             for k, c in enumerate(COMPONENT_NAMES) for b in ("inf", "sup")},
    # the exception's class name on an error row (_row_line), blank otherwise
    "error_class": {"error_class": (lambda row: "", ())},
}
_CELLS = {col: entry for group in _GROUPS.values() for col, entry in group.items()}
SWEEP_COLUMNS = tuple(_CELLS)
_COLUMN_ALIASES = {name: tuple(group) for name, group in _GROUPS.items()
                   if tuple(group) != (name,)}
DEFAULT_SWEEP_COLUMNS = ("r0", *_COLUMN_ALIASES["classification"], "i_h_star")
_Plan = namedtuple("_Plan", (*SweepSpec._fields, "slot", "needs", "cells"))


def _plan(sweep: SweepSpec) -> _Plan:
    """The plan of sweep's rows: sweep's fields, the axis's slot, the needs
    in the order the module docstring gives and the cells in column order;
    sweep itself if it is a plan, so that _sweep_lines builds one a sweep."""
    if isinstance(sweep, _Plan):
        return sweep
    entries = [_CELLS[c] for c in sweep.columns]
    needs = dict.fromkeys(need for _, ns in entries for need in ns)
    return _Plan(*sweep, PARAM_FIELDS.index(sweep.axis),
                 tuple(sorted(needs, key=lambda need: need is not _Row.r0)),
                 tuple(cell for cell, _ in entries))


def _sweep_row(sweep: SweepSpec, value: float, seed: int) -> list[str]:
    """The row's cells in column order, once its plan's needs have run."""
    plan = _plan(sweep)
    fields = list(plan.base.params)
    fields[plan.slot] = value
    row = _Row()
    row.p, row.scn, row.seed = ModelParams(*fields), plan.base, seed
    for need in plan.needs:
        need(row)
    return [cell(row) for cell in plan.cells]


def _row_line(sweep: SweepSpec, value: float, seed: int) -> str:
    """The row's CSV line; a ModelError or ArithmeticError is its error cell,
    and its class name the error_class cell."""
    try:
        cells, error = _sweep_row(sweep, value, seed), ""
    except (ModelError, ArithmeticError) as exc:  # e.g. rates that underflow
        text = f"error: {exc}".replace('"', '""')
        cells = [type(exc).__name__ if c == "error_class" else "" for c in sweep.columns]
        error = f'"{text}"'
    return ",".join([_fmt(value), *cells, error])


def _rows(sweep: SweepSpec, values: tuple[float, ...], seed: int) -> list[str]:
    """The lines of the rows at values, in order; a forked worker's call too."""
    return [_row_line(sweep, v, seed) for v in values]


def _sweep_lines(sweep: SweepSpec, seed: int) -> list[str]:
    """Every row's line, in row order. Where the plan needs a run, rows are
    split across n = min(_workers(), rows) processes: this one runs rows 0, n,
    2n, ..., and forked worker w (_fork) rows w, w + n, .... One failure
    rule: if a fork fails, a worker returns nothing (a row raised, or it
    died) or a row of this process raises, every worker is reaped and all
    rows run here in row order, so the first failure in row order is raised
    as in a serial run. A row loads no module (numpy included) that this
    process has not, so nothing is preloaded before the fork."""
    sweep = _plan(sweep)
    values = sweep.values
    n = min(_workers(), len(values)) if _Row.run in sweep.needs else 1
    if n < 2:
        return _rows(sweep, values, seed)
    kids: list[_Child] = []
    try:
        for w in range(1, n):
            kid = _fork(_rows, sweep, values[w::n], seed)
            if kid is None:
                break
            kids.append(kid)
        else:
            try:
                mine = _rows(sweep, values[::n], seed)
            except Exception:  # the serial run below raises it, the first in row order
                mine = None
            parts = [None] if mine is None else [mine, *(kid.result() for kid in kids)]
            if None not in parts:
                lines = [""] * len(values)
                for w, part in enumerate(parts):
                    lines[w::n] = part
                return lines
    finally:
        for kid in kids:
            kid.stop()
    return _rows(sweep, values, seed)


def run_sweep(sweep: SweepSpec, out_dir: str | None = None, seed: int = 0) -> str:
    """Run every row, then write <out>/sweep.csv and return its path. A row's
    ModelError or ArithmeticError is its error cell; any other failure writes
    nothing and is raised as a serial run raises it. Rows run in forked
    workers where the plan needs a run, with the same output as on one CPU
    (_sweep_lines)."""
    _check_seed(seed)
    lines = [",".join([sweep.axis, *sweep.columns, "error"]),
             *_sweep_lines(sweep, seed)]
    target = out_dir if out_dir is not None else sweep.base.out_dir
    return _write_out(target, [("sweep.csv", ["\n".join(lines), "\n"])])
