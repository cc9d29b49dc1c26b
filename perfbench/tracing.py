"""Outside-in tracing of the package's layers.

The tracer wraps each layer module's public functions, plus a short list of
public methods, from the benchmark's side; the package itself is not
changed. Installing rebinds every name in every `malaria_dde` module that
refers to a wrapped function, so `from .integrator import integrate` inside
`scenario`, `lyapunov` and `persistence` (and same-module calls such as
`classify` -> `rightmost_real_root`) go through the wrapper and nested calls
become child spans. Uninstalling puts the original objects back.

Methods on the integration hot path (HistorySegment.value_at, the rhs
closures, _g_real) are deliberately not wrapped, so integrate's self time
is the stepper's own time.

Spans are kept in memory as tuples and written out by the caller at the end.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "malaria_dde"
LAYERS = ("cli", "scenario", "model", "equilibria", "integrator", "stability",
          "lyapunov", "persistence", "errors")

# (module, class, method) wrapped in addition to module-level functions
METHODS = (
    ("integrator", "Trajectory", "to_csv"),
    ("lyapunov", "LyapunovTrace", "to_csv"),
    ("stability", "DfeCharCoeffs", "from_params"),
    ("stability", "EndemicCharCoeffs", "from_params"),
    ("model", "HistorySegment", "constant"),
    ("model", "HistorySegment", "table"),
    ("scenario", "HistorySpec", "build"),
)

# span tuple fields
SID, PARENT, NAME, T0, T1, OP, EXC, INFO = range(8)


def _history_key(phi) -> tuple:
    return (phi.tau, phi.times.tobytes(), phi.states.tobytes())


class Tracer:
    """Span recorder over the package's public functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._next = 1
        self._swaps: list[tuple] = []   # (owner, attribute, original, wrapped)
        self._hooks = {
            "integrator.integrate": self._info_integrate,
            "stability.rightmost_real_root": self._info_root,
            "integrator.Trajectory.to_csv": self._info_csv,
            "lyapunov.LyapunovTrace.to_csv": self._info_csv,
            "lyapunov.trace_along": self._info_trace,
            "scenario.run_sweep": self._info_sweep,
        }
        self._build()

    # ------------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, tracer.op, type(e), None))
                raise
            t1 = clock()
            stack.pop()
            # the hook runs after t1, so its cost is not charged to the span
            info = None if hook is None else hook(args, kwargs, result)
            spans.append((sid, parent, name, t0, t1, tracer.op, None, info))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _build(self) -> None:
        mods = {layer: sys.modules.get(f"{PACKAGE}.{layer}") for layer in LAYERS}
        missing = [k for k, m in mods.items() if m is None]
        if missing:
            raise RuntimeError(f"layer modules not imported: {missing}")
        originals = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._swaps.append((cls, meth, raw, wrapped))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._swaps.append((mod, attr, obj, hit[1]))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- hooks

    @staticmethod
    def _info_integrate(args, kwargs, traj):
        p, phi, spec = args
        steps = int(round(traj.t_end / traj.h))
        path = "ode" if traj.tau == 0 else traj.system.value
        return (path, steps, (p, _history_key(phi), spec))

    @staticmethod
    def _info_root(args, kwargs, result):
        coeffs = args[0]
        where = "e0" if type(coeffs).__name__ == "DfeCharCoeffs" else "e_star"
        # G(0) = a2 + a3 decides the branch: < 0 doubling, else grid scan
        return (where, "doubling" if coeffs.a2 + coeffs.a3 < 0.0 else "grid")

    @staticmethod
    def _info_csv(args, kwargs, result):
        target = args[1] if len(args) > 1 else kwargs.get("target")
        return os.path.getsize(target) if isinstance(target, str) else 0

    @staticmethod
    def _info_trace(args, kwargs, result):
        return int(result.values.size)

    @staticmethod
    def _info_sweep(args, kwargs, result):
        return len(args[0].values)

    # --------------------------------------------------------------- output

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: id, parent, name, t0, t1, op, exc."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[SID], s[PARENT], s[NAME], s[T0], s[T1], s[OP],
                                     None if s[EXC] is None else s[EXC].__name__])
                         + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT]:
            child[s[PARENT]] += s[T1] - s[T0]
    return {s[SID]: (s[T1] - s[T0]) - child[s[SID]] for s in spans}


def layer_metrics(spans: list[tuple], op_walls: list[float],
                  row_errors: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of the traced ops.

    Counts and times are per op (divided by the number of traced ops);
    fractions are of the summed op wall time.
    """
    ops = len(op_walls)
    wall = sum(op_walls)
    selfs = self_times(spans)
    by_name_self = defaultdict(float)
    by_name_incl = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    root_cover = 0.0
    for s in spans:
        name = s[NAME]
        by_name_self[name] += selfs[s[SID]]
        by_name_incl[name] += s[T1] - s[T0]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += selfs[s[SID]]
        if s[PARENT] == 0:
            root_cover += s[T1] - s[T0]

    steps = defaultdict(int)
    path_self = defaultdict(float)
    keys_per_op = defaultdict(set)
    n_integrate = 0
    root_time = defaultdict(float)
    root_calls = defaultdict(int)
    csv_bytes = 0
    nodes = 0
    rows = 0
    for s in spans:
        name, info = s[NAME], s[INFO]
        if info is None:
            continue
        if name == "integrator.integrate":
            path, n, key = info
            n_integrate += 1
            steps[path] += n
            path_self[path] += selfs[s[SID]]
            keys_per_op[s[OP]].add(key)
        elif name == "stability.rightmost_real_root":
            where, branch = info
            cat = "e_star" if where == "e_star" else f"e0_{branch}"
            root_time[cat] += s[T1] - s[T0]
            root_calls[cat] += 1
            root_calls[branch] += 1
        elif name == "integrator.Trajectory.to_csv":
            csv_bytes += info
        elif name == "lyapunov.trace_along":
            nodes += info
        elif name == "scenario.run_sweep":
            rows += info

    def per_op(x):
        return x / ops if ops else 0.0

    def us_per_step(path):
        return 1e6 * path_self[path] / steps[path] if steps[path] else 0.0

    def sum_over(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    total_steps = sum(steps.values())
    integ_self = by_name_self["integrator.integrate"]
    distinct = sum(len(v) for v in keys_per_op.values())
    m = {
        "integrator.integrate.calls": (per_op(n_integrate), "count"),
        "integrator.integrate.self_s": (per_op(integ_self), "s"),
        "integrator.integrate.frac": (by_name_incl["integrator.integrate"] / wall, "ratio"),
        "integrator.steps": (per_op(total_steps), "count"),
        "integrator.steps_per_s": (total_steps / integ_self if integ_self else 0.0, "1/s"),
        "integrator.us_per_step.full": (us_per_step("full"), "us"),
        "integrator.us_per_step.limiting": (us_per_step("limiting"), "us"),
        "integrator.us_per_step.ode": (us_per_step("ode"), "us"),
        "integrator.unique_ratio": (distinct / n_integrate if n_integrate else 0.0, "ratio"),
        "integrator.to_csv.self_s": (per_op(by_name_self["integrator.Trajectory.to_csv"]), "s"),
        "integrator.csv_bytes": (per_op(csv_bytes), "bytes"),
        "model.rhs_evals": (per_op(5 * total_steps + n_integrate), "count"),
        "lyapunov.to_csv.self_s": (per_op(by_name_self["lyapunov.LyapunovTrace.to_csv"]), "s"),
        "lyapunov.descend_check.self_s": (per_op(by_name_self["lyapunov.descend_check"]), "s"),
        "lyapunov.trace_along.self_s": (per_op(by_name_self["lyapunov.trace_along"]), "s"),
        "lyapunov.nodes": (per_op(nodes), "count"),
        "persistence.calls": (per_op(calls["persistence.weak_persistence_check"]), "count"),
        "persistence.check.self_s": (per_op(by_name_self["persistence.weak_persistence_check"]), "s"),
        "stability.classify.calls": (per_op(calls["stability.classify"]), "count"),
        "stability.path.doubling": (per_op(root_calls["doubling"]), "count"),
        "stability.path.grid": (per_op(root_calls["grid"]), "count"),
        "stability.rightmost_real_root.frac": (
            by_name_incl["stability.rightmost_real_root"] / wall, "ratio"),
        "equilibria.calls": (per_op(sum_over("equilibria.", calls)), "count"),
        "equilibria.self_s": (per_op(layer_self["equilibria"]), "s"),
        "scenario.load_s": (per_op(by_name_incl["scenario.load_scenario"]
                                   + by_name_incl["scenario.load_sweep"]), "s"),
        "scenario.run_self_s": (per_op(by_name_self["scenario.run_scenario"]
                                       + by_name_self["scenario.run_sweep"]), "s"),
        "scenario.rows": (per_op(rows), "count"),
        "cli.self_s": (per_op(layer_self["cli"]), "s"),
        "errors.validation": (float(row_errors.get("validation", 0)), "count"),
        "errors.numerical": (float(row_errors.get("numerical", 0)), "count"),
        "errors.uncaught": (float(row_errors.get("uncaught", 0)), "count"),
        "trace.uncovered_frac": ((wall - root_cover) / wall, "ratio"),
    }
    for cat in ("e0_doubling", "e0_grid", "e_star"):
        n = root_calls[cat]
        m[f"stability.root_us.{cat}"] = (1e6 * root_time[cat] / n if n else 0.0, "us")
    for layer in LAYERS:
        if layer != "errors":
            m[f"{layer}.self_frac"] = (layer_self[layer] / wall, "ratio")
    return m


def error_counts(spans: list[tuple], validation, numerical) -> dict[str, int]:
    """Sweep rows that ended in an error, by family.

    run_sweep catches a ModelError from a row and writes an error cell, so a
    row error is an exception that left a direct child span of run_sweep.
    """
    sweeps = {s[SID] for s in spans if s[NAME] == "scenario.run_sweep"}
    out = defaultdict(int)
    for s in spans:
        exc = s[EXC]
        if exc is None or s[PARENT] not in sweeps:
            continue
        if issubclass(exc, validation):
            out["validation"] += 1
        elif issubclass(exc, numerical):
            out["numerical"] += 1
    return out


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(package import s, scipy share s) from `python -X importtime` output.

    The package time is the cumulative time of the top-level `malaria_dde*`
    entries. The scipy time is the cumulative time of the outermost `scipy*`
    entries, i.e. everything first imported on scipy's behalf.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|", 2)
        if not cum.strip().isdigit():
            continue  # the column header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cum), name.strip()))
    package = scipy = 0
    ancestors: list[str] = []
    # importtime prints a module after its children; walk backwards so each
    # entry's ancestors are seen first
    for depth, cum, name in reversed(entries):
        del ancestors[depth:]
        if depth == 0 and name.split(".")[0] == "malaria_dde":
            package += cum
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cum
        ancestors.append(name)
    return package / 1e6, scipy / 1e6
