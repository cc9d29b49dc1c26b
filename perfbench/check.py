"""Per-op output checks and the reference values they compare against.

Every op is checked after it returns (outside its timed interval):

* exit code 0 and nothing that looks like a traceback on stderr;
* `r0` and the endemic state equal the benchmark's own closed forms
  (gen.r0, gen.endemic_state) to 1e-12 relative, and `classification_e0`
  is on the right side of R0 = 1;
* `trajectory.csv` has the right header and one row per mesh node;
* `lyapunov.descends = true`;
* `sweep.csv` has one row per value, each with an empty `error` cell;
* for seeds listed in reference.json, tail and Lyapunov numbers equal the
  values recorded from the seed commit to 1e-9 relative. This catches a
  fast but wrong integrator.

A check returns a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os

import gen

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
CLOSED_FORM_RTOL = 1e-12
REFERENCE_RTOL = 1e-9
# values that decay to rounding level (v_last near an equilibrium) are
# compared with this absolute floor on top of the relative tolerance
REFERENCE_ATOL = 1e-12

TRAJECTORY_HEADER = "t,S_h,I_h,S_v,I_v"
STAR_NAMES = ("s_h", "i_h", "s_v", "i_v")
TAIL_KEYS = tuple(f"tail.{c}.{b}" for c in STAR_NAMES for b in ("inf", "sup"))
LYAPUNOV_KEYS = ("lyapunov.v_first", "lyapunov.v_last")
TAIL_COLUMNS = tuple(f"tail_{c}_{b}" for c in STAR_NAMES for b in ("inf", "sup"))


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= max(rtol * abs(want), atol)


def _star_rtol(p: dict) -> float:
    # E* depends on R0^2 - 1; near the threshold rounding in that difference
    # is amplified by 1 / |R0^2 - 1|, for the package and for gen alike
    return CLOSED_FORM_RTOL * max(1.0, 1.0 / abs(gen.r0_sq(p) - 1.0))


def _e0_class(p: dict) -> str:
    r2 = gen.r0_sq(p)
    return "LAS" if r2 < 1.0 else "Unstable" if r2 > 1.0 else "Critical"


def read_report(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(" = ")
            out[key] = value
    return out


def expected_nodes(tau: float, t_end: float, steps_per_delay: int) -> int:
    """Mesh nodes of a stride-1 run: t_end / h rounded as the stepper does."""
    n_exact = t_end / (tau / steps_per_delay)
    n = int(round(n_exact))
    if abs(n_exact - n) > 1e-9 * max(1.0, abs(n_exact)):
        n = int(math.ceil(n_exact))
    return n + 1


def check_exit(code: int | None, stderr: str, raised: BaseException | None) -> list[str]:
    problems = []
    if raised is not None:
        problems.append(f"raised {type(raised).__name__}: {raised}")
    elif code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[:200]}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


def check_simulate(doc: dict, out_dir: str, ref: dict | None) -> list[str]:
    p = doc["params"]
    problems = []
    rep = read_report(os.path.join(out_dir, "report.txt"))
    if not _close(float(rep["r0"]), gen.r0(p), CLOSED_FORM_RTOL):
        problems.append(f"r0 {rep['r0']} != {gen.r0(p)!r}")
    star = gen.endemic_state(p)
    if star is None:
        if rep.get("e_star.exists") != "false":
            problems.append("e_star reported although R0 <= 1")
    else:
        for name, want in zip(STAR_NAMES, star):
            got = float(rep.get(f"e_star.{name}", "nan"))
            if not _close(got, want, _star_rtol(p)):
                problems.append(f"e_star.{name} {got!r} != {want!r}")
    if rep.get("stability.e0.classification") != _e0_class(p):
        problems.append(f"classification_e0 {rep.get('stability.e0.classification')}")
    if rep.get("lyapunov.descends") != "true":
        problems.append("lyapunov.descends is not true")

    integ = doc["integration"]
    nodes = expected_nodes(p["tau"], integ["t_end"], integ["steps_per_delay"])
    with open(os.path.join(out_dir, "trajectory.csv")) as fh:
        header = fh.readline().rstrip("\n")
        rows = sum(1 for _ in fh)
    if header != TRAJECTORY_HEADER:
        problems.append(f"trajectory.csv header {header!r}")
    if rows != nodes or rep.get("trajectory.nodes") != str(nodes):
        problems.append(f"trajectory.csv has {rows} rows, expected {nodes}")

    if ref is not None:
        for key in TAIL_KEYS + LYAPUNOV_KEYS:
            got = float(rep.get(key, "nan"))
            if not _close(got, ref[key], REFERENCE_RTOL, REFERENCE_ATOL):
                problems.append(f"{key} {got!r} != reference {ref[key]!r}")
    return problems


def read_sweep(out_dir: str) -> list[dict[str, str]]:
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(doc: dict, out_dir: str, ref: list | None) -> list[str]:
    problems = []
    rows = read_sweep(out_dir)
    values = doc["values"]
    if len(rows) != len(values):
        return [f"sweep.csv has {len(rows)} rows for {len(values)} values"]
    axis = doc["axis"]
    for k, (row, value) in enumerate(zip(rows, values)):
        p = dict(doc["base"]["params"], **{axis: value})
        if row["error"]:
            problems.append(f"row {k}: {row['error']}")
            continue
        if float(row[axis]) != value:
            problems.append(f"row {k}: axis value {row[axis]} != {value!r}")
        if "r0" in row and not _close(float(row["r0"]), gen.r0(p), CLOSED_FORM_RTOL):
            problems.append(f"row {k}: r0 {row['r0']} != {gen.r0(p)!r}")
        if row.get("classification_e0", _e0_class(p)) != _e0_class(p):
            problems.append(f"row {k}: classification_e0 {row['classification_e0']}")
        star = gen.endemic_state(p)
        if "classification_e_star" in row:
            want = "absent" if star is None else "LAS"
            if row["classification_e_star"] != want:
                problems.append(f"row {k}: classification_e_star "
                                f"{row['classification_e_star']}")
        if "s_h_star" in row:
            for name, want in zip(STAR_NAMES, star or (None,) * 4):
                cell = row[f"{name}_star"]
                if want is None:
                    if cell:
                        problems.append(f"row {k}: {name}_star reported below R0 = 1")
                elif not cell or not _close(float(cell), want, _star_rtol(p)):
                    problems.append(f"row {k}: {name}_star {cell!r} != {want!r}")
        if ref is not None and "tail_s_h_inf" in row:
            for col in TAIL_COLUMNS:
                if not _close(float(row[col]), ref[k][col], REFERENCE_RTOL,
                              REFERENCE_ATOL):
                    problems.append(f"row {k}: {col} {row[col]} != reference "
                                    f"{ref[k][col]!r}")
    return problems


def check_op(workload: str, doc: dict, out_dir: str, ref) -> list[str]:
    if workload == "simulate":
        return check_simulate(doc, out_dir, ref)
    return check_sweep(doc, out_dir, ref)


def output_rows(workload: str, out_dir: str) -> int:
    """Rows the op wrote: trajectory.csv rows for simulate, sweep rows else."""
    name = "trajectory.csv" if workload == "simulate" else "sweep.csv"
    with open(os.path.join(out_dir, name)) as fh:
        return sum(1 for _ in fh) - 1


def reference_values(workload: str, out_dir: str):
    """What reference.json stores for one op's output."""
    if workload == "simulate":
        rep = read_report(os.path.join(out_dir, "report.txt"))
        return {key: float(rep[key]) for key in TAIL_KEYS + LYAPUNOV_KEYS}
    if workload == "sweep_tail":
        return [{col: float(row[col]) for col in TAIL_COLUMNS}
                for row in read_sweep(out_dir)]
    return None


def load_reference() -> dict:
    """{workload: {seed: [per-input reference]}} with string seed keys."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
