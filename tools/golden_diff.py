"""Golden diff: compare every demo artifact and output of a git revision with
the working tree.

    python3 tools/golden_diff.py REV

Both trees run the same commands from the same scratch directory, with the
same relative --out paths, on their own copies of demos/ (so printed paths
match):

* `simulate` on each demos/scenarios/*.json scenario (the sweep file aside);
* `simulate` on random_endemic, endemic.json with a `random` history
  (Lyapunov and persistence on, as there), at --seed 0 and at
  --seed 2**64 + 5, a seed of three 32-bit words (RANDOM_SEEDS);
* `simulate` on endemic.json again, allowed only one CPU by
  os.sched_setaffinity before it starts (ONE_CPU), so its Lyapunov section
  runs in its own process, where the other runs on a machine with two or
  more CPUs run it in a forked child;
* `simulate` on limiting_endemic, endemic.json with `integration.system:
  limiting` (Lyapunov and persistence on, as there), which forks nothing:
  its Lyapunov section reads simulate's own run;
* `simulate` and `report --only lyapunov` on lyapunov_product, endemic.json
  with the history (4, 0.5, 30, 0): I_v * S_h is 0 on the whole window, so
  both exit 1 with NonPositiveProductError, and simulate's forked Lyapunov
  section sends nothing back and runs again in its own process;
* `report` on negative_history, endemic.json with the constant history
  (4, -0.5, 30, 10), which HistorySegment rejects: the load fails at
  scenario.history and the command exits 1, printing only its error;
* `sweep` on demos/scenarios/sweep_c_vh.json, and on nine sweeps made from
  it in the scratch directory (MADE_SWEEPS), the first three with the
  tail columns: sweep_tau_tail, on a tau axis, whose 1e-7 row needs more
  than MAX_STEPS steps, so an error cell is written too;
  sweep_tau_limiting, a LIMITING run whose tail cut falls between two
  nodes at tau = 0 and 2 and on a node at tau = 1, and whose tau = 146 row
  runs one step, so its tail window holds one node and its error cell is
  an EmptyWindowError; sweep_random_tail, on the c_vh axis from a `random`
  history, whose rows run in forked workers on a machine with two or more
  CPUs; sweep_tail_underflow, two forked c_vh rows with only tail and
  error_class columns at rates where R0^2's divisor underflows, which
  those rows never read; sweep_extreme, on the c_vh axis at rates up
  to 1e27, where G's root polish fails but the verdict columns, read from
  G(0), do not; sweep_nonfinite_star, one row at valid rates where
  E*'s closed form gives S_h = inf / inf, an error row as it prints E*'s
  cells; sweep_nonfinite_verdicts, the same row with only the verdict
  columns, which read E*'s existence alone and print; and
  sweep_column_order, on the c_hv axis with its columns out of their
  canonical order (error_class first, e_star before r0, r0_squared last),
  R0 on both sides of 1, and at c_hv = 1e307 a finite R0^2 but an
  infinite I_v*, an error row, so each row's cells, error row's included,
  are checked in the order the file asks for; and sweep_negative_history,
  verdict columns only over negative_history's history, whose load fails
  at sweep.base.history, so it exits 1 and writes no sweep.csv;
* `sweep` again on each of the four made sweeps with tail columns
  (TAIL_SWEEPS), allowed one CPU as ONE_CPU is, as <name>_one_cpu: its rows
  run in this process, where the runs above fork on a machine with two or
  more CPUs, so sweep.csv from the serial row path is compared too;
* `--help` of the CLI and of `simulate`, `report` and `sweep`;
* `report`, and `report --only stability|lyapunov|persistence`, on each
  scenario;
* each demos/*.py script.

Every file written (report.txt, trajectory.csv, lyapunov.csv, sweep.csv and
the demos' own files) and every command's stdout, stderr and exit code is
compared byte for byte, and each differing file is listed with every line
that differs. A differing line that reads `<key> = <float>` on both sides
(leading spaces stripped) has |a - b| printed beside it; the summary gives
the largest such difference and counts the differing lines of any other
form. The line count of src/**/*.py in both trees and the net
difference are printed last. Exit status 0 when all are identical, 1
otherwise.
REV is exported with `git archive`, so no worktree is registered. Standard
library only.
"""

from __future__ import annotations

import filecmp
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECTIONS = ("stability", "lyapunov", "persistence")
STREAMS = "streams"
RANDOM = {"kind": "random"}
NEGATIVE_HISTORY = {"kind": "constant", "state": [4, -0.5, 30, 10]}
RANDOM_SEEDS = (0, 2**64 + 5)
ONE_CPU_SUFFIX = "_one_cpu"  # a command whose label ends so runs on one CPU
ONE_CPU = f"simulate_endemic{ONE_CPU_SUFFIX}"
NONFINITE_STAR = {"params": {"beta_h": 1.3310652524698147e+69,
                             "beta_v": 7.521925569700577e-152,
                             "mu_h": 3.698771195959083e+31,
                             "mu_v": 2.704525289284165e+103,
                             "c_vh": 4.652308886266356e-186,
                             "c_hv": 1.6605361641466093e+294, "tau": 1}}
# name -> (the keys that replace sweep_c_vh.json's, the keys that replace
# its base's)
MADE_SWEEPS = {
    "sweep_tau_tail": ({"axis": "tau", "values": [0, 0.5, 1e-7, 2],
                        "columns": ["r0", "r0_squared", "classification", "e_star",
                                    "tail"]}, {}),
    # 365, 146, 73 and 1 steps of t_end 7.3
    "sweep_tau_limiting": ({"axis": "tau", "values": [0, 1, 2, 146], "columns": ["tail"]},
                           {"integration": {"system": "limiting", "t_end": 7.3}}),
    "sweep_random_tail": ({"values": [0.05, 0.2, 0.8], "columns": ["r0", "tail"]},
                          {"history": RANDOM, "integration": {"t_end": 50.0}}),
    # mu_h^2 mu_v underflows to 0, so R0^2 raises RateUnderflowError, but a
    # row of tail cells reads neither R0^2 nor E*
    "sweep_tail_underflow": ({"values": [0.2, 0.4], "columns": ["tail", "error_class"]},
                             {"params": {"beta_h": 1, "beta_v": 1, "mu_h": 1e-110,
                                         "mu_v": 1e-110, "c_vh": 0.2, "c_hv": 0.1,
                                         "tau": 1},
                              "history": {"kind": "constant", "state": [1, 0.5, 1, 0.5]},
                              "integration": {"t_end": 10}}),
    # R0 just below 1 at c_vh = 1e-21; G's root polish fails at E* from 1e24
    # and at E0 too at 1e27, while the verdicts read G(0) alone
    "sweep_extreme": ({"values": [1e-21, 1e-18, 1.0, 1e24, 1e27],
                       "columns": ["r0", "classification", "e_star", "error_class"]},
                      {"params": {"beta_h": 1e24, "beta_v": 1e20, "mu_h": 0.01, "mu_v": 1e6,
                                  "c_vh": 1.0, "c_hv": 0.1, "tau": 1e4}}),
    # R0^2 is finite and above 1, but E*'s S_h is inf / inf = NaN: a row
    # with E*'s cells is an error row, one with only the verdicts is not
    "sweep_nonfinite_star": ({"values": [4.652308886266356e-186],
                              "columns": ["r0", "classification", "e_star", "error_class"]},
                             NONFINITE_STAR),
    "sweep_nonfinite_verdicts": ({"values": [4.652308886266356e-186],
                                  "columns": ["r0", "classification", "error_class"]},
                                 NONFINITE_STAR),
    # columns out of their canonical order; R0 on both sides of 1, and at
    # c_hv = 1e307 R0^2 = 1.6e308 is finite but E*'s I_v is inf: an error row
    "sweep_column_order": ({"axis": "c_hv", "values": [0.02, 0.05, 0.1, 0.4, 1e307],
                            "columns": ["error_class", "e_star", "r0", "classification",
                                        "r0_squared"]}, {}),
    "sweep_negative_history": ({"columns": ["r0", "classification"]},
                               {"history": NEGATIVE_HISTORY}),
}
# the made sweeps with tail columns, run again on one CPU (ONE_CPU_SUFFIX)
TAIL_SWEEPS = tuple(name for name, (keys, _) in MADE_SWEEPS.items()
                    if "tail" in keys["columns"])


def commands(tree: str) -> list[tuple[str, list[str]]]:
    """(label, argv) pairs, argv relative to the scratch directory."""
    cli = [sys.executable, "-m", "malaria_dde"]
    scen_dir = os.path.join(tree, "demos", "scenarios")
    scenarios = sorted(f for f in os.listdir(scen_dir)
                       if f.endswith(".json") and not f.startswith("sweep"))
    out = []
    for f in scenarios:
        name = f[:-5]
        path = os.path.join("demos", "scenarios", f)
        out.append((f"simulate_{name}",
                    cli + ["simulate", path, "--out", f"out/simulate_{name}"]))
        out.append((f"report_{name}", cli + ["report", path]))
        for section in SECTIONS:
            out.append((f"report_{name}_{section}",
                        cli + ["report", path, "--only", section]))
    endemic = os.path.join("demos", "scenarios", "endemic.json")
    out.append((ONE_CPU, cli + ["simulate", endemic, "--out", f"out/{ONE_CPU}"]))
    path = os.path.join("demos", "scenarios", "random_endemic.json")
    for seed in RANDOM_SEEDS:
        name = f"random_endemic_seed{seed}"
        out.append((f"simulate_{name}", cli + ["simulate", path, "--seed", str(seed),
                                               "--out", f"out/simulate_{name}"]))
    path = os.path.join("demos", "scenarios", "limiting_endemic.json")
    out.append(("simulate_limiting_endemic",
                cli + ["simulate", path, "--out", "out/simulate_limiting_endemic"]))
    path = os.path.join("demos", "scenarios", "lyapunov_product.json")
    out.append(("simulate_lyapunov_product",
                cli + ["simulate", path, "--out", "out/simulate_lyapunov_product"]))
    out.append(("report_lyapunov_product_lyapunov",
                cli + ["report", path, "--only", "lyapunov"]))
    out.append(("report_negative_history",
                cli + ["report", os.path.join("demos", "scenarios", "negative_history.json")]))
    for name in ("sweep_c_vh", *MADE_SWEEPS):
        out.append((name, cli + ["sweep", os.path.join("demos", "scenarios", f"{name}.json"),
                                 "--out", f"out/{name}"]))
    for name in TAIL_SWEEPS:
        label = f"{name}{ONE_CPU_SUFFIX}"
        out.append((label, cli + ["sweep", os.path.join("demos", "scenarios", f"{name}.json"),
                                  "--out", f"out/{label}"]))
    for sub in ([], ["simulate"], ["report"], ["sweep"]):
        out.append((f"help_{''.join(sub) or 'cli'}", cli + sub + ["--help"]))
    for f in sorted(os.listdir(os.path.join(tree, "demos"))):
        if f.endswith(".py"):
            out.append((f"demo_{f[:-3]}", [sys.executable, os.path.join("demos", f)]))
    return out


def _one_cpu() -> None:
    """In the child, before it runs the command: allow only the first of the
    CPUs it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_tree(tree: str, work: str, dest: str) -> None:
    """Run every command of `tree` in `work`, then move `work` to `dest`."""
    os.makedirs(work)
    shutil.copytree(os.path.join(tree, "demos"), os.path.join(work, "demos"))
    scen_dir = os.path.join(work, "demos", "scenarios")
    with open(os.path.join(scen_dir, "sweep_c_vh.json")) as fh:
        c_vh = json.load(fh)
    with open(os.path.join(scen_dir, "endemic.json")) as fh:
        endemic = json.load(fh)
    made = {"random_endemic": {**endemic, "history": RANDOM},
            "limiting_endemic": {**endemic, "integration": {**endemic["integration"],
                                                            "system": "limiting"}},
            "lyapunov_product": {**endemic, "history": {"kind": "constant",
                                                        "state": [4, 0.5, 30, 0]}},
            "negative_history": {**endemic, "history": NEGATIVE_HISTORY}}
    for name, (keys, base) in MADE_SWEEPS.items():
        made[name] = {**c_vh, **keys, "base": {**c_vh["base"], **base}}
    for name, obj in made.items():
        with open(os.path.join(scen_dir, f"{name}.json"), "w") as fh:
            json.dump(obj, fh)
    os.makedirs(os.path.join(work, STREAMS))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    for label, argv in commands(tree):
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True,
                              preexec_fn=_one_cpu if label.endswith(ONE_CPU_SUFFIX) else None)
        for ext, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                          ("exit", f"{proc.returncode}\n".encode())):
            with open(os.path.join(work, STREAMS, f"{label}.{ext}"), "wb") as fh:
                fh.write(data)
    shutil.rmtree(os.path.join(work, "demos"))  # inputs, not outputs
    os.rename(work, dest)


def files_under(top: str) -> set[str]:
    out = set()
    for dirpath, _, names in os.walk(top):
        for n in names:
            out.add(os.path.relpath(os.path.join(dirpath, n), top))
    return out


def src_lines(tree: str) -> int:
    """Number of lines in the .py files under tree/src."""
    total = 0
    for dirpath, _, names in os.walk(os.path.join(tree, "src")):
        for n in names:
            if n.endswith(".py"):
                with open(os.path.join(dirpath, n), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def numeric_move(x: bytes, y: bytes) -> float | None:
    """|a - b| when both lines read `<key> = <float>` with the same key, else
    None."""
    try:
        (ka, va), (kb, vb) = (line.decode().strip().split(" = ") for line in (x, y))
        if ka == kb:
            return abs(float(va) - float(vb))
    except ValueError:  # not two fields, not a float, or not UTF-8
        pass
    return None


def differing_lines(a: str, b: str) -> tuple[list[str], list[float], int]:
    """Every line that differs between the two files, one entry each; the
    numeric moves among them; and how many differing lines are of another
    form (a surplus line counts as one)."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        la, lb = fa.readlines(), fb.readlines()
    out, moves, other = [], [], abs(len(la) - len(lb))
    for k, (x, y) in enumerate(zip(la, lb), start=1):
        if x == y:
            continue
        entry = f"  line {k}: {x[:80]!r} != {y[:80]!r}"
        move = numeric_move(x, y)
        if move is None:
            other += 1
        else:
            moves.append(move)
            entry += f"  |a - b| = {move:.3g}"
        out.append(entry)
    if len(la) != len(lb):
        out.append(f"  {len(la)} lines != {len(lb)} lines")
    return out, moves, other


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/golden_diff.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    tmp = tempfile.mkdtemp(prefix="golden_diff_")
    try:
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                 capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode())
            return 2
        base = os.path.join(tmp, "base_tree")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter exists from 3.11.4/3.10.12 and is the default in 3.14
            tar.extractall(base, **({"filter": "data"}
                                    if hasattr(tarfile, "data_filter") else {}))
        work = os.path.join(tmp, "work")
        sides = {rev: os.path.join(tmp, "base"), "working tree": os.path.join(tmp, "change")}
        for tree, dest in zip((base, ROOT), sides.values()):
            run_tree(tree, work, dest)

        old, new = sides.values()
        old_files, new_files = files_under(old), files_under(new)
        problems = [f"only in {rev}: {f}" for f in sorted(old_files - new_files)]
        problems += [f"only in working tree: {f}" for f in sorted(new_files - old_files)]
        same = other = 0
        moves = []
        for f in sorted(old_files & new_files):
            a, b = os.path.join(old, f), os.path.join(new, f)
            if filecmp.cmp(a, b, shallow=False):
                same += 1
            else:
                lines, file_moves, file_other = differing_lines(a, b)
                moves += file_moves
                other += file_other
                problems.append("\n".join([f"differs: {f}", *lines]))
        for line in problems:
            print(line)
        print(f"{same} identical, {len(problems)} different "
              f"({rev} vs working tree)")
        print(f"largest |a - b| over {len(moves)} differing `<key> = <float>` lines: "
              f"{max(moves, default=0.0):.3g}; {other} differing lines of another form")
        before, after = src_lines(base), src_lines(ROOT)
        print(f"src/**/*.py: {before} lines in {rev}, {after} in working tree, "
              f"net {after - before:+d}")
        return 1 if problems else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
