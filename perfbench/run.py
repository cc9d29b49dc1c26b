"""Benchmark driver for malaria-dde.

    python3 perfbench/run.py --workload simulate|sweep_tail|stability_scan \
        --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout; the package is imported from its `src/`.
One single-threaded process drives `malaria_dde.cli.main` in a closed loop:
the next command starts when the previous one has returned. The inputs come
from gen.py for the given seed; every op is checked by check.py after it
returns, outside its timed interval.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
interpreters that import the CLI and parse the inputs), one cold
`python -m malaria_dde` run (median of several), op latency median and tail,
ops/s, output rows/s and peak RSS. Times are calibrated against references
that do not use the package (calib.py); the uncalibrated figures are printed
beside them.

--trace 1 reports the per-layer metrics. Each input is run twice in a row,
once plain and once with tracing.Tracer installed (alternating which goes
first), so trace.overhead_frac compares like with like. Import set-up comes
from `python -X importtime`. Spans are written to
.perfbench_out/trace-<workload>-seed<N>.jsonl.

--quick runs one set-up launch and one cold run instead of several; the
benchmark's own tests use it.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Without a `src/malaria_dde` package the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")

# numpy reads these when it loads; pin them before anything imports it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import calib  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

SETUP_LAUNCHES = 5
COLD_RUNS = 5
WARMUP_OPS = 2
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
# The pools have a fixed cost per slot, so a percentile that moved with the
# sample count would move between slots; a coarse fixed ladder does not.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
REFERENCE_REPLAY_SEED = 0
REFERENCE_REPLAY_OPS = 2
CHILD_TIMEOUT = 60.0

E2E_UNITS = {"setup_s": "s", "cold_cli_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "ops_per_s": "1/s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    return ap.parse_args(argv)


def command_of(workload: str) -> str:
    return "simulate" if workload == "simulate" else "sweep"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


# ------------------------------------------------------------------ set-up

def launch_probe(command: str, paths: list[str], importtime: bool):
    """One fresh interpreter; returns (seconds to parsed inputs, stderr)."""
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []),
            os.path.join(HERE, "probe.py"), SRC, command, *paths]
    t0 = time.monotonic_ns()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    done = int(proc.stdout.strip().splitlines()[-1])
    return (done - t0) / 1e9, proc.stderr


def measure_setup(command, paths, launches, warm):
    """(calibrated, uncalibrated) median set-up time."""
    if warm:
        launch_probe(command, paths, False)  # compiles bytecode once
    return calib.calibrated_launches(lambda: launch_probe(command, paths, False)[0],
                                     launches, child_env())


def measure_import(command, paths, launches):
    parts = [tracing.parse_importtime(launch_probe(command, paths, True)[1])
             for _ in range(launches)]
    return (statistics.median(p[0] for p in parts),
            statistics.median(p[1] for p in parts))


def measure_cold(workload, doc, path, out_dir, runs, ref):
    """(calibrated, uncalibrated) median wall time of `python -m malaria_dde`
    on one input, and the problems its outputs show."""
    problems = []

    def once():
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [sys.executable, "-m", "malaria_dde", command_of(workload), path,
                "--out", out_dir, "--quiet"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - t0
        found = check.check_exit(proc.returncode, proc.stderr, None)
        if not found:
            found = check.check_op(workload, doc, out_dir, ref)
        problems.extend(f"cold run: {p}" for p in found)
        return wall

    return (*calib.calibrated_launches(once, runs, child_env()), problems)


# ---------------------------------------------------------------------- ops

class Op:
    """Result of one cli.main call."""

    __slots__ = ("wall", "code", "stderr", "raised", "problems", "rows")

    def __init__(self, wall, code, stderr, raised):
        self.wall, self.code, self.stderr, self.raised = wall, code, stderr, raised
        self.problems: list[str] = []
        self.rows = 0


def run_op(main, workload, doc, path, out_dir, ref) -> Op:
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [command_of(workload), path, "--out", out_dir, "--quiet"]
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op failed; keep looping and count it
        raised = exc
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    op = Op(wall, code, err.getvalue(), raised)
    op.problems = check.check_exit(code, op.stderr, raised)
    if not op.problems:
        try:
            op.problems = check.check_op(workload, doc, out_dir, ref)
            op.rows = check.output_rows(workload, out_dir)
        except (OSError, KeyError, ValueError) as exc:
            op.problems = [f"unreadable output: {exc!r}"]
    return op


def tail(walls):
    """(value, percentile, samples beyond): the highest TAIL_LADDER
    percentile (nearest rank) with at least TAIL_BEYOND samples above it;
    the median when there are too few samples for any of them."""
    xs = sorted(walls)
    n = len(xs)
    for pct in TAIL_LADDER[:-1]:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], pct, n - rank
    return statistics.median(xs), 50.0, n // 2


def import_package():
    sys.path.insert(0, SRC)
    import malaria_dde
    import malaria_dde.cli
    where = os.path.realpath(os.path.dirname(malaria_dde.__file__))
    if where != os.path.realpath(os.path.join(SRC, "malaria_dde")):
        raise RuntimeError(f"imported malaria_dde from {where}, not from {SRC}")
    return malaria_dde


# --------------------------------------------------------------------- run

def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "malaria_dde", "cli.py")):
        print(f"error: no package at {SRC}/malaria_dde; run from a checkout root",
              file=sys.stderr)
        return 2
    workload, seed = args.workload, args.seed
    command = command_of(workload)
    launches = 1 if args.quick else SETUP_LAUNCHES
    refs = check.load_reference().get(workload, {})
    seed_refs = refs.get(str(seed))
    work = os.path.join(WORK, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths = gen.write_pool(workload, seed, os.path.join(work, "inputs"))
        docs = gen.make_pool(workload, seed)
        ref_of = (lambda k: seed_refs[k]) if seed_refs else (lambda k: None)
        problems: list[str] = []
        lines = [f"workload = {workload}", f"seed = {seed}", f"inputs = {len(paths)}"]

        if args.trace:
            import_s, scipy_s = measure_import(command, paths, 1 if args.quick else 3)
        else:
            setup_s, setup_raw = measure_setup(command, paths, launches,
                                               warm=not args.quick)
            cold_s, cold_raw, found = measure_cold(workload, docs[0], paths[0],
                                                   os.path.join(work, "cold"),
                                                   1 if args.quick else COLD_RUNS,
                                                   ref_of(0))
            problems.extend(found)

        pkg = import_package()
        tracer = tracing.Tracer() if args.trace else None
        main = pkg.cli.main

        def op_at(k, with_trace=False):
            if with_trace:
                tracer.install()
            try:
                call = pkg.cli.main if with_trace else main
                return run_op(call, workload, docs[k], paths[k],
                              os.path.join(work, "out", f"{k:02d}"), ref_of(k))
            finally:
                if with_trace:
                    tracer.uninstall()

        for k in range(min(WARMUP_OPS, len(paths))):
            problems.extend(f"warm-up {k}: {p}" for p in op_at(k).problems)

        # whole passes over the pool, so every slot is sampled equally often;
        # untraced ops are bracketed by calibration loops (cals[i], cals[i+1])
        plain: list[Op] = []
        traced: list[Op] = []
        cals: list[float] = []
        deadline = time.perf_counter() + args.seconds
        passes = 0
        while time.perf_counter() < deadline:
            passes += 1
            for k in range(len(paths)):
                if tracer is None:
                    cals.append(calib.loop_seconds())
                    plain.append(op_at(k))
                    continue
                tracer.op = len(traced)
                if (passes + k) % 2:  # alternate which run goes first
                    traced.append(op_at(k, True))
                    plain.append(op_at(k))
                else:
                    plain.append(op_at(k))
                    traced.append(op_at(k, True))
        if tracer is None:
            cals.append(calib.loop_seconds())

        if not seed_refs and str(REFERENCE_REPLAY_SEED) in refs:
            replay = os.path.join(work, "replay")
            rpaths = gen.write_pool(workload, REFERENCE_REPLAY_SEED, replay)
            rdocs = gen.make_pool(workload, REFERENCE_REPLAY_SEED)
            for k in range(REFERENCE_REPLAY_OPS):
                op = run_op(main, workload, rdocs[k], rpaths[k],
                            os.path.join(replay, "out"), refs[str(REFERENCE_REPLAY_SEED)][k])
                problems.extend(f"reference replay {k}: {p}" for p in op.problems)
            lines.append(f"reference = replayed seed {REFERENCE_REPLAY_SEED} "
                         f"inputs 0..{REFERENCE_REPLAY_OPS - 1}")
        else:
            lines.append("reference = " + ("recorded for this seed" if seed_refs
                                           else "none for this workload"))

        ops = plain + traced
        failed = [op for op in ops if op.problems]
        for op in failed[:5]:
            problems.append("; ".join(op.problems[:3]))
        lines.append(f"ops = {len(ops)} (failed {len(failed)}, "
                     f"failed_frac {len(failed) / max(len(ops), 1):.6g})")

        if tracer is None:
            n_ok = sum(1 for op in plain if not op.problems)
            rows = sum(op.rows for op in plain)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

            def op_metrics(walls):
                t_val, t_pct, t_beyond = tail(walls)
                return {"op_p50_s": statistics.median(walls), "op_tail_s": t_val,
                        "ops_per_s": n_ok / sum(walls), "rows_per_s": rows / sum(walls),
                        "tail_note": f"p{t_pct:.4g}: {t_beyond} of {len(walls)} "
                                     f"samples beyond"}

            cal = op_metrics([calib.calibrated(op.wall, cals[i], cals[i + 1])
                              for i, op in enumerate(plain)])
            raw = {**op_metrics([op.wall for op in plain]),
                   "setup_s": setup_raw, "cold_cli_s": cold_raw}
            metrics = {"setup_s": setup_s, "cold_cli_s": cold_s,
                       **{k: cal[k] for k in ("op_p50_s", "op_tail_s", "ops_per_s",
                                              "rows_per_s")},
                       "peak_rss_mb": rss}
            out = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
            lines.append(f"calibration loop = {statistics.median(cals):.6g} s median "
                         f"(reference {calib.CALIBRATION_REF_S} s)")
            for k, v in metrics.items():
                note = f"  (uncalibrated {raw[k]:.6g})" if k in raw else ""
                if k == "op_tail_s":
                    note += f"  ({cal['tail_note']})"
                lines.append(f"{k} = {v:.6g} {E2E_UNITS[k]}{note}")
        else:
            errs = tracing.error_counts(tracer.spans, pkg.ValidationError,
                                      pkg.NumericalError)
            for op in traced:
                if op.raised is not None:
                    errs["uncaught"] += 1
                elif op.code == 1:
                    errs["validation"] += 1
                elif op.code == 2:
                    errs["numerical"] += 1
            m = tracing.layer_metrics(tracer.spans, [op.wall for op in traced], errs)
            m["setup.import_s"] = (import_s, "s")
            m["setup.import_scipy_s"] = (scipy_s, "s")
            m["trace.overhead_frac"] = (sum(op.wall for op in traced)
                                        / sum(op.wall for op in plain) - 1.0, "ratio")
            out = {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}
            lines.extend(f"{k} = {v['value']:.6g} {v['unit']}" for k, v in out.items())
            spans_path = os.path.join(TRACE_OUT, f"trace-{workload}-seed{seed}.jsonl")
            tracer.dump(spans_path)
            lines.append(f"spans = {len(tracer.spans)} written to "
                         f"{os.path.relpath(spans_path, ROOT)}")

        correct = not problems and not failed
        lines.append("checks = " + ("all passed" if correct else "FAILED"))
        lines.extend(f"  {p}" for p in problems[:20])
        print("\n".join(lines))
        print(json.dumps({"correct": correct, "attempted": len(ops),
                          "failed": len(failed), "metrics": out}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
