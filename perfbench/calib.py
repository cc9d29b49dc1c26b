"""Calibration: fixed work that does not use the package, run beside each
measurement so that the host's changing speed can be divided out.

The benchmark shares its host with other machines' load. On a 2-vCPU
sandbox the speed of the same interpreter loop swings by a third between
runs minutes apart, and by up to 1.4x between neighbouring ops. Two
references track that:

* a loop (`loop_seconds`): a pure-Python RK4 march over 4-tuples, a numpy
  array built from the lists and `%.17g` CSV formatting, the same kinds of
  work as the package's ops. Every timed op of the closed loop is bracketed
  by two runs of it.
* a start (`start_seconds`): a fresh interpreter that imports numpy and the
  standard modules the CLI uses. Every set-up launch and cold CLI run is
  bracketed by two of them; a fresh interpreter's start did not track the
  loop in measurements, but it does track this.

A measurement is scaled to what it would have been at the speed at which
its reference takes the fixed REF time:

    calibrated = measured * REF / mean(reference before, reference after)

Neither reference imports malaria_dde, so a change to the package cannot
move them. Do not change them or their REF constants: together they define
the unit of every time the benchmark reports.
"""

from __future__ import annotations

import io
import os
import statistics
import subprocess
import sys
import time

import numpy as np

CALIBRATION_STEPS = 1300
# about each reference's median time on the 2-vCPU 2.0 GHz Xeon sandbox
# (Python 3.11, numpy 2.4) where the benchmark was defined
CALIBRATION_REF_S = 0.015
START_REF_S = 0.22
START_CODE = "import argparse, csv, json, numpy"


def _rhs(a, b, c, d):
    flux = 0.3 * a * d / (c + d)
    return (1.0 - flux - 0.1 * a, flux - 0.2 * b,
            2.0 - 0.05 * b * c - 0.1 * c, 0.05 * b * c - 0.1 * d)


def _work() -> int:
    h = 0.01
    ys = [(5.0, 1.0, 10.0, 2.0)]
    for _ in range(CALIBRATION_STEPS):
        a, b, c, d = ys[-1]
        k1 = _rhs(a, b, c, d)
        k2 = _rhs(a + 0.5 * h * k1[0], b + 0.5 * h * k1[1],
                  c + 0.5 * h * k1[2], d + 0.5 * h * k1[3])
        k3 = _rhs(a + 0.5 * h * k2[0], b + 0.5 * h * k2[1],
                  c + 0.5 * h * k2[2], d + 0.5 * h * k2[3])
        k4 = _rhs(a + h * k3[0], b + h * k3[1], c + h * k3[2], d + h * k3[3])
        ys.append(tuple(y + h / 6.0 * (p + 2.0 * q + 2.0 * r + s)
                        for y, p, q, r, s in zip((a, b, c, d), k1, k2, k3, k4)))
    buf = io.StringIO()
    for row in np.asarray(ys):
        buf.write(f"{row[0]:.17g},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g}\n")
    return len(buf.getvalue())


def loop_seconds() -> float:
    """Wall time of one run of the calibration loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def start_seconds(env: dict) -> float:
    """Wall time of one fresh interpreter running START_CODE."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", START_CODE], env=env, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


def calibrated(measured: float, before: float, after: float,
               ref: float = CALIBRATION_REF_S) -> float:
    """`measured` scaled to the speed at which its reference takes `ref`."""
    return measured * ref / (0.5 * (before + after))


def calibrated_launches(measure, times: int, env: dict) -> tuple[float, float]:
    """Median of `times` calls of measure() (each a fresh-interpreter wall
    time) interleaved with START_CODE launches: (calibrated, uncalibrated)."""
    refs = [start_seconds(env)]
    raw = []
    for _ in range(times):
        raw.append(measure())
        refs.append(start_seconds(env))
    cal = [calibrated(x, refs[i], refs[i + 1], START_REF_S) for i, x in enumerate(raw)]
    return statistics.median(cal), statistics.median(raw)
