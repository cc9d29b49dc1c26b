"""Seeded input generator for the three benchmark workloads.

Each workload is a fixed-size pool of JSON inputs (scenario files for
`simulate`, sweep files for the two sweep workloads). The seed draws the
numbers: rates, reproduction numbers, histories and the full/limiting
choice. The shape of the work does not depend on the seed: each pool slot
has a fixed mesh (tau, t_end, slowest death rate, fastest rate) and a fixed
side of R0 = 1, so every seed asks for the same number of RK4 steps, CSV
rows and root searches. That keeps op latency comparable across seeds while
the values the program computes differ.

Only the standard library is used, so the inputs for a seed are identical
whatever numpy version is installed.

The module also holds the benchmark's own closed forms (R0 and the endemic
state), derived independently of the package, which the output checks
compare against.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("simulate", "sweep_tail", "stability_scan")
POOL_SIZE = {"simulate": 12, "sweep_tail": 8, "stability_scan": 8}

# simulate: (tau, t_end) per slot, so RK4 steps per integration are
# 20 * t_end / tau, between 2,000 and 7,500. Slots alternate R0 > 1 and
# R0 < 1 and both sides cover the range, so op costs interleave: the sixth
# and seventh dearest slots (the median) cost about the same, and the 90th
# percentile falls inside the second dearest slot.
SIMULATE_MESH = ((1.0, 250.0), (2.0, 200.0), (0.8, 300.0), (1.4, 280.0),
                 (1.25, 275.0), (1.0, 300.0), (1.4, 200.0), (0.95, 250.0),
                 (2.0, 300.0), (0.9, 240.0), (1.6, 240.0), (0.8, 240.0))
SIMULATE_STEPS_PER_DELAY = 20

# Host contention makes op latency bimodal (about 1.4x between the modes).
# Sweeps of different lengths spread the slot costs wider than that, so the
# median moves smoothly with the share of contended ops instead of jumping
# from one mode to the other.
#
# sweep_tail: horizon is the package default 40 / min(mu_h, mu_v); mu_v is
# the slower rate and fixed per slot, beta_v (the fastest rate, which sets
# the tau = 0 step 0.1 / beta_v) is fixed for the whole workload. Even slots
# sweep c_vh (base tau, number of values), odd slots sweep tau (values).
SWEEP_TAIL_MU_V = (0.2, 0.25, 0.2, 0.25, 0.2, 0.25, 0.2, 0.25)
SWEEP_TAIL_C_VH = ((1.0, 2), (0.8, 3), (1.25, 5), (1.0, 6))
SWEEP_TAIL_TAU_VALUES = ((0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 0.5, 1.0, 2.0),
                         (0.0, 0.5, 1.0, 1.5, 2.0, 3.0))
SWEEP_TAIL_BETA_V = 5.0

STABILITY_ROWS = (12, 16, 20, 24, 28, 32, 36, 40)
STABILITY_R0_RANGE = (0.3, 3.0)


def r0_sq(p: dict) -> float:
    """Squared reproduction number c_vh c_hv beta_h / (mu_h^2 mu_v)."""
    return (p["c_vh"] * p["c_hv"] * p["beta_h"]) / (p["mu_h"] ** 2 * p["mu_v"])


def r0(p: dict) -> float:
    return math.sqrt(r0_sq(p))


def endemic_state(p: dict) -> tuple[float, float, float, float] | None:
    """Endemic steady state from the steady-state equations, or None.

    N_v = beta_v / mu_v and S_h + I_h = beta_h / mu_h; eliminating S_v and
    I_v leaves one linear equation for I_h.
    """
    if r0_sq(p) <= 1.0:
        return None
    i_h = ((p["c_vh"] * p["c_hv"] * p["beta_h"] / p["mu_h"] - p["mu_h"] * p["mu_v"])
           / (p["c_hv"] * (p["c_vh"] + p["mu_h"])))
    s_h = p["beta_h"] / p["mu_h"] - i_h
    s_v = p["beta_v"] / (p["c_hv"] * i_h + p["mu_v"])
    i_v = p["beta_v"] / p["mu_v"] - s_v
    return (s_h, i_h, s_v, i_v)


def _c_vh_for(p: dict, target_r0: float) -> float:
    return target_r0 ** 2 * p["mu_h"] ** 2 * p["mu_v"] / (p["c_hv"] * p["beta_h"])


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    vals = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(vals)
    return vals


def _base_rates(rng: random.Random) -> dict:
    return {"beta_h": rng.uniform(1.5, 2.5), "beta_v": rng.uniform(4.0, 6.0),
            "mu_h": rng.uniform(0.4, 0.6), "mu_v": rng.uniform(0.08, 0.12),
            "c_vh": 0.0, "c_hv": rng.uniform(0.08, 0.12), "tau": 1.0}


def _constant_history(rng: random.Random, p: dict) -> dict:
    s_h0 = p["beta_h"] / p["mu_h"]
    s_v0 = p["beta_v"] / p["mu_v"]
    return {"kind": "constant",
            "state": [rng.uniform(0.5, 1.5) * s_h0, rng.uniform(0.05, 0.5) * s_h0,
                      rng.uniform(0.5, 1.5) * s_v0, rng.uniform(0.05, 0.5) * s_v0]}


def _history(rng: random.Random, p: dict, slot: int) -> dict:
    # every fourth slot lets the package draw the history from its own
    # seeded generator (CLI --seed defaults to 0)
    if slot % 4 == 3:
        return {"kind": "random"}
    return _constant_history(rng, p)


def _simulate_pool(rng: random.Random) -> list[dict]:
    n = POOL_SIZE["simulate"]
    above = _strata(rng, n // 2, 1.2, 2.0)
    below = _strata(rng, n // 2, 0.4, 0.85)
    pool = []
    for slot, (tau, t_end) in enumerate(SIMULATE_MESH):
        endemic = slot % 2 == 0
        p = _base_rates(rng)
        p["tau"] = tau
        p["c_vh"] = _c_vh_for(p, above[slot // 2] if endemic else below[slot // 2])
        analyses = {"simulate": True, "stability": True, "lyapunov": True}
        if endemic:
            analyses["persistence"] = [0.5, 0.9]
        pool.append({
            "schema": 1,
            "params": p,
            "history": _history(rng, p, slot),
            "integration": {"system": "full", "t_end": t_end,
                            "steps_per_delay": SIMULATE_STEPS_PER_DELAY,
                            "record_stride": 1},
            "analyses": analyses,
        })
    return pool


def _sweep_tail_pool(rng: random.Random) -> list[dict]:
    n = POOL_SIZE["sweep_tail"]
    systems = ["full", "limiting"] * (n // 2)
    rng.shuffle(systems)
    pool = []
    for slot in range(n):
        p = _base_rates(rng)
        p["beta_v"] = SWEEP_TAIL_BETA_V
        p["mu_v"] = SWEEP_TAIL_MU_V[slot]
        if slot % 2 == 0:
            axis = "c_vh"
            p["tau"], rows = SWEEP_TAIL_C_VH[slot // 2]
            r0s = sorted(_strata(rng, rows // 2, 0.5, 0.9)
                         + _strata(rng, rows - rows // 2, 1.2, 2.0))
            values = [_c_vh_for(p, x) for x in r0s]
            p["c_vh"] = values[0]
        else:
            axis = "tau"
            values = list(SWEEP_TAIL_TAU_VALUES[slot // 2])
            p["tau"] = values[0]
            side = (1.2, 2.0) if slot % 4 == 1 else (0.5, 0.9)
            p["c_vh"] = _c_vh_for(p, rng.uniform(*side))
        pool.append({
            "schema": 1,
            "base": {"params": p, "history": _history(rng, p, slot),
                     "integration": {"system": systems[slot]}},
            "axis": axis,
            "values": values,
            "columns": ["tail", "classification"],
        })
    return pool


def _stability_pool(rng: random.Random) -> list[dict]:
    lo, hi = (math.log(x) for x in STABILITY_R0_RANGE)
    pool = []
    for rows in STABILITY_ROWS:
        p = _base_rates(rng)
        p["tau"] = rng.uniform(0.0, 3.0)
        r0s = sorted(math.exp(x) for x in _strata(rng, rows, lo, hi))
        values = [_c_vh_for(p, x) for x in r0s]
        p["c_vh"] = values[0]
        pool.append({
            "schema": 1,
            "base": {"params": p, "history": _constant_history(rng, p)},
            "axis": "c_vh",
            "values": values,
            "columns": ["r0", "classification", "e_star"],
        })
    return pool


_POOLS = {"simulate": _simulate_pool, "sweep_tail": _sweep_tail_pool,
          "stability_scan": _stability_pool}


def make_pool(workload: str, seed: int) -> list[dict]:
    """The workload's inputs for this seed, in the order the loop runs them."""
    return _POOLS[workload](random.Random(f"{workload}:{seed}"))


def write_pool(workload: str, seed: int, directory: str) -> list[str]:
    """Write the pool as input_NN.json files and return their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k, doc in enumerate(make_pool(workload, seed)):
        path = os.path.join(directory, f"input_{k:02d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        paths.append(path)
    return paths
