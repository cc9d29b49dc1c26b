"""Shared reference parameter sets, randomized samplers, run helpers, and
the acceptance summary hook (one PASS/FAIL line per criterion at the end of
the run)."""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import settings

from malaria_dde import (
    STEPS_PER_DELAY,
    HistorySegment,
    IntegrationSpec,
    ModelParams,
    SystemKind,
    integrate,
    r0_squared,
    trace_along,
)
from malaria_dde.integrator import _node_deriv

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env() -> dict[str, str]:
    """The environment for a child interpreter: this tree's src first on
    PYTHONPATH (pytest's own pythonpath setting reaches only this process)."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path,
                PYTHONDONTWRITEBYTECODE="1")


# numpy arrays of a recorded run's nodes, for tests that compare them whole

def times_of(traj) -> np.ndarray:
    """The node times k * h of a recorded run, as a float64 array."""
    return np.arange(traj.steps + 1) * traj.h


def states_of(traj) -> np.ndarray:
    """The node states of a recorded run, one row of four per node (a view
    of `traj.ys`)."""
    return np.frombuffer(traj.ys).reshape(-1, 4)


def derivs_of(traj) -> np.ndarray:
    """The node derivatives of a recorded run, one row of four per node,
    as the step loop computed them."""
    return np.array([_node_deriv(traj, k) for k in range(traj.nodes)])


# One reference set per threshold regime. All rates are dyadic so closed
# forms evaluate without rounding.
P_SUPER = ModelParams(beta_h=2.0, beta_v=5.0, mu_h=0.5, mu_v=0.1,
                      c_vh=0.2, c_hv=0.1, tau=1.0)       # R0^2 = 1.6
P_SUB = P_SUPER._replace(c_vh=0.05, c_hv=0.05)           # R0^2 = 0.2
P_CRIT = ModelParams(beta_h=1.0, beta_v=5.0, mu_h=1.0, mu_v=0.25,
                     c_vh=0.5, c_hv=0.5, tau=1.0)        # R0^2 = 1 exactly
# admissible rates whose S_v0 = beta_v / mu_v underflows to 0
P_SV0_UNDERFLOW = P_CRIT._replace(beta_v=5e-324, mu_v=3.0)

TAU_CHOICES = (0.0, 0.5, 1.0, 2.0)


def draw_params(rng: np.random.Generator, tau: float | None = None) -> ModelParams:
    """A positive parameter set with no constraint on the regime."""
    return ModelParams(
        beta_h=rng.uniform(0.5, 5.0),
        beta_v=rng.uniform(0.5, 8.0),
        mu_h=rng.uniform(0.05, 1.0),
        mu_v=rng.uniform(0.05, 1.0),
        c_vh=rng.uniform(0.01, 1.0),
        c_hv=rng.uniform(0.01, 1.0),
        tau=float(rng.choice(TAU_CHOICES)) if tau is None else tau,
    )


def draw_in_regime(rng, lo, hi, tau=None):
    """Rescale c_vh so the squared reproduction number lands in [lo, hi]."""
    p = draw_params(rng, tau)
    target = rng.uniform(lo, hi)
    return p._replace(c_vh=p.c_vh * target / r0_squared(p))


def draw_supercritical(rng, tau=None):
    return draw_in_regime(rng, 1.2, 9.0, tau)


def draw_subcritical(rng, tau=None):
    return draw_in_regime(rng, 0.05, 0.85, tau)


def constant_history(p: ModelParams, rng, infected_floor: float = 0.01
                     ) -> HistorySegment:
    """Constant history scaled to the disease-free pools.

    infected_floor > 0 keeps the infection seeded (I_h(0) > 0); pass 0.0 to
    allow histories on the boundary of the cone.
    """
    return HistorySegment.constant((
        rng.uniform(0.2, 2.0) * p.s_h0,
        rng.uniform(infected_floor, 1.0) * p.s_h0,
        rng.uniform(0.2, 2.0) * p.s_v0,
        rng.uniform(0.01, 1.0) * p.s_v0), p.tau)


def table_history(p: ModelParams, rng, infected_floor: float = 0.01) -> HistorySegment:
    """Piecewise-linear table history on [-tau, 0], for tau > 0.

    3 to 17 samples, each component drawn as constant_history draws it. The
    inner sample times fall in distinct cells of the m = 20 mesh on
    [-tau, 0], 0.1 to 0.9 of a step past a node, so none sits on a node. In
    half the draws I_h or I_v is 0 from -tau to an inner sample (a whole
    piece) and positive at 0.
    """
    n = int(rng.integers(3, 18))
    m = STEPS_PER_DELAY
    cells = np.sort(rng.choice(m, n - 2, replace=False))
    inner = -p.tau + (cells + rng.uniform(0.1, 0.9, n - 2)) * (p.tau / m)
    rows = np.column_stack([rng.uniform(0.2, 2.0, n) * p.s_h0,
                            rng.uniform(infected_floor, 1.0, n) * p.s_h0,
                            rng.uniform(0.2, 2.0, n) * p.s_v0,
                            rng.uniform(0.01, 1.0, n) * p.s_v0])
    if rng.random() < 0.5:
        rows[:rng.integers(2, n), rng.choice((1, 3))] = 0.0
    return HistorySegment.table([-p.tau, *inner.tolist(), 0.0], rows.tolist())


def limiting_trace(p, phi, kind, t_end):
    """The regime's functional along a run of the limiting system,
    asserted to be the functional `kind` the caller expects."""
    spec = IntegrationSpec(SystemKind.LIMITING, t_end)
    trace = trace_along(p, integrate(p, phi, spec))
    assert trace.kind is kind
    return trace


def convergence_order(p, phi, spec):
    """Observed order via Richardson: runs with m and 2m measured against a
    4m reference on the coarse nodes; the expected value for a 4th-order
    stepper is log2(255/15) ~ 4.09. Needs tau > 0.

    Returns None when the coarse error is already below 1e-12 (exactness
    floor, e.g. a history resting at an equilibrium).
    """
    m = spec.steps_per_delay
    coarse, mid, ref = (
        integrate(p, phi, spec._replace(steps_per_delay=k * m))
        for k in (1, 2, 4))
    n = coarse.nodes
    ys, ym, yr = (states_of(traj) for traj in (coarse, mid, ref))
    err1 = float(np.max(np.abs(ys - yr[::4][:n])))
    err2 = float(np.max(np.abs(ym[::2][:n] - yr[::4][:n])))
    if err1 < 1e-12 or err2 <= 0.0:
        return None
    return math.log2(err1 / err2)


@pytest.fixture
def no_runs_at_tiny_delays(monkeypatch):
    """Fail at once, rather than hang, if integrate starts reading a history
    whose tau is below 1e-200 (0 included): the step-ceiling tests feed it
    meshes of about 1e202 steps, which only the ceiling stops."""
    real = HistorySegment.value_at

    def guarded(self, theta):
        assert self.tau >= 1e-200, "integrate started a run past the step ceiling"
        return real(self, theta)
    monkeypatch.setattr(HistorySegment, "value_at", guarded)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


CRITERIA = {
    1: "equilibrium closed forms and residuals",
    2: "reproduction-number identities",
    3: "spectral trichotomy",
    4: "integrator order and conservation",
    5: "global convergence by regime",
    6: "Lyapunov descent",
    7: "weak persistence",
    8: "delay independence",
}

_ACCEPT = re.compile(r"test_acceptance\.py::test_c(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts: dict[int, bool] = {}
    for status, ok in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            m = _ACCEPT.search(getattr(rep, "nodeid", ""))
            if m and getattr(rep, "when", "call") == "call":
                k = int(m.group(1))
                verdicts[k] = verdicts.get(k, True) and ok
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(verdicts):
        word = "PASS" if verdicts[k] else "FAIL"
        terminalreporter.write_line(f"criterion {k} ({CRITERIA[k]}): {word}")
