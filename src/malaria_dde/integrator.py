"""Fixed-step RK4 with the delay resolved by mesh alignment.

With h = tau / steps_per_delay the delayed argument t - tau of any mesh node
is itself a mesh node, m steps back, so the lagged state is read off exactly.
The two half-step stages need the delayed state at an old interval midpoint;
that comes from the cubic Hermite interpolant of the (already computed)
interval m steps back, whose O(h^4) accuracy preserves the classical order.
Breakpoints of the solution (t = 0, tau, 2tau, ...) land on mesh nodes by
construction, so no step straddles a derivative jump.

The node derivatives kept for Hermite output double as the next step's k1
(first-same-as-last; Hairer, Norsett & Wanner, Solving ODEs I), so a step
makes 4 rhs calls: k2, k3, k4 and the new node's derivative.

Committed node states are clamped to 0 when a component undershoots within
-1e-9 (integration noise near an extinct compartment) and abort with
NegativityBreachError below that, which signals a step size too coarse for
the problem. A NaN or -inf node aborts with NonFiniteStateError from the
same branch. +inf passes the clamp, but each node is the previous one plus
an increment, so a component that reaches +inf stays +inf or turns NaN:
checking the final node once per run catches what the clamp lets through.
A division by zero inside an RK4 stage is a NegativityBreachError when the
stage state undershoots below the band, a ZeroMosquitoPopulationError
otherwise.
With tau = 0 the same stepper runs as a plain ODE RK4 where the delayed slot
is fed the current stage state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from typing import IO

import numpy as np

from . import defaults
from .errors import (
    EmptyWindowError,
    InvalidHistoryError,
    InvalidSpecError,
    NegativityBreachError,
    NonFiniteStateError,
    OutOfRangeError,
    ZeroMosquitoPopulationError,
)
from .model import (
    COMPONENT_NAMES,
    HistorySegment,
    ModelParams,
    State,
    _finite_real,
    _make_rhs,
    validate_params,
)

CSV_HEADER = "t,S_h,I_h,S_v,I_v"


class SystemKind(enum.Enum):
    FULL = "full"
    LIMITING = "limiting"


@dataclass(frozen=True)
class IntegrationSpec:
    """Mesh and recording controls.

    t_end = None integrates to 40 / min(mu_h, mu_v) of the params passed to
    integrate, so one spec gives each parameter set its own default horizon.
    steps_per_delay fixes h = tau / m when tau > 0; step fixes h directly
    when tau = 0 (None picks min(0.05, 0.1/max_rate)). record_stride thins
    the recorded nodes; the final node is always kept.
    """

    system: SystemKind = SystemKind.FULL
    t_end: float | None = None
    steps_per_delay: int = defaults.STEPS_PER_DELAY
    step: float | None = None
    record_stride: int = defaults.RECORD_STRIDE


@dataclass(frozen=True)
class Trajectory:
    """Recorded mesh solution with node derivatives for dense output."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    history: HistorySegment
    tau: float
    h: float
    system: SystemKind

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def window(self, t: float) -> HistorySegment:
        """Slice [t - tau, t] as a history segment (offsets in [-tau, 0]).

        Both endpoints must be recorded nodes; with record_stride = 1 that
        holds for every node t >= tau.
        """
        it = int(np.searchsorted(self.times, t))
        if it >= self.times.size or abs(self.times[it] - t) > 1e-9 * (1 + abs(t)):
            raise InvalidSpecError(f"t = {t!r} is not a recorded node")
        if self.tau == 0:
            return HistorySegment(np.array([0.0]),
                                  self.states[it:it + 1].copy(), 0.0)
        t0 = t - self.tau
        j0 = int(np.searchsorted(self.times, t0 - 1e-9 * (1 + abs(t0))))
        if j0 >= self.times.size or abs(self.times[j0] - t0) > 1e-9 * (1 + abs(t0)):
            raise InvalidSpecError(f"window start {t0!r} is not a recorded node")
        offsets = self.times[j0:it + 1] - t
        offsets[-1] = 0.0
        return HistorySegment(offsets, self.states[j0:it + 1].copy(), self.tau)

    def to_csv(self, target: str | IO[str]) -> None:
        """One row per recorded node, 17 significant digits."""
        _write_csv(target, CSV_HEADER, (self.times, *self.states.T))


def _write_csv(target: str | IO[str], header: str,
               columns: tuple[np.ndarray, ...]) -> None:
    """Header line, then one row per index of the equal-length columns, every
    value at 17 significant digits (round-trips a float64 exactly)."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    text = header + "\n" + "".join(row % r for r in zip(*(c.tolist() for c in columns)))
    if isinstance(target, str):
        with open(target, "w") as fh:
            fh.write(text)
    else:
        target.write(text)


def _clamp(value: float, t: float, comp: int) -> float:
    if value >= 0.0:
        return value
    if value >= -defaults.CLAMP_BAND:
        return 0.0
    if not math.isfinite(value):
        raise NonFiniteStateError(t, COMPONENT_NAMES[comp], value)
    raise NegativityBreachError(t, COMPONENT_NAMES[comp], value)


def integrate(p: ModelParams, phi: HistorySegment, spec: IntegrationSpec) -> Trajectory:
    """March the system from history phi to spec.t_end.

    t_end is rounded up to the nearest mesh multiple; the trajectory's own
    times record what was actually integrated.
    """
    tau = validate_params(p).tau
    if abs(phi.tau - tau) > 1e-9 * (1.0 + abs(tau)):
        raise InvalidHistoryError(f"history spans tau = {phi.tau!r} but params "
                                  f"have tau = {tau!r}")
    if not isinstance(spec.system, SystemKind):
        raise InvalidSpecError(f"system must be a SystemKind, got {spec.system!r}")
    t_end = defaults.default_t_end(p.mu_h, p.mu_v) if spec.t_end is None else spec.t_end
    if not (_finite_real(t_end) and t_end > 0):
        raise InvalidSpecError(f"t_end must be positive and finite, got {t_end!r}")
    for name in ("steps_per_delay", "record_stride"):  # the loader's count rule
        n = getattr(spec, name)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InvalidSpecError(f"{name} must be an integer >= 1")
    if not (spec.step is None or (_finite_real(spec.step) and spec.step > 0)):
        raise InvalidSpecError(f"step must be positive and finite, got {spec.step!r}")

    if tau > 0:
        m, h = spec.steps_per_delay, tau / spec.steps_per_delay
    else:
        m, h = 0, spec.step or defaults.default_ode_step(p.max_rate)

    n_exact = t_end / h
    n_steps = int(round(n_exact))
    if abs(n_exact - n_steps) > 1e-9 * max(1.0, abs(n_exact)):
        n_steps = int(math.ceil(n_exact))
    if n_steps < 1:
        raise InvalidSpecError("t_end must be at least one step h")

    rhs = _make_rhs(p, limiting=spec.system is SystemKind.LIMITING)
    hh = 0.5 * h
    sixth = h / 6.0
    eighth = 0.125 * h

    def hist(theta: float) -> tuple[float, float, float, float]:
        a, b, c, d = phi.value_at(theta)
        return (float(a), float(b), float(c), float(d))

    y0 = hist(0.0)
    if y0[2] + y0[3] <= 0.0:
        raise ZeroMosquitoPopulationError(0.0)
    # nodes and their derivatives as 4-tuples; F[n] is also step n's k1
    Y = [y0]
    F = [rhs(y0, hist(-tau) if tau > 0 else y0)]

    for n in range(n_steps):
        a, b, c, d = Y[n]
        k1 = F[n]
        t_next = (n + 1) * h
        try:
            # y is the latest stage state, read when a stage divides by 0
            y = (a + hh * k1[0], b + hh * k1[1], c + hh * k1[2], d + hh * k1[3])
            if tau > 0:
                j = n - m
                if j >= 0:
                    d1, d4, f1, f4 = Y[j], Y[j + 1], F[j], F[j + 1]
                    d2 = (0.5 * (d1[0] + d4[0]) + eighth * (f1[0] - f4[0]),
                          0.5 * (d1[1] + d4[1]) + eighth * (f1[1] - f4[1]),
                          0.5 * (d1[2] + d4[2]) + eighth * (f1[2] - f4[2]),
                          0.5 * (d1[3] + d4[3]) + eighth * (f1[3] - f4[3]))
                else:
                    d4 = Y[0] if j == -1 else hist(t_next - tau)
                    d2 = hist(n * h + hh - tau)
                k2 = rhs(y, d2)
                y = (a + hh * k2[0], b + hh * k2[1], c + hh * k2[2], d + hh * k2[3])
                k3 = rhs(y, d2)
                y = (a + h * k3[0], b + h * k3[1], c + h * k3[2], d + h * k3[3])
                k4 = rhs(y, d4)
            else:
                k2 = rhs(y, y)
                y = (a + hh * k2[0], b + hh * k2[1], c + hh * k2[2], d + hh * k2[3])
                k3 = rhs(y, y)
                y = (a + h * k3[0], b + h * k3[1], c + h * k3[2], d + h * k3[3])
                k4 = rhs(y, y)

            na = a + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
            nb = b + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
            nc = c + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
            nd = d + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
        except ZeroDivisionError:
            # committed nodes keep S_v + I_v > 0, so the zero total is in a
            # stage; a stage component below the band means the step
            # overshot, not that the mosquito pool died out
            for comp, value in enumerate(y):
                if value < -defaults.CLAMP_BAND:
                    raise NegativityBreachError(t_next, COMPONENT_NAMES[comp],
                                                value) from None
            raise ZeroMosquitoPopulationError(t_next) from None

        # a NaN fails `>= 0` too, and _clamp reports it
        na = na if na >= 0.0 else _clamp(na, t_next, 0)
        nb = nb if nb >= 0.0 else _clamp(nb, t_next, 1)
        nc = nc if nc >= 0.0 else _clamp(nc, t_next, 2)
        nd = nd if nd >= 0.0 else _clamp(nd, t_next, 3)
        if nc + nd <= 0.0:
            raise ZeroMosquitoPopulationError(t_next)

        node = (na, nb, nc, nd)
        Y.append(node)
        F.append(rhs(node, d4 if tau > 0 else node))

    for comp, value in enumerate(Y[-1]):
        if not math.isfinite(value):
            raise NonFiniteStateError(n_steps * h, COMPONENT_NAMES[comp], value)

    states = np.fromiter(chain.from_iterable(Y), float, 4 * len(Y)).reshape(-1, 4)
    derivs = np.fromiter(chain.from_iterable(F), float, 4 * len(F)).reshape(-1, 4)
    stride = spec.record_stride
    ia = np.append(np.arange(0, n_steps, stride), n_steps)  # the final node always
    if stride > 1:
        states, derivs = states[ia], derivs[ia]
    times = ia * h
    return Trajectory(times=times, states=states, derivs=derivs, history=phi,
                      tau=float(tau), h=h, system=spec.system)


def dense_eval(traj: Trajectory, t: float) -> State:
    """Evaluate the solution at any t in [-tau, t_end].

    Mesh nodes are returned bit-exact from storage; history times use the
    history's own (piecewise-linear) interpolation; anything else is the
    cubic Hermite interpolant of the bracketing recorded interval.
    """
    eps = 1e-9 * (1.0 + abs(traj.t_end))
    if not (-traj.tau - eps <= t <= traj.t_end + eps):  # NaN fails too
        raise OutOfRangeError(t, -traj.tau, traj.t_end)
    if t < 0.0:
        if traj.tau > 0.0:
            return traj.history.state_at(t)
        t = 0.0

    times = traj.times
    i = int(np.searchsorted(times, t))
    if i < times.size and times[i] == t:
        return State(*traj.states[i])
    if i >= times.size:
        return State(*traj.states[-1])

    t0, t1 = times[i - 1], times[i]
    w = t1 - t0
    s = (t - t0) / w
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    y0, y1 = traj.states[i - 1], traj.states[i]
    f0, f1 = traj.derivs[i - 1], traj.derivs[i]
    out = []
    for k in range(4):
        v = h00 * y0[k] + h10 * w * f0[k] + h01 * y1[k] + h11 * w * f1[k]
        out.append(_clamp(float(v), t, k))
    return State(*out)


@dataclass(frozen=True)
class TailStats:
    """Componentwise inf/sup over the recorded nodes in
    [TAIL_WINDOW * t_end, t_end]."""

    t_start: float
    inf: State
    sup: State


def tail_stats(traj: Trajectory) -> TailStats:
    cut = defaults.TAIL_WINDOW * traj.t_end
    mask = traj.times >= cut - 1e-12 * (1.0 + abs(cut))
    if int(mask.sum()) < 2:
        raise EmptyWindowError()
    block = traj.states[mask]
    lo = block.min(axis=0)
    hi = block.max(axis=0)
    return TailStats(t_start=float(traj.times[mask][0]),
                     inf=State(*(float(x) for x in lo)),
                     sup=State(*(float(x) for x in hi)))
