"""Energy-style certificates for the two global regimes.

Both functionals act on a sliding window psi of the solution over [t - tau, t]
and are built from the bridge x - 1 - ln x (nonnegative, zero only at 1):

* v_dfe anchors at the disease-free state; it is nonincreasing along the
  LIMITING system whenever R0 <= 1.
* v_endemic anchors at the endemic state (requires R0 > 1); nonincreasing
  along the limiting system on windows with strictly positive current state
  and I_v * S_h > 0 throughout.

Window integrals use the composite trapezoid rule on the window's own sample
times. One formula per functional serves v_dfe / v_endemic (one window) and
trace_along (every window of a limiting trajectory), where a max
consecutive increase at rounding scale certifies monotone descent. R0 picks
trace_along's functional: v_endemic where E* exists, v_dfe otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import IO

from . import defaults
from .equilibria import _require_endemic, endemic_equilibrium
from .errors import (
    EmptyWindowError,
    InvalidSpecError,
    NonPositiveProductError,
    OutsideOmega1Error,
    OutsideOmega2Error,
)
from .integrator import SystemKind, Trajectory, _write_csv
from .model import HistorySegment, ModelParams, np


class FunctionalKind(enum.Enum):
    V_DFE = "v_dfe"
    V_ENDEMIC = "v_endemic"


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise ln through libm's math.log. numpy's own log kernel depends
    on the CPU's SIMD features (one ulp apart on some inputs), so output
    read through it would change from machine to machine. Nonpositive
    entries give -inf or NaN, as np.log does."""
    try:
        return np.fromiter(map(math.log, x.tolist()), float, x.size)
    except ValueError:
        out = np.log(x)
        pos = x > 0
        out[pos] = _log(x[pos])
        return out


def _window_integrals(integrand: np.ndarray, times: np.ndarray, m: int) -> np.ndarray:
    """Trapezoid integral over [t_(k-m), t_k] for every sample k >= m."""
    if m == 0:
        return np.zeros(times.size)
    panels = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(times)
    cum = np.concatenate([[0.0], np.cumsum(panels)])
    return cum[m:] - cum[:cum.size - m]


def _v_dfe(p: ModelParams, times: np.ndarray, states: np.ndarray,
           m: int) -> np.ndarray:
    """Disease-free functional at every sample k >= m, each on the window of
    the m sample intervals ending at k. Needs S_h > 0 and S_v > 0 there."""
    x1, x2, x3, x4 = (states[m:, k] for k in range(4))
    if not (np.all(x1 > 0) and np.all(x3 > 0)):
        raise OutsideOmega1Error()
    sh0, sv0 = p.s_h0, p.s_v0
    coef = p.mu_v * p.mu_h / (p.c_hv * p.beta_v)
    point = (sh0 * (x1 / sh0 - 1.0 - _log(x1 / sh0)) + x2
             + coef * sv0 * (x3 / sv0 - 1.0 - _log(x3 / sv0)) + coef * x4)
    integrand = (p.mu_v / p.beta_v) * p.c_vh * states[:, 3] * states[:, 0]
    return point + _window_integrals(integrand, times, m)


def _v_endemic(p: ModelParams, times: np.ndarray, states: np.ndarray,
               m: int) -> np.ndarray:
    """Endemic functional at every sample k >= m, as _v_dfe. Needs R0 > 1,
    strictly positive states at k >= m, and I_v * S_h > 0 at every sample."""
    star = _require_endemic(p)
    if not np.all(states[m:] > 0):
        raise OutsideOmega2Error()
    prod = states[:, 3] * states[:, 0]
    bad = np.nonzero(prod <= 0)[0]
    if bad.size:
        raise NonPositiveProductError(float(times[bad[0]]))
    x1, x2, x3, x4 = (states[m:, k] for k in range(4))
    weight = p.mu_h * star.i_h / (p.mu_v * star.i_v)
    point = ((x1 - star.s_h - star.s_h * _log(x1 / star.s_h))
             + (x2 - star.i_h - star.i_h * _log(x2 / star.i_h))
             + weight * (x3 - star.s_v - star.s_v * _log(x3 / star.s_v))
             + weight * (x4 - star.i_v - star.i_v * _log(x4 / star.i_v)))
    xarg = p.mu_v * p.c_vh * prod / (p.beta_v * p.mu_h * star.i_h)
    integrand = xarg - 1.0 - _log(xarg)
    return point + p.mu_h * star.i_h * _window_integrals(integrand, times, m)


_FORMULAS = {FunctionalKind.V_DFE: _v_dfe, FunctionalKind.V_ENDEMIC: _v_endemic}


def v_dfe(p: ModelParams, psi: HistorySegment) -> float:
    """Disease-free functional on a window. Needs S_h(0) > 0 and S_v(0) > 0."""
    return float(_v_dfe(p, psi.times, psi.states, psi.times.size - 1)[0])


def v_endemic(p: ModelParams, psi: HistorySegment) -> float:
    """Endemic functional on a window. Needs R0 > 1, psi(0) strictly positive
    componentwise, and I_v * S_h > 0 at every window sample."""
    return float(_v_endemic(p, psi.times, psi.states, psi.times.size - 1)[0])


@dataclass(frozen=True)
class LyapunovTrace:
    """Functional values at every recorded node t >= tau."""

    kind: FunctionalKind
    times: np.ndarray
    values: np.ndarray
    max_increase: float

    def passes_descent(self) -> bool:
        """Monotone within DESCENT_SLACK_SCALE * (1 + |V at the first node|)."""
        return self.max_increase <= (defaults.DESCENT_SLACK_SCALE
                                     * (1.0 + abs(float(self.values[0]))))

    def to_csv(self, target: str | IO[str]) -> None:
        _write_csv(target, "t,V", (self.times.tolist(), self.values.tolist()))


def trace_along(p: ModelParams, traj: Trajectory) -> LyapunovTrace:
    """The regime's functional along a limiting trajectory:
    V_ENDEMIC where E* exists (R0 > 1), V_DFE otherwise (R0 <= 1)."""
    if traj.system is not SystemKind.LIMITING:
        raise InvalidSpecError(f"the functionals descend along the limiting "
                               f"system, got a {traj.system.value} trajectory")
    kind = (FunctionalKind.V_DFE if endemic_equilibrium(p) is None
            else FunctionalKind.V_ENDEMIC)
    times, m = traj.times, traj.m
    if times.size - m < 2:
        raise EmptyWindowError("horizon too short: need at least two nodes past tau")
    values = _FORMULAS[kind](p, times, traj.states, m)
    increase = float(np.max(np.diff(values)))
    return LyapunovTrace(kind=kind, times=times[m:], values=values,
                         max_increase=increase)
