"""Energy-style certificates for the two global regimes.

Both functionals act on a sliding window psi of the solution over [t - tau, t]
and are built from the bridge x - 1 - ln x (nonnegative, zero only at 1):

* v_dfe anchors at the disease-free state; it is nonincreasing along the
  LIMITING system whenever R0 <= 1.
* v_endemic anchors at the endemic state (requires R0 > 1); nonincreasing
  along the limiting system on windows with strictly positive current state
  and I_v * S_h > 0 throughout.

One formula per functional serves v_dfe / v_endemic (one window) and
trace_along (every window of a limiting trajectory), where a max
consecutive increase at rounding scale certifies monotone descent. R0 picks
trace_along's functional: v_endemic where E* exists, v_dfe otherwise. One
function per functional computes its constants once, reading each divisor
through model._nonzero, before any pass.

Each formula reads a flat node buffer (four floats a node, as
`Trajectory.ys`) as columns ys[q::4], with its sample times, in plain floats
and three steps: it checks its domain first, hands its integrand at every
node to _windows, and adds its point terms at each node k >= m to that
node's window. _windows is the one window rule, the composite trapezoid
rule on the sample times: it sums the panels 0.5 * (f[k] + f[k-1]) *
(t[k] - t[k-1]) in order into cum[k] and gives cum[k] - cum[k-m], exactly
0.0 at m = 0. Every log is libm's math.log, so the values do not depend on
the CPU's SIMD features, and no numpy is loaded.
"""

from __future__ import annotations

import enum
import math
import operator
from array import array
from collections import namedtuple
from itertools import accumulate, chain, repeat
from typing import IO, Callable, Iterable, Sequence

from . import defaults
from .equilibria import _finite_star, _require_endemic, endemic_equilibrium
from .errors import (
    EmptyWindowError,
    InvalidSpecError,
    NonPositiveProductError,
    OutsideOmega1Error,
    OutsideOmega2Error,
)
from .integrator import SystemKind, Trajectory, _write_csv
from .model import _S_V0, HistorySegment, ModelParams, State, _nonzero

_Log = Callable[[float], float]


class FunctionalKind(enum.Enum):
    V_DFE = "v_dfe"
    V_ENDEMIC = "v_endemic"


class _Floats(array):
    """array('d') whose `size` is its length, as a numpy array's is
    (perfbench's tracer reads `trace.values.size`)."""

    @property
    def size(self) -> int:
        return len(self)


def _log0(x: float) -> float:
    """math.log with -inf at 0 and NaN below, where math.log raises."""
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan


def _dfe_constants(p: ModelParams) -> tuple[float, ...]:
    """_v_dfe's constants (S_h0, S_v0, coef, coef * S_v0, rate), each
    divisor checked nonzero (model._nonzero) as it is computed."""
    sh0 = _nonzero(p.s_h0, "S_h0 = beta_h / mu_h")
    sv0 = _nonzero(p.s_v0, _S_V0)
    coef = p.mu_v * p.mu_h / _nonzero(p.c_hv * p.beta_v, "c_hv * beta_v")
    return sh0, sv0, coef, coef * sv0, (p.mu_v / p.beta_v) * p.c_vh


def _endemic_constants(p: ModelParams, star: State) -> tuple[float, ...]:
    """_v_endemic's constants (E*'s four components, num, den, weight,
    scale) from p's finite E* star, each divisor checked nonzero as it is
    computed."""
    s_h, i_h, s_v, i_v = map(_nonzero, star, ("S_h*", "I_h*", "S_v*", "I_v*"))
    weight = p.mu_h * i_h / _nonzero(p.mu_v * i_v, "mu_v * I_v*")
    den = _nonzero(p.beta_v * p.mu_h * i_h, "beta_v * mu_h * I_h*")
    return s_h, i_h, s_v, i_v, p.mu_v * p.c_vh, den, weight, p.mu_h * i_h


def _require_divisors(p: ModelParams) -> tuple[FunctionalKind, tuple[float, ...]]:
    """trace_along's functional for p, V_ENDEMIC where E* exists (R0 > 1) and
    V_DFE otherwise (R0 <= 1), with its constants, once its divisors are
    each checked nonzero; so a caller can raise RateUnderflowError before it
    integrates the limiting run."""
    star = _finite_star(endemic_equilibrium(p))
    if star is None:
        return FunctionalKind.V_DFE, _dfe_constants(p)
    return FunctionalKind.V_ENDEMIC, _endemic_constants(p, star)


def _windows(f: Sequence[float], times: Sequence[float], m: int) -> Iterable[float]:
    """The trapezoid integral of f over the window of the m intervals ending
    at each node k >= m: cum[k] - cum[k - m], where cum[k] adds the panels
    0.5 * (f[j] + f[j-1]) * (t[j] - t[j-1]) for j = 1..k in order. Exactly
    0.0 at m = 0."""
    if not m:
        return repeat(0.0)
    cum = [0.0, *accumulate([0.5 * (g + g0) * (t - t0)
                             for g, g0, t, t0 in zip(f[1:], f, times[1:], times)])]
    return map(operator.sub, cum[m:], cum)


def _v_dfe(c: tuple[float, ...], ys: Sequence[float], times: Sequence[float], m: int,
           log: _Log) -> _Floats:
    """Disease-free functional at every node k >= m, each on the window of
    the m intervals ending at k, from _dfe_constants' c. Needs S_h > 0 and
    S_v > 0 there."""
    sh0, sv0, coef, coef_sv, rate = c
    sh, ih, sv, iv = (ys[q::4] for q in range(4))
    if [v for v in chain(sh[m:], sv[m:]) if not v > 0.0]:  # NaN fails too; faster than all()
        raise OutsideOmega1Error()
    windows = _windows([rate * d * a for a, d in zip(sh, iv)], times, m)
    return _Floats("d", [sh0 * (x - 1.0 - log(x)) + b + coef_sv * (y - 1.0 - log(y))
                         + coef * d + w
                         for a, b, c, d, w in zip(sh[m:], ih[m:], sv[m:], iv[m:], windows)
                         for x, y in [(a / sh0, c / sv0)]])


def _v_endemic(c: tuple[float, ...], ys: Sequence[float], times: Sequence[float], m: int,
               log: _Log) -> _Floats:
    """Endemic functional at every node k >= m, as _v_dfe, from
    _endemic_constants' c. Needs strictly positive states at k >= m, and
    I_v * S_h > 0 at every node; a state outside Omega2 is reported first."""
    s_h, i_h, s_v, i_v, num, den, weight, scale = c
    sh, ih, sv, iv = (ys[q::4] for q in range(4))
    if [v for v in ys[4 * m:] if not v > 0.0]:
        raise OutsideOmega2Error()
    prods = list(map(operator.mul, iv, sh))
    failed = next((t for t, prod in zip(times, prods) if prod <= 0.0), None)
    if failed is not None:
        raise NonPositiveProductError(failed)
    windows = _windows([x - 1.0 - log(x) for prod in prods for x in [num * prod / den]],
                       times, m)
    return _Floats("d", [(a - s_h - s_h * log(a / s_h)) + (b - i_h - i_h * log(b / i_h))
                         + weight * (c - s_v - s_v * log(c / s_v))
                         + weight * (d - i_v - i_v * log(d / i_v))
                         + scale * w
                         for a, b, c, d, w in zip(sh[m:], ih[m:], sv[m:], iv[m:], windows)])


_FORMULAS = {FunctionalKind.V_DFE: _v_dfe, FunctionalKind.V_ENDEMIC: _v_endemic}


def _values(kind: FunctionalKind, c: tuple[float, ...], ys: Sequence[float],
            times: Sequence[float], m: int) -> _Floats:
    """The functional `kind` with constants c at every node k >= m, logs by
    math.log; where a ratio underflows to 0 (math.log raises) the pass runs
    again with _log0, so that term is -inf and the value inf."""
    try:
        return _FORMULAS[kind](c, ys, times, m, math.log)
    except ValueError:
        return _FORMULAS[kind](c, ys, times, m, _log0)


def _window_value(kind: FunctionalKind, c: tuple[float, ...], psi: HistorySegment) -> float:
    """The functional on psi's one window, which ends at its last sample."""
    times = psi.times
    return _values(kind, c, psi.states, times, len(times) - 1)[0]


def v_dfe(p: ModelParams, psi: HistorySegment) -> float:
    """Disease-free functional on a window. Needs S_h(0) > 0 and S_v(0) > 0."""
    return _window_value(FunctionalKind.V_DFE, _dfe_constants(p), psi)


def v_endemic(p: ModelParams, psi: HistorySegment) -> float:
    """Endemic functional on a window. Needs R0 > 1, psi(0) strictly positive
    componentwise, and I_v * S_h > 0 at every window sample."""
    return _window_value(FunctionalKind.V_ENDEMIC, _endemic_constants(p, _require_endemic(p)),
                         psi)


class LyapunovTrace(namedtuple("LyapunovTrace", "kind times values max_increase")):
    """Functional values at every recorded node t >= tau, as array('d')."""

    __slots__ = ()

    def passes_descent(self) -> bool:
        """Monotone within DESCENT_SLACK_SCALE * (1 + |V at the first node|)."""
        return self.max_increase <= (defaults.DESCENT_SLACK_SCALE
                                     * (1.0 + abs(self.values[0])))

    def to_csv(self, target: str | IO[str]) -> None:
        _write_csv(target, "t,V", (self.times, self.values))


def trace_along(p: ModelParams, traj: Trajectory) -> LyapunovTrace:
    """The regime's functional along a limiting trajectory:
    V_ENDEMIC where E* exists (R0 > 1), V_DFE otherwise (R0 <= 1)."""
    if traj.system is not SystemKind.LIMITING:
        raise InvalidSpecError(f"the functionals descend along the limiting "
                               f"system, got a {traj.system.value} trajectory")
    kind, c = _require_divisors(p)
    nodes, m, h = traj.nodes, traj.m, traj.h
    if nodes - m < 2:
        raise EmptyWindowError("horizon too short: need at least two nodes past tau")
    times = [k * h for k in range(nodes)]
    values = _values(kind, c, traj.ys, times, m)
    steps = list(map(operator.sub, values[1:], values))
    # max skips a NaN after the first item; the largest increase is NaN then
    increase = math.nan if any(map(math.isnan, steps)) else max(steps)
    return LyapunovTrace(kind=kind, times=_Floats("d", times[m:]), values=values,
                         max_increase=increase)
