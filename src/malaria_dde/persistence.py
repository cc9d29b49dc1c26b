"""Weak persistence of the infection above the endemic level.

For R0 > 1 and a persistence fraction theta in (0, 1), the susceptible pools
along any solution seeded with I_h(0) > 0 are eventually bounded below by

    s_v_bar = beta_v / (theta * C_hv * I_h* + mu_v)      ( > S_v* )
    s_h_bar = beta_h / (C_vh * (1 - s_v_bar / S_v0) + mu_h)   ( > S_h* )

and the infectious pools cannot settle below theta times their endemic
levels. Both bounds meet the endemic state exactly at theta = 1, which is
why theta stays strictly inside (0, 1). weak_persistence_check certifies the
sup-form conditions on a given finite run of the full system by proxying
limsup/liminf with tail window extrema; it does not integrate.
"""

from __future__ import annotations

from collections import namedtuple

from .equilibria import _require_endemic
from .errors import (
    InvalidSpecError,
    NotInDomainDError,
    NumericalError,
    ThetaOutOfRangeError,
)
from .integrator import SystemKind, Trajectory, tail_stats
from .model import (_S_V0, COMPONENT_NAMES, HistorySegment, ModelParams, State,
                    _finite_real, _fmt, _nonzero)


class PersistenceBounds(namedtuple("PersistenceBounds", "theta s_v_bar s_h_bar")):
    __slots__ = ()


def _require_theta(theta: float) -> float:
    if not (_finite_real(theta) and 0.0 < theta < 1.0):
        raise ThetaOutOfRangeError(theta)
    return theta


def persistence_bounds(p: ModelParams, theta: float) -> PersistenceBounds:
    """Closed-form eventual lower bounds on the susceptible pools.
    RateUnderflowError where S_v0 underflows to 0."""
    _require_theta(theta)
    star = _require_endemic(p)
    s_v_bar = p.beta_v / (theta * p.c_hv * star.i_h + p.mu_v)
    s_h_bar = p.beta_h / (p.c_vh * (1.0 - s_v_bar / _nonzero(p.s_v0, _S_V0)) + p.mu_h)
    # theta < 1 guarantees both in exact arithmetic; near 1 rounding erases the gap
    if not (s_v_bar > star.s_v and s_h_bar > star.s_h):
        raise NumericalError(f"theta = {theta!r} is too close to 1: the bounds "
                             f"s_v_bar = {s_v_bar!r} and s_h_bar = {s_h_bar!r} do not "
                             f"clear S_v* = {star.s_v!r} and S_h* = {star.s_h!r}")
    return PersistenceBounds(theta=theta, s_v_bar=s_v_bar, s_h_bar=s_h_bar)


class PersistenceReport(namedtuple("PersistenceReport",
                                     "theta threshold i_h_tail_sup tail passes")):
    __slots__ = ()

    def as_lines(self) -> list[str]:
        key = f"persistence.theta_{float(self.theta)!r}"
        lines = [
            f"{key}.threshold = {_fmt(self.threshold)}",
            f"{key}.i_h_tail_sup = {_fmt(self.i_h_tail_sup)}",
        ]
        for name in COMPONENT_NAMES:
            lines.append(f"{key}.tail_inf.{name} = {_fmt(getattr(self.tail.inf, name))}")
            lines.append(f"{key}.tail_sup.{name} = {_fmt(getattr(self.tail.sup, name))}")
        lines.append(f"{key}.passes = {str(self.passes).lower()}")
        return lines


def _require_preconditions(p: ModelParams, phi: HistorySegment,
                           theta: float) -> State:
    """Check what weak_persistence_check needs before anything is integrated:
    theta in (0, 1), R0 > 1 and a seeded history, I_h(0) > 0. Returns E*."""
    _require_theta(theta)
    star = _require_endemic(p)
    if not phi.value_at(0.0)[1] > 0:
        raise NotInDomainDError()
    return star


def weak_persistence_check(p: ModelParams, traj: Trajectory,
                           theta: float) -> PersistenceReport:
    """Test the tail conditions on a run of the full system.

    Passes iff the tail sup of I_h exceeds theta * I_h* and every component's
    tail sup is strictly positive. The run's history must seed the infection:
    I_h(0) > 0.
    """
    star = _require_preconditions(p, traj.history, theta)
    if traj.system is not SystemKind.FULL:
        raise InvalidSpecError(f"weak persistence is read on the full system, "
                               f"got a {traj.system.value} trajectory")
    tail = tail_stats(traj)
    threshold = theta * star.i_h
    sup = tail.sup
    # threshold = theta * I_h* >= 0, so the first test also holds sup.i_h > 0
    passes = sup.i_h > threshold and sup.s_h > 0 and sup.s_v > 0 and sup.i_v > 0
    return PersistenceReport(theta=theta, threshold=threshold,
                             i_h_tail_sup=sup.i_h, tail=tail, passes=passes)
