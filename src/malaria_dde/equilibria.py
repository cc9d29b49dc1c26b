"""Reproduction number and the two steady states.

R0^2 = c_vh * c_hv * beta_h / (mu_h^2 * mu_v). The disease-free state E0
always exists; the endemic state E* exists exactly when R0 > 1. Threshold
comparisons are made on R0^2 to avoid a sqrt rounding cliff at 1.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NumericalError, SubcriticalR0Error
from .model import ModelParams, State, SystemKind, _nonzero, rhs


def r0_squared(p: ModelParams) -> float:
    r2 = p.c_vh * p.c_hv * p.beta_h / _nonzero(p.mu_h * p.mu_h * p.mu_v, "mu_h * mu_h * mu_v")
    if not math.isfinite(r2):  # inf, or inf / inf when both overflow
        raise NumericalError(f"R0^2 = c_vh c_hv beta_h / (mu_h^2 mu_v) overflows "
                             f"to {r2!r}")
    return r2


def basic_reproduction_number(p: ModelParams) -> float:
    return math.sqrt(r0_squared(p))


def disease_free_equilibrium(p: ModelParams) -> State:
    return State(p.s_h0, 0.0, p.s_v0, 0.0)


def endemic_equilibrium(p: ModelParams, r2: float | None = None) -> State | None:
    """Closed-form endemic state, or None when R0 <= 1 (compared on R0^2, r2
    if the caller has it): the one R0 threshold test. Its components go
    unchecked, so that it can be the existence test."""
    r2 = r0_squared(p) if r2 is None else r2
    if r2 <= 1.0:
        return None
    den_h = p.beta_h * p.c_hv + p.mu_v * p.mu_h * r2
    den_v = p.c_vh * p.mu_v + p.mu_v * p.mu_h * r2
    i_h = p.beta_h * p.mu_v * (r2 - 1.0) / den_h
    s_h = p.beta_h * (p.c_hv * p.beta_h / p.mu_h + p.mu_v) / den_h
    s_v = p.beta_v * (p.c_vh + p.mu_h) / den_v
    i_v = p.beta_v * p.mu_h * (r2 - 1.0) / den_v
    return State(s_h, i_h, s_v, i_v)


def _finite_star(star: State | None) -> State | None:
    """star (None passes), or NumericalError naming its first non-finite component."""
    for name, value in zip(State._fields, star or ()):
        if not math.isfinite(value):  # inf / inf, or a denominator that overflows
            raise NumericalError(f"E* component {name} = {value!r} is not finite")
    return star


def _require_endemic(p: ModelParams) -> State:
    """Finite E* for whatever reads it; SubcriticalR0Error when R0 <= 1."""
    star = _finite_star(endemic_equilibrium(p))
    if star is None:
        raise SubcriticalR0Error(basic_reproduction_number(p))
    return star


def equilibrium_residual(p: ModelParams, state: State) -> float:
    """Max-norm of the steady-state equations at `state`.

    Routed through the full system's rhs with the candidate in both time
    slots, so the closed forms above are checked against the dynamics, not
    against themselves.
    """
    return max(abs(v) for v in rhs(p, state, state, SystemKind.FULL))


class EquilibriumSet(namedtuple("EquilibriumSet", "r0 e0 e_star")):
    __slots__ = ()


def equilibrium_set(p: ModelParams) -> EquilibriumSet:
    return EquilibriumSet(r0=basic_reproduction_number(p),
                          e0=disease_free_equilibrium(p),
                          e_star=_finite_star(endemic_equilibrium(p)))
