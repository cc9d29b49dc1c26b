"""Exact symmetries of the model, checked bit for bit on trajectories.

Two rescalings map solutions to solutions, and with a factor of 2 every
float operation of the step loop scales exactly (barring overflow and
underflow), so these checks need no oracle and no tolerance (metamorphic
testing; Chen et al., ACM Comput. Surv. 51(1), 2018):

- time: all six rates x2 with tau, t_end and the step /2 gives x(2t), so the
  node buffer and the Lyapunov values are the same bits;
- host population: beta_h x2, c_hv x1/2 and S_h, I_h x2 doubles the host
  components and leaves the mosquito ones as they are;
- mosquito population: beta_v x2 and S_v, I_v x2 doubles the mosquito
  components and leaves the host ones as they are (the incidence reads
  I_v / N_v).

The tail stats follow, from a stored run and from a run that stores no
node: time scaling keeps their inf and sup bits and halves t_start, and each
population scaling doubles the matching components of both. So does weak
persistence on the draws with an endemic state: time scaling keeps the
threshold theta * I_h*, both bounds and the verdict; host scaling doubles
the threshold and s_h_bar, and mosquito scaling doubles s_v_bar.

Absolute constants break them, so the draws keep away from each:
default_ode_step's 0.05 cap (tau = 0 runs pass their step), the 1e-9 clamp
band (the histories are interior, so no node comes near it), and the 1e-9
rules in integrate's t_end rounding (t_end is a whole number of steps).
Roots are left out: _polish's ROOT_XTOL is absolute, and near-critical
roots do not always double under time scaling.
"""

import functools
from array import array

import numpy as np
import pytest

from malaria_dde import (
    HistorySegment,
    IntegrationSpec,
    ModelParams,
    SystemKind,
    endemic_equilibrium,
    integrate,
    persistence_bounds,
    trace_along,
    weak_persistence_check,
)
from malaria_dde.integrator import _integrate

from conftest import TAU_CHOICES, states_of

RATES = ("beta_h", "beta_v", "mu_h", "mu_v", "c_vh", "c_hv")
DRAWS = 48  # tau cycles through TAU_CHOICES, the system through FULL, LIMITING
STEPS_PER_DELAY = 20
ODE_STEP = 2.0 ** -5  # explicit: the default is capped at 0.05
T_END = 16.0
# (history state factors, rate factors) of the two population scalings
HOST = ((2.0, 2.0, 1.0, 1.0), {"beta_h": 2.0, "c_hv": 0.5})
MOSQUITO = ((1.0, 1.0, 2.0, 2.0), {"beta_v": 2.0})


def _draw(i):
    """Draw i: params with rates log-uniform in [0.1, 1], an interior
    constant history state, and its spec."""
    rng = np.random.default_rng(2000 + i)
    tau = TAU_CHOICES[i % len(TAU_CHOICES)]
    system = (SystemKind.FULL, SystemKind.LIMITING)[i // len(TAU_CHOICES) % 2]
    p = ModelParams(**{r: float(10.0 ** rng.uniform(-1.0, 0.0)) for r in RATES}, tau=tau)
    x0 = tuple(float(rng.uniform(lo, hi)) * pool for lo, hi, pool in (
        (0.2, 2.0, p.s_h0), (0.01, 1.0, p.s_h0), (0.2, 2.0, p.s_v0), (0.01, 1.0, p.s_v0)))
    spec = IntegrationSpec(system, T_END, STEPS_PER_DELAY, None if tau else ODE_STEP)
    return p, x0, spec


def _run(p, x0, spec, run=integrate):
    return run(p, HistorySegment.constant(x0, p.tau), spec)


@functools.cache
def _base(i):
    return _run(*_draw(i))


def _population_scaled(i, factors, rates):
    """Draw i with its history state times factors and the named rates
    multiplied as given."""
    p, x0, spec = _draw(i)
    p = p._replace(**{name: getattr(p, name) * f for name, f in rates.items()})
    return p, tuple(x * f for x, f in zip(x0, factors)), spec


def _scaled(i, factors, rates, run=integrate):
    return _run(*_population_scaled(i, factors, rates), run)


def _time_scaled(i):
    """Draw i with every rate x2 and tau, t_end and the step /2."""
    p, x0, spec = _draw(i)
    fast = p._replace(**{r: 2.0 * getattr(p, r) for r in RATES}, tau=p.tau / 2)
    half = spec._replace(t_end=spec.t_end / 2, step=spec.step and spec.step / 2)
    return fast, x0, half


def _stored_tail(p, phi, spec):
    return integrate(p, phi, spec).tail


def _tail_only(p, phi, spec):
    return _integrate(p, phi, spec, store=False).tail


def _tail_bits(tail, factors=(1.0, 1.0, 1.0, 1.0)):
    """The inf and sup bits of tail, each component times its factor."""
    return array("d", [x * f for stat in (tail.inf, tail.sup)
                       for x, f in zip(stat.as_tuple(), factors)]).tobytes()


@pytest.mark.parametrize("i", range(DRAWS))
def test_time_scaling_keeps_every_node_bit(i):
    p, x0, spec = _draw(i)
    fast, _, half = _time_scaled(i)
    base, traj = _base(i), _run(fast, x0, half)
    assert traj.h == base.h / 2 and traj.steps == base.steps
    assert traj.ys.tobytes() == base.ys.tobytes()
    if spec.system is SystemKind.LIMITING:
        v, w = trace_along(p, base), trace_along(fast, traj)
        assert v.kind is w.kind
        assert w.values.tobytes() == v.values.tobytes()
        assert w.times.tobytes() == array("d", [t / 2 for t in v.times]).tobytes()


@pytest.mark.parametrize("i", range(DRAWS))
def test_host_scaling_doubles_the_host_components(i):
    traj = _scaled(i, *HOST)
    assert traj.ys.tobytes() == (states_of(_base(i)) * HOST[0]).tobytes()


@pytest.mark.parametrize("i", range(DRAWS))
def test_mosquito_scaling_doubles_the_mosquito_components(i):
    traj = _scaled(i, *MOSQUITO)
    assert traj.ys.tobytes() == (states_of(_base(i)) * MOSQUITO[0]).tobytes()


@pytest.mark.parametrize("i", range(DRAWS))
def test_tail_stats_follow_every_scaling(i):
    base = _base(i).tail
    fast, x0, half = _time_scaled(i)
    for run in (_stored_tail, _tail_only):
        tail = _run(fast, x0, half, run)
        assert tail.t_start == base.t_start / 2
        assert _tail_bits(tail) == _tail_bits(base)
        for factors, rates in (HOST, MOSQUITO):
            tail = _scaled(i, factors, rates, run)
            assert tail.t_start == base.t_start
            assert _tail_bits(tail) == _tail_bits(base, factors)


THETA = 0.99  # close enough to 1 that some draws fail the check
ENDEMIC_DRAWS = [i for i in range(DRAWS) if endemic_equilibrium(_draw(i)[0]) is not None]


def _persistence(p, x0, spec):
    """The weak persistence report at THETA on the draw's FULL run, and the
    bounds at THETA."""
    traj = _run(p, x0, spec._replace(system=SystemKind.FULL))
    return weak_persistence_check(p, traj, THETA), persistence_bounds(p, THETA)


@pytest.mark.parametrize("i", ENDEMIC_DRAWS)
def test_persistence_follows_every_scaling(i):
    report, bounds = _persistence(*_draw(i))
    # each scaling's factor on the host side (threshold, I_h's tail sup and
    # s_h_bar) and on the mosquito side (s_v_bar)
    for draw, host, mosquito in ((_time_scaled(i), 1.0, 1.0),
                                 (_population_scaled(i, *HOST), 2.0, 1.0),
                                 (_population_scaled(i, *MOSQUITO), 1.0, 2.0)):
        got, got_bounds = _persistence(*draw)
        assert got.passes is report.passes
        assert got.threshold == host * report.threshold
        assert got.i_h_tail_sup == host * report.i_h_tail_sup
        assert got_bounds.s_h_bar == host * bounds.s_h_bar
        assert got_bounds.s_v_bar == mosquito * bounds.s_v_bar


def test_the_persistence_draws_take_both_verdicts():
    assert {_persistence(*_draw(i))[0].passes for i in ENDEMIC_DRAWS} == {True, False}
