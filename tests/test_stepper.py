"""The RK4 step loop itself: bit-exact output and node derivatives, each
step against a reference RK4 built on `model.rhs` (which holds the inlined
model to it), and the clamp fast path as seen through `integrate`."""

import hashlib
import io
import math

import numpy as np
import pytest

from malaria_dde import (
    HistorySegment,
    IntegrationSpec,
    NegativityBreachError,
    NonFiniteStateError,
    State,
    SystemKind,
    integrate,
    rhs,
)
from malaria_dde import integrator

from conftest import P_SUPER, derivs_of, states_of, times_of

X0 = (4.0, 0.5, 30.0, 10.0)
TABLE = HistorySegment.table(
    [-1.0, -0.7, -0.2, 0.0],
    [[3.0, 0.2, 35.0, 5.0], [4.5, 0.4, 32.0, 8.0], [5.0, 0.1, 30.0, 12.0], X0])

# (params, history, spec): each covers the first delay interval, where the
# delayed argument comes from the history, and the Hermite-interpolated rest
RUNS = {
    "full": (P_SUPER, HistorySegment.constant(X0, 1.0),
             IntegrationSpec(system=SystemKind.FULL, t_end=6.0, steps_per_delay=10)),
    "limiting": (P_SUPER, HistorySegment.constant(X0, 1.0),
                 IntegrationSpec(system=SystemKind.LIMITING, t_end=6.0,
                                 steps_per_delay=10)),
    "ode": (P_SUPER._replace(tau=0.0), HistorySegment.constant(X0, 0.0),
            IntegrationSpec(system=SystemKind.FULL, t_end=3.0, step=0.05)),
    "table": (P_SUPER, TABLE,
              IntegrationSpec(system=SystemKind.FULL, t_end=6.0, steps_per_delay=8)),
    "ode_limiting": (P_SUPER._replace(tau=0.0), HistorySegment.constant(X0, 0.0),
                     IntegrationSpec(system=SystemKind.LIMITING, t_end=3.0, step=0.05)),
    "table_limiting": (P_SUPER, TABLE,
                       IntegrationSpec(system=SystemKind.LIMITING, t_end=6.0,
                                       steps_per_delay=8)),
}

# sha256 of Trajectory.to_csv for each run, recorded before the step loop
# took its first-same-as-last form (the two *_limiting runs: before the model
# was written inline into the loop; limiting: its every-node CSV from the
# last code that offered a recording stride); any changed bit in a node
# shows here
CSV_SHA256 = {
    "full": "43475eb547cb903d62b15624085f1ff861debb9f904d5caa8df667cf8f5aff02",
    "limiting": "482564d8d91534b970a517f7d35de1e63e2b317f9347b2fc0be4f86d47a43a21",
    "ode": "497a314af1d0f16de016b3212dc969fe30a67bdd5ea889ba7fbed02843125493",
    "table": "67cbbf0c1745e2c3d51ac129000a517fff8aca72879421972ff2c57360c81537",
    "ode_limiting": "74bef4cdc4e93f9fcfe0c21ce9e84b43d254a2ae00220673fe3b05adefeb8fef",
    "table_limiting": "e3ddf13f0412f8b58df75f5e2ac232d447f8688044cc4718db5158ebc2ffb743",
}


def _csv_sha256(name):
    buf = io.StringIO()
    integrate(*RUNS[name]).to_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# sha256 of the node derivatives (derivs_of) for each run, recorded when the step loop still
# stored each node's derivative; computed again from the nodes, they keep it
DERIVS_SHA256 = {
    "full": "9c275b51c4a25237f05f161c0be2abe259c7ea61001633bf241f53c830782897",
    "limiting": "08703017474117a28e6cdbd2fe2e79ebee20da14a27356007ae6646e5c2c7847",
    "ode": "0db41006b91f04113d3d99cac49b72e2463e5a0c15e275e30691189991cc7f37",
    "table": "c47c3643dcc535fd2ba054b84c420781f103724e24704a48e08ed331e19aa0b9",
    "ode_limiting": "bd1e8abf5db05b8f788c72ed010cf19eab5473731add37e1017582fa9e47551a",
    "table_limiting": "ae06cb4b5283e5cc5f9621980f8e6d7253f61b723a0863ab1240564aa07d6e63",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trajectory_csv_is_bit_exact(name):
    assert _csv_sha256(name) == CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_node_derivatives_are_bit_exact(name):
    derivs = derivs_of(integrate(*RUNS[name]))
    assert hashlib.sha256(derivs.tobytes()).hexdigest() == DERIVS_SHA256[name]


def _assert_node_derivatives(p, phi, spec, traj):
    """Each node's derivative is the right-hand side at the node and the
    node m steps back (the history's value in the first delay interval)."""
    states, derivs = states_of(traj).tolist(), derivs_of(traj)
    m = spec.steps_per_delay if traj.tau > 0 else 0
    for n, y in enumerate(states):
        yd = states[n - m] if n >= m else phi.value_at(n * traj.h - traj.tau)
        deriv = tuple(derivs[n].tolist())
        assert rhs(p, State(*y), State(*yd), spec.system) == deriv, n


@pytest.mark.parametrize("name", sorted(RUNS))
def test_node_derivatives_are_the_rhs_at_the_node(name):
    p, phi, spec = RUNS[name]
    _assert_node_derivatives(p, phi, spec, integrate(p, phi, spec))


@pytest.mark.parametrize("m,steps", [
    (10, 1023), (10, 1024), (10, 1025), (10, 2049),
    # windows of 1,500 incidences: the history feeds the first 1,500 steps
    (1500, 2 * 1500 + 1),
])
def test_every_mesh_node_is_recorded(m, steps):
    # each node goes to the buffer as the loop reaches it; a dropped or
    # doubled node shifts the node count and the times
    phi = HistorySegment.constant(X0, P_SUPER.tau)
    spec = IntegrationSpec(system=SystemKind.FULL, t_end=steps * P_SUPER.tau / m,
                           steps_per_delay=m)
    traj = integrate(P_SUPER, phi, spec)
    assert traj.steps == steps and traj.nodes == steps + 1
    buf = io.StringIO()
    traj.to_csv(buf)
    csv_times = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1,
                           usecols=0)
    assert np.array_equal(csv_times, times_of(traj))
    _assert_node_derivatives(P_SUPER, phi, spec, traj)


def _rk4_step(f, y, yd0, ydm, yd1, h):
    """One classical RK4 step of f from y, with the delayed state yd0 at the
    node, ydm at the half step and yd1 at the next node."""
    hh, sixth = 0.5 * h, h / 6.0
    k1 = f(y, yd0)
    k2 = f(tuple(v + hh * k for v, k in zip(y, k1)), ydm)
    k3 = f(tuple(v + hh * k for v, k in zip(y, k2)), ydm)
    k4 = f(tuple(v + h * k for v, k in zip(y, k3)), yd1)
    return tuple(v + sixth * (a + 2.0 * (b + c) + d)
                 for v, a, b, c, d in zip(y, k1, k2, k3, k4))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("history", ["constant", "table"])
@pytest.mark.parametrize("system", [SystemKind.FULL, SystemKind.LIMITING],
                         ids=["full", "limiting"])
def test_smallest_windows_step_like_a_reference_rk4(m, history, system):
    # at m = 1 the midpoint window holds one value and the node one two, so
    # a window read one place off uses another interval's midpoint or node;
    # the reference reads the delayed states off the recorded nodes instead
    phi = HistorySegment.constant(X0, P_SUPER.tau) if history == "constant" else TABLE
    spec = IntegrationSpec(system=system, t_end=6.0, steps_per_delay=m)
    traj = integrate(P_SUPER, phi, spec)
    f = lambda y, yd: rhs(P_SUPER, State(*y), State(*yd), system)
    h, tau = traj.h, traj.tau
    hh, eighth = 0.5 * h, 0.125 * h
    ys, fs = states_of(traj).tolist(), derivs_of(traj).tolist()

    def delayed(n):  # the state at node n's delayed time
        return tuple(ys[n - m]) if n >= m else phi.value_at(n * h - tau)

    def delayed_mid(n):  # the state at step n's delayed half step
        if n < m:
            return phi.value_at(n * h + hh - tau)
        y0, y1, f0, f1 = ys[n - m], ys[n - m + 1], fs[n - m], fs[n - m + 1]
        return tuple(0.5 * (y0[q] + y1[q]) + eighth * (f0[q] - f1[q]) for q in range(4))

    assert traj.steps == 6 * m
    for n in range(traj.steps):
        step = _rk4_step(f, tuple(ys[n]), delayed(n), delayed_mid(n), delayed(n + 1), h)
        assert step == tuple(ys[n + 1]), n


def _inject_incidence(monkeypatch, rate_at):
    """The history's incidence at offset theta is rate_at(theta), so that
    I_h' = rate_at(t - tau) - mu_h * I_h while the first delay interval
    lasts; every step below lies inside it."""
    monkeypatch.setattr(integrator, "_history_incidence",
                        lambda phi, offsets, c_vh, inv_nv: [rate_at(x) for x in offsets])


def test_clamp_zeroes_a_rounding_level_dip_inside_integrate(monkeypatch):
    h = P_SUPER.tau / 10
    rate = -5e-11 / h
    raw = 0.0 + h / 6.0 * (rate + 2.0 * (rate + rate) + rate)
    assert -1e-9 < raw < 0.0  # each step would dip below 0 unclamped
    _inject_incidence(monkeypatch, lambda theta: rate)
    # S_h sits at beta_h / mu_h = 4, and c_vh is below half an ulp of beta_h
    # in S_h' = beta_h - c_vh * (I_v / N_v) * S_h - mu_h * S_h, so S_h' = 0
    p = P_SUPER._replace(c_vh=1e-300)
    phi = HistorySegment.constant((4.0, 0.0, 30.0, 10.0), p.tau)
    traj = integrate(p, phi, IntegrationSpec(t_end=3 * h, steps_per_delay=10))
    assert states_of(traj)[1:, 1].tolist() == [0.0, 0.0, 0.0]
    assert states_of(traj)[:, 0].tolist() == [4.0] * 4


@pytest.mark.parametrize("rate,error", [(-1.5e-8, NegativityBreachError),
                                        (math.nan, NonFiniteStateError)])
def test_clamp_breach_inside_integrate_names_node_and_component(monkeypatch, rate,
                                                                error):
    # I_h falls from 2e-8 by 1.5e-8 per step: 5e-9 at t = h, about -1e-8 at
    # t = 2h, which is below the band; a tiny mu_h (with S_h0 = 4 kept)
    # leaves mu_h * I_h far below the tolerance
    p = P_SUPER._replace(mu_h=2.0**-30, beta_h=2.0**-28)
    h = p.tau / 10
    if error is NegativityBreachError:
        _inject_incidence(monkeypatch, lambda theta: rate / h)
    else:
        # NaN from node 1's delayed time on, so it enters I_h first through
        # k4: a NaN in an earlier stage would reach S_h through the mosquito
        # flux and the incidence, and the clamp checks S_h first
        _inject_incidence(monkeypatch,
                          lambda theta: rate / h if theta >= h - p.tau else 0.0)
    phi = HistorySegment.constant((4.0, 2e-8, 30.0, 10.0), p.tau)
    with pytest.raises(error) as info:
        integrate(p, phi, IntegrationSpec(t_end=5 * h, steps_per_delay=10))
    assert info.value.component == "i_h"
    assert info.value.t == (2 * h if error is NegativityBreachError else h)
    if error is NegativityBreachError:
        assert info.value.value == pytest.approx(-1e-8, rel=1e-6)
