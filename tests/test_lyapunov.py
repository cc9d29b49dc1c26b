"""Lyapunov functionals: closed-form anchors, domain gates, descent traces."""

import io
import math
from array import array

import numpy as np
import pytest

from malaria_dde import (
    EmptyWindowError,
    FunctionalKind,
    HistorySegment,
    IntegrationSpec,
    InvalidSpecError,
    ModelParams,
    NonPositiveProductError,
    OutsideOmega1Error,
    OutsideOmega2Error,
    RateUnderflowError,
    SubcriticalR0Error,
    SystemKind,
    classify,
    endemic_equilibrium,
    integrate,
    trace_along,
    v_dfe,
    v_endemic,
)
from malaria_dde.lyapunov import _log0

from conftest import (
    P_CRIT,
    P_SUB,
    P_SUPER,
    constant_history,
    limiting_trace,
    states_of,
    times_of,
)


def test_log_is_libm_and_keeps_np_log_at_nonpositive_entries(rng):
    # the passes take every log through libm's math.log, whatever numpy's
    # SIMD kernel gives; where math.log raises (a ratio that underflows to 0)
    # the pass runs again with _log0, which gives np.log's value there, so
    # V_DFE is inf rather than a ValueError
    x = rng.uniform(0.2, 3.0, 1000).tolist()
    assert [_log0(v) for v in x] == [math.log(v) for v in x]
    entries = [2.0, 0.0, -0.0, -1.0, math.inf, math.nan]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.testing.assert_array_equal([_log0(v) for v in entries], np.log(entries))
    p = P_SUB._replace(beta_h=1e10)
    v = v_dfe(p, HistorySegment.constant((5e-324, 0.0, p.s_v0, 0.0), p.tau))
    assert v == math.inf


def test_v_endemic_underflow_gives_inf_not_a_value_error():
    # S_v / S_v* underflows to 0 in a point term; then I_v * S_h at -tau is
    # positive but xarg underflows to 0, so the window integral is inf
    point = HistorySegment.constant((4.0, 1.0, 5e-324, 10.0), 1.0)
    window = HistorySegment.table((-1.0, 0.0), ((4.0, 1.0, 30.0, 5e-324),
                                                (4.0, 1.0, 30.0, 10.0)))
    assert v_endemic(P_SUPER, point) == math.inf
    assert v_endemic(P_SUPER, window) == math.inf


# admissible rates whose divisors underflow to 0: S_h0 = 5e-324 / 3 for
# V_DFE (R0^2 is 0), and E*'s I_v for V_ENDEMIC (R0^2 = 1.6)
UNDERFLOW_DFE = ModelParams(5e-324, 5.0, 3.0, 0.1, 0.2, 0.1, 1.0)
UNDERFLOW_ENDEMIC = P_SUPER._replace(beta_v=5e-324)


@pytest.mark.parametrize("p,functional,divisor", [
    (UNDERFLOW_DFE, v_dfe, "S_h0 = beta_h / mu_h"),
    (UNDERFLOW_ENDEMIC, v_endemic, "I_v*"),
], ids=["v_dfe", "v_endemic"])
def test_an_underflowing_divisor_is_a_rate_underflow_error(p, functional, divisor):
    # checked once before the pass, for one window and for a whole trace
    psi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), 1.0)
    with pytest.raises(RateUnderflowError) as err:
        functional(p, psi)
    assert err.value.product == divisor
    traj = integrate(P_SUPER, psi, IntegrationSpec(SystemKind.LIMITING, 5.0))
    with pytest.raises(RateUnderflowError) as err:
        trace_along(p, traj)
    assert err.value.product == divisor


def _tau0_limiting(p, t_end=1.0):
    p = p._replace(tau=0.0)
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 0.0)
    return p, integrate(p, phi, IntegrationSpec(SystemKind.LIMITING, t_end))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_max_increase_is_nan_wherever_a_nan_step_lies(where):
    # S_h / S_h0 underflows at two neighbouring nodes, so both values are
    # inf and the step between them is NaN; np.max returns NaN wherever it
    # lies, and builtin max only when it comes first
    p, traj = _tau0_limiting(P_SUB)
    j = {"first": 0, "middle": traj.nodes // 2, "last": traj.nodes - 2}[where]
    ys = array("d", traj.ys)
    ys[4 * j] = ys[4 * j + 4] = 5e-324
    trace = trace_along(p, traj._replace(ys=ys))
    assert trace.values[j] == trace.values[j + 1] == math.inf
    assert math.isnan(trace.max_increase)
    with np.errstate(invalid="ignore"):
        assert math.isnan(np.max(np.diff(trace.values)))


def test_tau0_trace_is_the_point_terms_bit_for_bit():
    # at tau = 0 the window adds exactly 0.0: each value is its node's point
    # terms, in this order, with libm's log. At one endemic node xarg
    # underflows to 0, so the running integral is inf from there on, and
    # still no value is NaN
    log = math.log
    p, traj = _tau0_limiting(P_SUB, 5.0)
    sh0, sv0 = p.s_h0, p.s_v0
    coef = p.mu_v * p.mu_h / (p.c_hv * p.beta_v)
    nodes = [traj.ys[4 * k:4 * k + 4] for k in range(traj.nodes)]
    dfe = [sh0 * (a / sh0 - 1.0 - log(a / sh0)) + b
           + coef * sv0 * (c / sv0 - 1.0 - log(c / sv0)) + coef * d
           for a, b, c, d in nodes]
    assert [v.hex() for v in trace_along(p, traj).values] == [v.hex() for v in dfe]

    p, traj = _tau0_limiting(P_SUPER, 5.0)
    s_h, i_h, s_v, i_v = endemic_equilibrium(p).as_tuple()
    w = p.mu_h * i_h / (p.mu_v * i_v)
    ys = array("d", traj.ys)
    ys[40], ys[43] = 0.1, 1e-322  # node 10: I_v * S_h = 1e-323
    traj = traj._replace(ys=ys)
    nodes = [traj.ys[4 * k:4 * k + 4] for k in range(traj.nodes)]
    endemic = [(a - s_h - s_h * log(a / s_h)) + (b - i_h - i_h * log(b / i_h))
               + w * (c - s_v - s_v * log(c / s_v)) + w * (d - i_v - i_v * log(d / i_v))
               for a, b, c, d in nodes]
    assert [v.hex() for v in trace_along(p, traj).values] == [v.hex() for v in endemic]


def test_v_dfe_constant_window_anchor():
    # I_h + (mu_v mu_h / (c_hv beta_v)) I_v + (mu_v/beta_v) c_vh * i_v s_h tau
    # = 1 + 0.2*10 + 0.02*0.05*40 = 3.04 for this window
    psi = HistorySegment.constant((4.0, 1.0, 50.0, 10.0), 1.0)
    assert v_dfe(P_SUB, psi) == pytest.approx(3.04, abs=1e-14)


def test_v_dfe_constant_windows_match_quadrature_free_formula(rng):
    # trapezoid quadrature is exact for constant windows, so the value must
    # equal the hand formula with the integral replaced by i_v*s_h*tau
    def gap(x):  # distance-to-one term used for the susceptible pools
        return x - 1.0 - math.log(x)

    for _ in range(20):
        psi = constant_history(P_SUB, rng)
        s_h, i_h, s_v, i_v = psi.state_at(0.0).as_tuple()
        sh0, sv0 = P_SUB.s_h0, P_SUB.s_v0
        coef = P_SUB.mu_v * P_SUB.mu_h / (P_SUB.c_hv * P_SUB.beta_v)
        expected = (sh0 * gap(s_h / sh0) + i_h
                    + coef * sv0 * gap(s_v / sv0) + coef * i_v
                    + (P_SUB.mu_v / P_SUB.beta_v) * P_SUB.c_vh * i_v * s_h * P_SUB.tau)
        assert v_dfe(P_SUB, psi) == pytest.approx(expected, rel=1e-12)


def test_v_dfe_requires_positive_entry_state():
    psi = HistorySegment.constant((0.0, 1.0, 50.0, 10.0), 1.0)
    with pytest.raises(OutsideOmega1Error):
        v_dfe(P_SUB, psi)


def test_v_dfe_rejects_supercritical():
    # above the threshold the trace is the endemic functional, never V_DFE
    psi = HistorySegment.constant((4.0, 1.0, 50.0, 10.0), 1.0)
    limiting_trace(P_SUPER, psi, FunctionalKind.V_ENDEMIC, 50.0)


def test_v_endemic_vanishes_at_equilibrium():
    star = endemic_equilibrium(P_SUPER)
    psi = HistorySegment.constant(star.as_tuple(), P_SUPER.tau)
    # the point terms cancel exactly; only the window integrand can leave
    # roundoff of order (1 ulp)^2 behind
    assert abs(v_endemic(P_SUPER, psi)) < 1e-14


def test_v_endemic_positive_off_equilibrium(rng):
    for _ in range(20):
        psi = constant_history(P_SUPER, rng)
        if psi.state_at(0.0).as_tuple() == endemic_equilibrium(P_SUPER).as_tuple():
            continue
        assert v_endemic(P_SUPER, psi) > 0.0


def test_v_endemic_needs_r0_above_one():
    with pytest.raises(SubcriticalR0Error):
        v_endemic(P_SUB, HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0))


def _on_window(p, edits):
    """v_endemic where E* exists, v_dfe otherwise, on a three-sample window
    over [-1, 0] (m = 2), each sample (4, 1, 30, 10) but for the edits
    {(node, component): value}; node "before" is sample 1 (k < m) and
    "end" sample 2. Returns the call and the time of each sample."""
    times, nodes = (-1.0, -0.5, 0.0), {"before": 1, "end": 2}
    states = [[4.0, 1.0, 30.0, 10.0] for _ in times]
    for (node, q), value in edits.items():
        states[nodes[node]][q] = value
    psi = HistorySegment.table(times, states)
    functional = v_dfe if endemic_equilibrium(p) is None else v_endemic
    return (lambda: functional(p, psi)), times


def _along_limiting_run(p, edits):
    """trace_along on p's limiting run from (4, 1, 30, 10), its node buffer
    edited as _on_window's samples: node "before" is node 1 (k < m) and
    "end" node m, the first that ends a window."""
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), p.tau)
    traj = integrate(p, phi, IntegrationSpec(SystemKind.LIMITING, 5.0))
    nodes, ys = {"before": 1, "end": traj.m}, array("d", traj.ys)
    for (node, q), value in edits.items():
        ys[4 * nodes[node] + q] = value
    edited = traj._replace(ys=ys)
    return (lambda: trace_along(p, edited).values), [k * traj.h for k in range(traj.nodes)]


S_H, I_H, I_V = 0, 1, 3


@pytest.mark.parametrize("entry", [_on_window, _along_limiting_run],
                         ids=["v_endemic", "trace_along"])
def test_v_endemic_domain_gates(entry):
    # every state from the window's end on must lie in Omega2, and I_v * S_h
    # stay > 0 at every node; a node outside Omega2 is reported first,
    # wherever the product fails
    with pytest.raises(OutsideOmega2Error):
        entry(P_SUPER, {("end", I_H): 0.0})[0]()
    # a product failure alone, before the window's end
    call, times = entry(P_SUPER, {("before", I_V): 0.0})
    with pytest.raises(NonPositiveProductError) as err:
        call()
    assert err.value.theta == times[1]
    # a product failure at an earlier node than one outside Omega2
    with pytest.raises(OutsideOmega2Error):
        entry(P_SUPER, {("before", I_V): 0.0, ("end", I_H): 0.0})[0]()
    # a zero S_h before the window's end fails the product, while V_DFE,
    # which needs S_h > 0 and S_v > 0 only from the window's end on, takes it
    call, times = entry(P_SUPER, {("before", S_H): 0.0})
    with pytest.raises(NonPositiveProductError) as err:
        call()
    assert err.value.theta == times[1]
    values = entry(P_SUB, {("before", S_H): 0.0})[0]()
    assert all(map(math.isfinite, np.atleast_1d(values)))


def test_descend_check_gate_for_endemic_kind():
    # below the threshold E* is absent, so the trace is V_DFE
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0)
    limiting_trace(P_SUB, phi, FunctionalKind.V_DFE, 50.0)


def test_descend_check_subcritical_descends():
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0)
    trace = limiting_trace(P_SUB, phi, FunctionalKind.V_DFE, 200.0)
    assert trace.passes_descent()
    assert trace.values[-1] < trace.values[0]
    assert trace.values[-1] < 1e-4
    assert trace.times[0] == pytest.approx(P_SUB.tau)


def test_descend_check_supercritical_descends():
    phi = HistorySegment.constant((3.0, 1.0, 30.0, 10.0), 1.0)
    trace = limiting_trace(P_SUPER, phi, FunctionalKind.V_ENDEMIC, 300.0)
    assert trace.passes_descent()
    assert trace.values[-1] < 1e-6


def test_descent_allowed_at_exact_threshold():
    # the disease-free functional is still defined at the threshold point
    phi = HistorySegment.constant((1.5, 0.4, 15.0, 3.0), 1.0)
    trace = limiting_trace(P_CRIT, phi, FunctionalKind.V_DFE, 120.0)
    assert trace.passes_descent()


def test_trace_matches_single_window_evaluation():
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0)
    spec = IntegrationSpec(system=SystemKind.LIMITING, t_end=12.0)
    traj = integrate(P_SUB, phi, spec)
    trace = trace_along(P_SUB, traj)
    m = spec.steps_per_delay
    times, ys = times_of(traj), states_of(traj)
    for probe in (0, 57, -1):
        t = float(trace.times[probe])
        k = int(np.searchsorted(times, t))  # the node at t
        window = HistorySegment(times[k - m:k + 1] - t, ys[k - m:k + 1], traj.tau)
        direct = v_dfe(P_SUB, window)
        assert float(trace.values[probe]) == pytest.approx(direct, rel=1e-12)


def test_trace_max_increase_is_the_worst_step():
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0)
    trace = limiting_trace(P_SUB, phi, FunctionalKind.V_DFE, 40.0)
    assert trace.max_increase == float(np.diff(trace.values).max())


def test_trace_csv_shape():
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0)
    trace = limiting_trace(P_SUB, phi, FunctionalKind.V_DFE, 5.0)
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,V"
    assert len(lines) == len(trace.times) + 1


def test_trace_along_gates_the_regime():
    # R0 picks the functional; at R0^2 == 1 there is no E*, so V_DFE
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0)
    lim = IntegrationSpec(system=SystemKind.LIMITING, t_end=5.0)
    for p, kind in ((P_SUB, FunctionalKind.V_DFE), (P_CRIT, FunctionalKind.V_DFE),
                    (P_SUPER, FunctionalKind.V_ENDEMIC)):
        assert trace_along(p, integrate(p, phi, lim)).kind is kind


def test_trace_along_needs_a_horizon_past_tau():
    p = P_SUB._replace(tau=2.0)
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 2.0)
    traj = integrate(p, phi, IntegrationSpec(system=SystemKind.LIMITING, t_end=1.0))
    with pytest.raises(EmptyWindowError):
        trace_along(p, traj)


def test_trace_along_needs_two_nodes_past_tau_and_no_more():
    # m + 2 nodes put two past tau, the fewest a trace reads; m + 1 put one
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), P_SUB.tau)
    m = IntegrationSpec().steps_per_delay
    h = P_SUB.tau / m
    two, one = (integrate(P_SUB, phi, IntegrationSpec(SystemKind.LIMITING, steps * h))
                for steps in (m + 1, m))
    assert (two.nodes, one.nodes) == (m + 2, m + 1)
    trace = trace_along(P_SUB, two)
    assert len(trace.values) == len(trace.times) == 2
    with pytest.raises(EmptyWindowError):
        trace_along(P_SUB, one)


def test_descent_slack_is_scaled_by_the_first_value():
    # 1e-7 (1 + |V at the first node|) is 1e-7 here, far below the 0.01
    # increase; scaled by the last value, 1e6, it would let it pass
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0)
    trace = limiting_trace(P_SUB, phi, FunctionalKind.V_DFE, 5.0)
    assert not trace._replace(values=array("d", [0.0, 1e6]), max_increase=0.01).passes_descent()


def test_trace_along_rejects_a_full_system_trajectory():
    # the functionals descend along the limiting system only
    phi = HistorySegment.constant((4.0, 1.0, 30.0, 10.0), 1.0)
    full = integrate(P_SUPER, phi, IntegrationSpec(system=SystemKind.FULL, t_end=5.0))
    with pytest.raises(InvalidSpecError, match="limiting"):
        trace_along(P_SUPER, full)


@pytest.mark.parametrize("call, which", [
    ("classify", "E0"),
    ("classify", None),
    ("classify", FunctionalKind.V_DFE),
])
def test_analyses_reject_a_selector_that_is_not_their_enum(call, which):
    with pytest.raises(InvalidSpecError, match=repr(which)):
        classify(P_SUPER, which)
