"""Method-of-steps stepper: order, conservation, dense output, recording."""

import ast
import inspect
import io
import math
import tracemalloc
from array import array
from itertools import accumulate

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from malaria_dde import (
    EmptyWindowError,
    HistorySegment,
    IntegrationSpec,
    InvalidHistoryError,
    InvalidSpecError,
    NegativityBreachError,
    NonFiniteStateError,
    NonPositiveRateError,
    NumericalError,
    OutOfRangeError,
    RateUnderflowError,
    State,
    SystemKind,
    TailStats,
    ValidationError,
    dense_eval,
    integrate,
    rhs,
    tail_stats,
)
from malaria_dde import defaults
from malaria_dde import integrator
from malaria_dde.integrator import _clamp, _integrate

from conftest import (
    P_SUB,
    P_SUPER,
    P_SV0_UNDERFLOW,
    convergence_order,
    states_of,
    times_of,
)

X0 = (4.0, 0.5, 30.0, 10.0)


def _phi(p, x0=X0):
    return HistorySegment.constant(x0, p.tau)


def spec_full(t_end, **kw):
    return IntegrationSpec(system=SystemKind.FULL, t_end=t_end, **kw)


def test_vector_total_follows_scalar_decay_law():
    # S_v + I_v obeys n' = beta_v - mu_v n regardless of the infection terms,
    # so the stepper can be checked against an exact exponential
    traj = integrate(P_SUPER, _phi(P_SUPER), spec_full(10.0))
    ys = states_of(traj)
    n_v = ys[:, 2] + ys[:, 3]
    exact = 50.0 + (40.0 - 50.0) * np.exp(-0.1 * times_of(traj))
    assert float(np.max(np.abs(n_v - exact))) < 1e-9


@pytest.mark.parametrize("system", list(SystemKind), ids=lambda s: s.value)
def test_vector_total_error_is_fourth_order(system):
    # N_v = S_v + I_v has the closed form S_v0 + (N_v(0) - S_v0) e^(-mu_v t)
    # on both systems; RK4's error in it falls about 16x per halving of h
    errs = []
    for m in (5, 10, 20):
        traj = integrate(P_SUPER, _phi(P_SUPER),
                         IntegrationSpec(system=system, t_end=50.0, steps_per_delay=m))
        ys = states_of(traj)
        n_v = ys[:, 2] + ys[:, 3]
        exact = P_SUPER.s_v0 + (40.0 - P_SUPER.s_v0) * np.exp(-P_SUPER.mu_v * times_of(traj))
        errs.append(float(np.max(np.abs(n_v - exact))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0, errs


def test_zero_delay_matches_adaptive_reference():
    p = P_SUPER._replace(tau=0.0)
    traj = integrate(p, _phi(p), spec_full(5.0))
    ref = solve_ivp(lambda t, x: rhs(p, State(*x), State(*x), SystemKind.FULL),
                    (0.0, 5.0), list(X0), method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=times_of(traj))
    assert float(np.max(np.abs(ref.y.T - states_of(traj)))) < 1e-9


def test_small_delay_stays_near_zero_delay_limit():
    p = P_SUPER._replace(tau=1e-3)
    traj = integrate(p, _phi(p), spec_full(5.0, steps_per_delay=1))
    p0 = P_SUPER._replace(tau=0.0)
    ref = solve_ivp(lambda t, x: rhs(p0, State(*x), State(*x), SystemKind.FULL),
                    (0.0, 5.0), list(X0), method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    times, ys = times_of(traj), states_of(traj)
    worst = max(abs(float(ref.sol(float(times[i]))[k]) - ys[i, k])
                for i in range(0, times.size, 50) for k in range(4))
    assert worst < 1e-3


def test_observed_order_is_fourth():
    order = convergence_order(P_SUPER, _phi(P_SUPER),
                              spec_full(6.0, steps_per_delay=8))
    assert 3.5 < order < 4.5


def test_t_end_rounded_up_to_mesh_multiple():
    # h = 0.1, so 1.03 lands between nodes and rounds up to 11 steps
    traj = integrate(P_SUPER, _phi(P_SUPER), spec_full(1.03, steps_per_delay=10))
    assert times_of(traj).size == 12
    assert traj.t_end == pytest.approx(1.1, abs=1e-12)
    # near-node horizons snap instead of adding a step
    traj2 = integrate(P_SUPER, _phi(P_SUPER), spec_full(1.0 + 1e-12, steps_per_delay=10))
    assert times_of(traj2).size == 11


def test_dense_eval_is_node_exact_and_fourth_order_between():
    coarse = integrate(P_SUPER, _phi(P_SUPER), spec_full(8.0, steps_per_delay=10))
    fine = integrate(P_SUPER, _phi(P_SUPER), spec_full(8.0, steps_per_delay=80))
    k = 37
    s = dense_eval(coarse, float(times_of(coarse)[k]))
    assert s.as_tuple() == tuple(states_of(coarse)[k])
    worst = max(float(np.max(np.abs(np.subtract(dense_eval(coarse, float(t)).as_tuple(),
                                                 states_of(fine)[i]))))
                for i, t in enumerate(times_of(fine)))
    assert worst < 1e-6


def test_dense_eval_range_and_history():
    traj = integrate(P_SUPER, _phi(P_SUPER), spec_full(2.0))
    assert dense_eval(traj, -0.5).as_tuple() == X0  # reads the history
    with pytest.raises(OutOfRangeError):
        dense_eval(traj, -1.5)
    with pytest.raises(OutOfRangeError):
        dense_eval(traj, 2.5)
    # NaN fails both range comparisons, so it once returned the final node
    with pytest.raises(OutOfRangeError):
        dense_eval(traj, math.nan)


def test_dense_eval_reads_past_t_end_to_the_read_band():
    # the band is READ_BAND (1 + |t_end|), 2e-9 at t_end = 1: 0.9 of it past
    # t_end is read, 1.1 of it refused
    traj = integrate(P_SUPER, _phi(P_SUPER), spec_full(1.0))
    assert traj.t_end == 1.0
    band = defaults.READ_BAND
    assert dense_eval(traj, 1.0 + 1.8 * band) == dense_eval(traj, 1.0)
    with pytest.raises(OutOfRangeError):
        dense_eval(traj, 1.0 + 2.2 * band)


def test_dense_eval_below_the_history_follows_the_span_rule():
    # below -tau a read is in range only as far as the history's span rule,
    # 1e-9 (1 + tau), reaches. It once admitted 1e-9 (1 + t_end), passed the
    # read on, and the history refused it quoting its own range [-1, 0]
    first = (4.0, 0.4, 30.0, 10.0)
    phi = HistorySegment.table([-1.0, 0.0], [first, X0])
    traj = integrate(P_SUPER, phi, spec_full(400.0))
    assert dense_eval(traj, -1.0 - 1e-10).as_tuple() == first
    with pytest.raises(OutOfRangeError,
                       match=r"^t = -1\.00000001 outside the computed range \[-1, 400\]$"):
        dense_eval(traj, -1.0 - 1e-8)
    # at tau = 0 the same rule reads the first node just below t = 0
    p0 = P_SUPER._replace(tau=0.0)
    traj0 = integrate(p0, _phi(p0), spec_full(400.0))
    assert dense_eval(traj0, -1e-10) == dense_eval(traj0, 0.0)
    # the lower bound prints as 0, not -0
    with pytest.raises(OutOfRangeError,
                       match=r"^t = -1e-08 outside the computed range \[0, 400\]$"):
        dense_eval(traj0, -1e-8)


def test_tail_stats_bounds_and_window_validation():
    traj = integrate(P_SUPER, _phi(P_SUPER), spec_full(40.0))
    tail = tail_stats(traj)
    # the window is [TAIL_WINDOW * t_end, t_end] = [20, 40]
    assert tail.t_start == pytest.approx(20.0, abs=1e-9)
    block = states_of(traj)[times_of(traj) >= tail.t_start]
    assert tail.inf.as_tuple() == tuple(block.min(axis=0))
    assert tail.sup.as_tuple() == tuple(block.max(axis=0))


def test_the_tail_cut_band_at_a_step_near_it():
    # at TAIL_WINDOW = 1/2 the cut n h / 2 is a node or h / 2 from one, so
    # the cut's band, 1e-12 (1 + |cut|), shows only at a step near 1e-12:
    # here the cut is 2e-12, node 4 of 8, and the band reaches node 2. At
    # such a step the tail starts before the run's midpoint
    p = P_SUPER._replace(tau=0.0)
    traj = integrate(p, _phi(p), IntegrationSpec(t_end=4e-12, step=5e-13))
    assert traj.steps == 8 and traj.h == 5e-13
    assert traj.tail.t_start == 1e-12


@pytest.mark.parametrize("system,tau", [(SystemKind.FULL, 1.0),
                                        (SystemKind.LIMITING, 1.0),
                                        (SystemKind.FULL, 0.0)],
                         ids=["full", "limiting", "tau0"])
def test_tail_stats_is_the_numpy_mask_min_max(system, tau):
    # the first tail node comes from arithmetic on k * h, and min / max from
    # the buffers; both must give the floats of the mask over the node times.
    # t_end 10 and 12 put the cut on a node, 12.34 between two
    p = P_SUPER._replace(tau=tau)
    for t_end in (10.0, 12.0, 12.34):
        traj = integrate(p, _phi(p), IntegrationSpec(system=system, t_end=t_end))
        cut = defaults.TAIL_WINDOW * traj.t_end
        times = times_of(traj)
        mask = times >= cut - 1e-12 * (1.0 + abs(cut))
        block = states_of(traj)[mask]
        tail = tail_stats(traj)
        assert traj.t_end == float(times[-1]) and traj.nodes == times.size
        assert tail.t_start == float(times[mask][0])
        assert tail.inf.as_tuple() == tuple(block.min(axis=0).tolist())
        assert tail.sup.as_tuple() == tuple(block.max(axis=0).tolist())


def test_integrate_peak_memory_is_within_three_times_its_arrays():
    # each node goes straight to a flat float buffer at 8 B per float, no
    # derivative is stored, and the step loop keeps only 2m + 1 incidences,
    # so the peak follows the node arrays, not 32 B per float (about 5x them
    # when every node stayed in a list); 4,000 steps take about 2 s under
    # tracemalloc
    phi = _phi(P_SUPER)
    tracemalloc.start()
    try:
        traj = integrate(P_SUPER, phi, spec_full(4000 * 0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = times_of(traj).nbytes + states_of(traj).nbytes
    assert traj.nodes == 4001
    assert peak <= 3 * returned, (peak, returned)


def test_tail_stats_needs_two_nodes():
    # one step of h = 0.1: the cut at t_end / 2 leaves the final node alone
    traj = integrate(P_SUPER, _phi(P_SUPER), spec_full(0.1, steps_per_delay=10))
    with pytest.raises(EmptyWindowError):
        tail_stats(traj)


def _strided_tail(traj):
    """The tail by the rule the step loop follows, over the stored nodes:
    builtin min and max of each component's column from the first node at
    or past the cut."""
    cut = defaults.TAIL_WINDOW * traj.t_end
    cut -= 1e-12 * (1.0 + abs(cut))
    first = next(k for k in range(traj.nodes) if k * traj.h >= cut)
    columns = [traj.ys[4 * first + q::4] for q in range(4)]
    return TailStats(first * traj.h, State(*map(min, columns)), State(*map(max, columns)))


def _tail_only(p, phi, spec):
    """The tail stats of a run that stores no node."""
    return _integrate(p, phi, spec, store=False).tail


def _bits(tail):
    return array("d", (tail.t_start, *tail.inf.as_tuple(), *tail.sup.as_tuple())).tobytes()


@pytest.mark.parametrize("history", ["constant", "table"])
@pytest.mark.parametrize("system,tau", [(SystemKind.FULL, 1.0),
                                        (SystemKind.LIMITING, 1.0),
                                        (SystemKind.FULL, 0.0)],
                         ids=["full", "limiting", "tau0"])
def test_tail_only_stats_are_the_stored_runs_bits(system, tau, history):
    # t_end 12 puts the cut on a node, 12.34 between two
    p = P_SUPER._replace(tau=tau)
    if history == "constant":
        phi = _phi(p)
    elif tau > 0:
        phi = HistorySegment.table([-tau, -tau / 3, 0.0],
                                   [(3.0, 0.2, 20.0, 1.0), (5.0, 1.5, 35.0, 12.0), X0])
    else:
        phi = HistorySegment.table([0.0], [(3.0, 0.2, 20.0, 1.0)])
    for t_end in (12.0, 12.34):
        spec = IntegrationSpec(system=system, t_end=t_end)
        traj = integrate(p, phi, spec)
        expected = _bits(_strided_tail(traj))
        assert _bits(tail_stats(traj)) == expected
        assert _bits(_tail_only(p, phi, spec)) == expected


def _new_sup_then_new_inf(column):
    """Whether, after its first value, the column rises above every earlier
    value and later falls below every earlier value."""
    sups, infs = list(accumulate(column, max)), list(accumulate(column, min))
    rise = next((j for j in range(1, len(column)) if column[j] > sups[j - 1]), None)
    return rise is not None and any(column[k] < infs[k - 1]
                                    for k in range(rise + 1, len(column)))


@pytest.mark.parametrize("system,tau", [(SystemKind.FULL, 1.0),
                                        (SystemKind.LIMITING, 1.0),
                                        (SystemKind.FULL, 0.0)],
                         ids=["full", "limiting", "tau0"])
def test_tail_sets_a_new_sup_then_a_new_inf_on_one_component(system, tau):
    # few infected hosts and many infected mosquitoes: I_h rises past its
    # value at the cut (t = 6), peaks, then falls below it before t = 12, so
    # the loop's tail `if` and `elif` both run on I_h after the first node
    p = P_SUPER._replace(tau=tau)
    rows = [(4.0, 0.02, 30.0, 15.0), (4.0, 0.01, 30.0, 20.0)]
    phi = (HistorySegment.table([-tau, 0.0], rows) if tau > 0
           else HistorySegment.table([0.0], rows[1:]))
    spec = IntegrationSpec(system=system, t_end=12.0)
    traj = integrate(p, phi, spec)
    expected = _strided_tail(traj)
    first = round(expected.t_start / traj.h)
    assert _new_sup_then_new_inf(traj.ys[4 * first + 1::4])
    assert _bits(tail_stats(traj)) == _bits(_tail_only(p, phi, spec)) == _bits(expected)


def test_tail_keeps_the_first_of_equal_zeros():
    # one step of 1e-13 puts the cut below node 0, so the tail is nodes 0
    # and 1; I_h is -0.0 at node 0 and 0.0 at node 1, and min and max both
    # keep the first, -0.0
    p = P_SUPER._replace(tau=0.0)
    phi = HistorySegment.constant((4.0, -0.0, 30.0, 0.0), 0.0)
    spec = IntegrationSpec(SystemKind.FULL, 1e-13, step=1e-13)
    traj = integrate(p, phi, spec)
    assert traj.nodes == 2 and traj.ys[1::4].tobytes() == array("d", [-0.0, 0.0]).tobytes()
    expected = _bits(_strided_tail(traj))
    assert math.copysign(1.0, traj.tail.inf.i_h) == math.copysign(1.0, traj.tail.sup.i_h) == -1.0
    assert _bits(tail_stats(traj)) == _bits(_tail_only(p, phi, spec)) == expected


def test_tail_only_needs_two_nodes_and_raises_a_breach_first():
    # one step: the window holds the final node alone. A stored run raises
    # only when its tail is read; a breach, or a final node at +inf, in that
    # one step is raised by both forms, not the empty window
    p, spec = P_SUPER, spec_full(0.1, steps_per_delay=10)
    traj = integrate(p, _phi(p), spec)
    with pytest.raises(EmptyWindowError):
        traj.tail
    with pytest.raises(EmptyWindowError):
        _tail_only(p, _phi(p), spec)
    breach = P_SUPER._replace(beta_h=1e6, tau=0.0)
    overflow = P_SUPER._replace(beta_h=1.7e308)
    for run in (integrate, _tail_only):
        with pytest.raises(NegativityBreachError, match="s_h"):
            run(breach, _phi(breach), IntegrationSpec(SystemKind.FULL, 0.5, step=0.5))
        with pytest.raises(NonFiniteStateError, match="inf"):
            run(overflow, _phi(overflow), spec_full(0.05))


def test_tail_only_run_memory_does_not_grow_with_its_steps():
    # no node is stored, so 10^5 steps peak where 10^4 do; the node buffer
    # of a stored run grows by 2.9 MB between them
    phi = _phi(P_SUPER)
    _tail_only(P_SUPER, phi, spec_full(1.0))  # warm up outside tracemalloc
    peaks = []
    for n in (10 ** 4, 10 ** 5):
        tracemalloc.start()
        try:
            _tail_only(P_SUPER, phi, spec_full(n * P_SUPER.tau / defaults.STEPS_PER_DELAY))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 4096, peaks


def test_clamp_band():
    assert _clamp(-1e-10, 1.0, 1) == 0.0
    assert _clamp(0.0, 1.0, 1) == 0.0
    assert _clamp(2.5, 1.0, 1) == 2.5
    with pytest.raises(NegativityBreachError):
        _clamp(-1e-8, 1.0, 1)
    for bad in (math.nan, -math.inf):
        with pytest.raises(NonFiniteStateError):
            _clamp(bad, 1.0, 1)


def test_overflow_exits_through_numerical_error():
    # NaN by the second step: the clamp reports it
    p = P_SUPER._replace(beta_h=1e308)
    with pytest.raises(NonFiniteStateError):
        integrate(p, _phi(p), spec_full(20.0))
    # +inf on the only committed node passes the clamp; the final check
    # catches it
    p = P_SUPER._replace(beta_h=1.7e308)
    h = p.tau / 20
    with pytest.raises(NumericalError) as info:
        integrate(p, _phi(p), spec_full(h))
    assert isinstance(info.value, NonFiniteStateError)
    assert info.value.value == math.inf


def test_history_delay_must_match_params():
    with pytest.raises(InvalidHistoryError):
        integrate(P_SUPER, HistorySegment.constant(X0, 2.0), spec_full(1.0))


def test_limiting_and_full_agree_when_pool_starts_at_rest():
    # history already at the resting vector total: the denominators coincide
    # until the totals drift, which they do not when N_v(0) = beta_v/mu_v
    phi = HistorySegment.constant((4.0, 0.5, 40.0, 10.0), 1.0)
    full = integrate(P_SUPER, phi, spec_full(5.0))
    lim = integrate(P_SUPER, phi, IntegrationSpec(system=SystemKind.LIMITING, t_end=5.0))
    assert float(np.max(np.abs(states_of(full) - states_of(lim)))) < 1e-12


def test_trajectory_csv_round_trip():
    traj = integrate(P_SUPER, _phi(P_SUPER), spec_full(1.0, steps_per_delay=4))
    buf = io.StringIO()
    traj.to_csv(buf)
    text = buf.getvalue().splitlines()
    assert text[0] == "t,S_h,I_h,S_v,I_v"
    parsed = np.loadtxt(text[1:], delimiter=",")
    assert np.array_equal(parsed[:, 0], times_of(traj))
    assert np.array_equal(parsed[:, 1:], states_of(traj))  # 17 digits round-trip exactly


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
def test_csv_blocks_join_to_one_row_per_index(rows):
    # the rows are formatted a block at a time; around a block's edges the
    # text is one "%.17g" row per index, as a row-by-row writer gives
    cols = ([k / 7 for k in range(rows)], [math.pi * k for k in range(rows)])
    buf = io.StringIO()
    integrator._write_csv(buf, "a,b", cols)
    assert buf.getvalue() == "a,b\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(*cols))


def test_nonnegativity_holds_from_boundary_history():
    phi = HistorySegment.constant((4.0, 0.0, 50.0, 0.1), 1.0)
    traj = integrate(P_SUB, phi, spec_full(200.0))
    assert float(states_of(traj).min()) >= 0.0


def test_default_horizon_is_forty_slowest_lifetimes():
    # IntegrationSpec() leaves t_end unset; integrate resolves it from p
    p = P_SUPER._replace(mu_h=0.08)
    traj = integrate(p, _phi(p), IntegrationSpec(steps_per_delay=2))
    assert traj.t_end == 40.0 / min(p.mu_h, p.mu_v) == 500.0
    traj = integrate(P_SUPER, _phi(P_SUPER), IntegrationSpec(steps_per_delay=2))
    assert traj.t_end == 40.0 / min(P_SUPER.mu_h, P_SUPER.mu_v) == 400.0


def test_integrate_validates_params():
    # a negative rate is an input error, not a step size too coarse
    with pytest.raises(NonPositiveRateError):
        integrate(P_SUPER._replace(beta_h=-1.0), _phi(P_SUPER), spec_full(10.0))


@pytest.mark.parametrize("tau", [1.0, 0.0])
def test_a_table_history_spans_tau_to_the_band(tau):
    # the span rule's band is 1e-9 (1 + tau): 0.8 of it off is accepted,
    # 1.2 of it off refused
    p = P_SUPER._replace(tau=tau)

    def run(off):
        times = [-(tau + off * 1e-9 * (1.0 + tau)), 0.0]
        return integrate(p, HistorySegment.table(times, [list(X0)] * 2), spec_full(2.0))

    exact = integrate(p, HistorySegment.constant(X0, tau), spec_full(2.0))
    assert run(0.8).nodes == exact.nodes
    with pytest.raises(InvalidHistoryError):
        run(1.2)


def test_delay_within_the_span_tolerance_reads_the_history():
    # the span rule accepts a delay 1e-10 past this table's span, and the
    # first delayed read, at -tau, once failed a 1e-12 range check
    phi = HistorySegment.table([-1.0, 0.0], [list(X0)] * 2)
    near = integrate(P_SUPER._replace(tau=1.0 + 1e-10), phi, spec_full(2.0))
    exact = integrate(P_SUPER, phi, spec_full(2.0))
    assert times_of(near).size == times_of(exact).size
    assert float(np.max(np.abs(states_of(near) - states_of(exact)))) < 1e-8


@pytest.mark.parametrize("tau,kw", [
    # explicit ids, frozen at the positional ones pytest first gave these
    # cases, so removing or inserting a case renames no other; a new case
    # takes a new id
    pytest.param(1.0, dict(t_end=0.0), id="1.0-kw0"),
    pytest.param(1.0, dict(t_end=1.0, steps_per_delay=0), id="1.0-kw1"),
    pytest.param(1.0, dict(t_end=1.0, steps_per_delay=-1), id="1.0-kw2"),
    # rounds to zero steps of h
    pytest.param(1.0, dict(t_end=1e-12), id="1.0-kw3"),
    pytest.param(0.0, dict(t_end=1.0, step=-0.1), id="0.0-kw4"),
    # used to overflow in int(round(inf))
    pytest.param(1.0, dict(t_end=math.inf), id="1.0-kw5"),
    pytest.param(1.0, dict(t_end=math.nan), id="1.0-kw6"),
    pytest.param(0.0, dict(t_end=1.0, step=math.inf), id="0.0-kw7"),
    pytest.param(0.0, dict(t_end=1.0, step=math.nan), id="0.0-kw8"),
    # each spec field is held to its scenario-loader rule: a str system once
    # ran the full system, and a bool count ran as 1
    pytest.param(1.0, dict(system="limiting", t_end=5.0), id="1.0-kw9"),
    pytest.param(1.0, dict(t_end=1.0, steps_per_delay=True), id="1.0-kw10"),
    pytest.param(1.0, dict(t_end=1.0, steps_per_delay=1.0), id="1.0-kw11"),
    pytest.param(1.0, dict(t_end=True), id="1.0-kw12"),
    pytest.param(1.0, dict(t_end=False), id="1.0-kw13"),
    pytest.param(1.0, dict(t_end="4"), id="1.0-kw14"),
    pytest.param(1.0, dict(t_end=10 ** 400), id="1.0-kw15"),
    pytest.param(0.0, dict(t_end=1.0, step=True), id="0.0-kw16"),
    # meshes past defaults.MAX_STEPS, rejected before the run starts: h =
    # 1e-201 (the default tau = 0 step 0.1 / max_rate at beta_h = 1e200),
    # h = tau / m = 5e-302, an h that underflows to 0 (t_end / h raised
    # ZeroDivisionError) and one step past the ceiling
    pytest.param(0.0, dict(t_end=20.0, step=1e-201), id="0.0-kw17"),
    pytest.param(1e-300, dict(t_end=20.0), id="1e-300-kw18"),
    pytest.param(5e-324, dict(t_end=1.0), id="5e-324-kw19"),
    pytest.param(0.0, dict(t_end=(defaults.MAX_STEPS + 1) * 0.05, step=0.05),
                 id="0.0-kw20"),
])
def test_integrate_spec_errors_are_validation_errors(no_runs_at_tiny_delays, tau, kw):
    p = P_SUPER._replace(tau=tau)
    with pytest.raises(InvalidSpecError) as info:
        integrate(p, _phi(p), IntegrationSpec(**kw))
    assert isinstance(info.value, ValidationError)


def test_stage_undershoot_is_a_negativity_breach():
    # the mosquito total obeys a closed-form decay law, so a zero total
    # inside an RK4 stage at this rate is an overshooting stage, not an
    # extinct pool
    p = P_SUPER._replace(beta_h=1e200)
    with pytest.raises(NegativityBreachError) as info:
        integrate(p, _phi(p), spec_full(20.0))
    assert info.value.component == "s_v"
    assert info.value.value < -1e-9
    assert info.value.t == pytest.approx(1.05)


def test_csv_writers_match_per_value_formatting():
    # one writer serves both artifacts; it must keep the 17-digit text
    traj = integrate(P_SUPER, _phi(P_SUPER), spec_full(3.0, steps_per_delay=7))
    buf = io.StringIO()
    traj.to_csv(buf)
    expected = "t,S_h,I_h,S_v,I_v\n" + "".join(
        f"{t:.17g},{r[0]:.17g},{r[1]:.17g},{r[2]:.17g},{r[3]:.17g}\n"
        for t, r in zip(times_of(traj), states_of(traj)))
    assert buf.getvalue() == expected


def _run_at_most_once(loop):
    """Per branch of the step loop that runs at most once per run (the
    `except` handlers, the first-tail-node init `i == first` and the clamp
    arm, the `else` of the `>= 0.0` test), the ids of the nodes under it."""
    once = {}
    for node in ast.walk(loop):
        if isinstance(node, ast.ExceptHandler):
            branch, stmts = "except", [node]
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "i == first":
            branch, stmts = "first tail node", node.body
        elif isinstance(node, ast.If) and ast.unparse(node.test).startswith("na >= 0.0"):
            branch, stmts = "clamp", node.orelse
        else:
            continue
        once.setdefault(branch, set()).update(id(n) for s in stmts for n in ast.walk(s))
    return once


def test_step_loop_assigns_no_tuple_of_four_or_more_names():
    # packing and unpacking a 4-tuple costs about as much as four float
    # operations, so the per-step path assigns one name per statement
    tree = ast.parse(inspect.getsource(integrator._integrate))
    loop = next(n for n in tree.body[0].body if isinstance(n, ast.For))
    once = _run_at_most_once(loop)
    assert once.keys() == {"except", "first tail node", "clamp"}
    skipped = set().union(*once.values())
    wide = [ast.unparse(n) for n in ast.walk(loop)
            if isinstance(n, ast.Assign) and id(n) not in skipped
            and any(isinstance(t, ast.Tuple) and len(t.elts) >= 4 for t in n.targets)]
    assert wide == []


def test_a_limiting_run_names_an_underflowing_s_v0():
    phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), 1.0)
    with pytest.raises(RateUnderflowError) as err:
        integrate(P_SV0_UNDERFLOW, phi, IntegrationSpec(SystemKind.LIMITING, 10.0))
    assert err.value.product == "S_v0 = beta_v / mu_v"
