"""Vector field, parameter validation, history segments."""

import enum
import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from malaria_dde import (
    HistorySegment,
    InvalidHistoryError,
    ModelParams,
    NegativeDelayError,
    NonPositiveRateError,
    OutOfRangeError,
    RateUnderflowError,
    State,
    SystemKind,
    ZeroMosquitoPopulationError,
    default_ode_step,
    default_t_end,
    rhs,
)
from malaria_dde.model import _finite_real

from conftest import P_SUPER, P_SV0_UNDERFLOW


def test_rhs_full_anchor():
    # incidence 0.2 * (10/50) * 4 = 0.16; vector turnover 5 - 0.1*40 = 1
    s = State(4.0, 0.0, 40.0, 10.0)
    d = rhs(P_SUPER, s, s, SystemKind.FULL)
    assert d == pytest.approx((-0.16, 0.16, 1.0, -1.0), abs=1e-12)


def test_limiting_freezes_delayed_denominator():
    now = State(4.0, 0.0, 40.0, 10.0)
    delayed = State(4.0, 0.0, 30.0, 10.0)  # pool 40, not the resting 50
    d_full = rhs(P_SUPER, now, delayed, SystemKind.FULL)
    d_lim = rhs(P_SUPER, now, delayed, SystemKind.LIMITING)
    assert d_full[1] == pytest.approx(0.2 * (10 / 40) * 4, abs=1e-12)
    assert d_lim[1] == pytest.approx(0.2 * (10 / 50) * 4, abs=1e-12)


def test_host_incidence_uses_current_time_in_susceptible_equation():
    now = State(4.0, 1.0, 40.0, 10.0)
    delayed = State(2.0, 0.5, 45.0, 5.0)
    d = rhs(P_SUPER, now, delayed, SystemKind.FULL)
    # S_h' sees today's infection pressure, I_h' sees the delayed one
    assert d[0] == pytest.approx(2.0 - 0.2 * (10 / 50) * 4 - 0.5 * 4, abs=1e-12)
    assert d[1] == pytest.approx(0.2 * (5 / 50) * 2 - 0.5 * 1, abs=1e-12)


def test_vector_total_infection_flux_cancels():
    # S_v' + I_v' must reduce to recruitment minus death, independent of
    # the infection flux moving mass between the two compartments
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = State(*(float(x) for x in rng.uniform(0.01, 50.0, size=4)))
        d = rhs(P_SUPER, s, s, SystemKind.FULL)
        expected = P_SUPER.beta_v - P_SUPER.mu_v * s.n_v
        assert d[2] + d[3] == pytest.approx(expected, abs=1e-12)


def test_limiting_rhs_names_an_underflowing_s_v0():
    s = State(4.0, 0.5, 30.0, 10.0)
    with pytest.raises(RateUnderflowError) as err:
        rhs(P_SV0_UNDERFLOW, s, s, SystemKind.LIMITING)
    assert err.value.product == "S_v0 = beta_v / mu_v"
    rhs(P_SV0_UNDERFLOW, s, s, SystemKind.FULL)  # the full system never divides by it


def test_rhs_rejects_zero_vector_population():
    dead = State(4.0, 1.0, 0.0, 0.0)
    alive = State(4.0, 1.0, 30.0, 10.0)
    with pytest.raises(ZeroMosquitoPopulationError):
        rhs(P_SUPER, dead, alive, SystemKind.FULL)
    with pytest.raises(ZeroMosquitoPopulationError):
        rhs(P_SUPER, alive, dead, SystemKind.FULL)


@pytest.mark.parametrize("field", ["beta_h", "beta_v", "mu_h", "mu_v", "c_vh", "c_hv"])
def test_validate_rejects_nonpositive_rates(field):
    # a bool is not a number: beta_h = True once gave R0 = 0.894; an int
    # beyond the float range once raised a bare OverflowError
    for bad in (0.0, -1.0, True, False, "4", 10 ** 400):
        with pytest.raises(NonPositiveRateError) as err:
            P_SUPER._replace(**{field: bad})
        assert err.value.name == field


def test_validate_delay():
    for bad in (-0.5, True, False, "4", 10 ** 400):
        with pytest.raises(NegativeDelayError):
            P_SUPER._replace(tau=bad)
        with pytest.raises(NegativeDelayError):
            HistorySegment.constant((4.0, 0.5, 30.0, 10.0), bad)
    assert P_SUPER._replace(tau=0.0).tau == 0.0


def _finite_real_before_fast_path(x):
    """The number rule as _finite_real read before exact floats skipped its
    isinstance checks: the oracle for that fast path."""
    if not isinstance(x, (float, int, numbers.Real)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class _Float(float):
    pass


_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1.1125369292536007e-308, 1.5, 1.7976931348623157e308,
            _Float(2.5), _Float(math.nan), _Float(-math.inf), 0, -3, 10 ** 400, -10 ** 400,
            True, False, Fraction(1, 3), Fraction(10 ** 400, 3), np.float64(1.5),
            np.float64(np.nan), np.float64(-np.inf), np.int64(4), Decimal("1.5"),
            Decimal("nan"), Decimal("inf"), None, "1.5", "nan")


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_finite_real_fast_path_gives_the_old_answers(x):
    # the fast path for exact floats answers as the isinstance chain did
    assert _finite_real(x) is _finite_real_before_fast_path(x)


@given(st.floats().map(_Float) | st.integers() | st.fractions() | st.decimals())
def test_finite_real_answers_as_before_off_the_fast_path(x):
    assert _finite_real(x) is _finite_real_before_fast_path(x)


@pytest.mark.parametrize("x", _NUMBERS, ids=repr)
def test_finite_real_gives_the_old_answer_on_every_kind_of_value(x):
    assert _finite_real(x) is _finite_real_before_fast_path(x)


def test_state_accessors():
    s = State(1.0, 2.0, 3.0, 4.0)
    assert s.n_v == 7.0
    assert s.as_tuple() == (1.0, 2.0, 3.0, 4.0)


def test_params_pools():
    assert P_SUPER.s_h0 == 4.0
    assert P_SUPER.s_v0 == 50.0
    assert default_t_end(P_SUPER.mu_h, P_SUPER.mu_v) == 400.0
    assert default_ode_step(0.5) == 0.05
    assert default_ode_step(10.0) == pytest.approx(0.01)


# ------------------------------------------------------------- histories

def test_constant_history_zero_delay_is_single_sample():
    h = HistorySegment.constant((1.0, 2.0, 3.0, 4.0), 0.0)
    assert h.tau == 0.0
    assert h.state_at(0.0).as_tuple() == (1.0, 2.0, 3.0, 4.0)


@given(st.floats(min_value=-1.0, max_value=0.0))
def test_constant_history_is_constant(theta):
    h = HistorySegment.constant((1.5, 0.25, 30.0, 10.0), 1.0)
    assert h.state_at(theta).as_tuple() == (1.5, 0.25, 30.0, 10.0)


def test_table_history_linear_interpolation():
    h = HistorySegment.table(
        times=(-1.0, -0.4, 0.0),
        states=((1.0, 0.0, 30.0, 10.0), (2.0, 0.6, 30.0, 10.0), (5.0, 0.0, 30.0, 10.0)))
    assert h.tau == 1.0
    mid = h.state_at(-0.7)  # halfway along the first panel
    assert mid.s_h == pytest.approx(1.5, abs=1e-15)
    assert mid.i_h == pytest.approx(0.3, abs=1e-15)
    assert h.state_at(-0.4).s_h == 2.0


@given(st.floats(min_value=-2.0, max_value=0.0))
def test_table_history_interpolation_stays_in_node_hull(theta):
    times = (-2.0, -1.3, -0.5, 0.0)
    rows = ((1.0, 0.2, 30.0, 10.0), (4.0, 0.0, 20.0, 15.0),
            (2.0, 1.0, 35.0, 5.0), (3.0, 0.5, 25.0, 12.0))
    h = HistorySegment.table(times, rows)
    cols = list(zip(*rows))
    s = h.state_at(theta).as_tuple()
    for k in range(4):
        assert min(cols[k]) - 1e-12 <= s[k] <= max(cols[k]) + 1e-12


@pytest.mark.parametrize("times,states,why", [
    ((-1.0, -1.0, 0.0), None, "not strictly increasing"),
    ((-1.0, -0.5, -0.1), None, "must end at 0"),
    ((-1.0, 0.0), [[1, -0.1, 30, 10], [1, 0, 30, 10]], "negative component"),
    ((-1.0, 0.0), [[1, 0, 0, 0], [1, 0, 30, 10]], "vector pool empty"),
])
def test_table_history_validation(times, states, why):
    if states is None:
        states = [[1.0, 0.0, 30.0, 10.0]] * len(times)
    with pytest.raises(InvalidHistoryError):
        HistorySegment.table(tuple(times), tuple(tuple(r) for r in states))


@pytest.mark.parametrize("build", [
    # a NaN first time used to give a segment with tau = nan
    lambda: HistorySegment.table((float("nan"), 0.0), [[1, 0, 30, 10]] * 2),
    lambda: HistorySegment.table((-1.0, 0.0),
                                 [[1, float("nan"), 30, 10], [1, 0, 30, 10]]),
    # a NaN in a constant history used to surface as a blown-up solution
    lambda: HistorySegment.constant((4.0, float("nan"), 30.0, 10.0), 1.0),
    lambda: HistorySegment.constant((4.0, 0.5, float("inf"), 10.0), 0.0),
], ids=["table-time", "table-sample", "constant-nan", "constant-inf"])
def test_history_rejects_non_finite_values(build):
    with pytest.raises(InvalidHistoryError, match="finite"):
        build()


def test_value_at_is_np_interp_bit_for_bit(rng):
    # value_at ports np.interp's arithmetic: the same float at sample hits,
    # between samples, past either end within the span tolerance, and on
    # constant histories (tau = 0 included). Samples 0 and 1e308 only 1e-300
    # apart overflow the slope, so the reads between them are -inf or +inf
    segs = [HistorySegment.constant((4.0, 0.5, 30.0, 10.0), tau)
            for tau in (0.0, 1.0, 2.5)]
    steep = [[1e308, 0.0, 1e308, 10.0], [0.0, 1e308, 0.0, 10.0]]
    overflowing = [HistorySegment.table([-1e-300, 0.0], steep),
                   HistorySegment.table([-1.0, -1e-300, 0.0], [steep[0], *steep])]
    segs += overflowing
    for n in (2, 3, 8):
        tau = float(rng.uniform(0.1, 3.0))
        times = [-tau, *np.sort(rng.uniform(-tau, 0.0, n - 2)).tolist(), 0.0]
        rows = rng.uniform(0.1, 50.0, (n, 4))
        rows[1] = rows[0]  # a flat piece
        segs.append(HistorySegment.table(times, rows.tolist()))
    for seg in segs:
        tau = seg.tau
        thetas = [*seg.times.tolist(), *rng.uniform(-tau, 0.0, 40).tolist(),
                  -tau - 5e-10 * (1.0 + tau), 5e-13, -0.0, -5e-301, -1e-310]
        for theta in thetas:
            want = [float(np.interp(theta, seg.times, seg.states[k::4])).hex()
                    for k in range(4)]
            assert [v.hex() for v in seg.value_at(theta)] == want, theta
    for seg in overflowing:
        assert seg.value_at(-5e-301) == (-math.inf, math.inf, -math.inf, 10.0)


def test_history_value_out_of_range():
    h = HistorySegment.constant((1.0, 0.0, 30.0, 10.0), 1.0)
    with pytest.raises(OutOfRangeError):
        h.state_at(-1.5)
    with pytest.raises(OutOfRangeError):
        h.state_at(0.5)
    # NaN fails both range comparisons, so it once returned four NaNs; -inf
    # would pass the span rule alone, whose tolerance 1e-9 (1 + inf) is inf
    for seg in (h, HistorySegment.constant((1.0, 0.0, 30.0, 10.0), 0.0)):
        for theta in (math.nan, -math.inf):
            with pytest.raises(OutOfRangeError):
                seg.value_at(theta)
    # below -tau, a read is in range as far as the span rule (1e-9 (1 + tau))
    # lets a delay exceed the history's span, and reads the first sample
    assert h.value_at(-1.0 - 1e-10) == h.value_at(-1.0)
    with pytest.raises(OutOfRangeError):
        h.value_at(-1.0 - 3e-9)
    # above 0, a read is in range up to 1e-12, and reads the last sample
    assert HistorySegment.constant((1.0, 0.5, 30.0, 10.0), 1.0).value_at(1e-12) == (
        1.0, 0.5, 30.0, 10.0)
    with pytest.raises(OutOfRangeError):
        h.value_at(2e-12)
    # at tau = 0 the lower bound prints as 0, not -0
    with pytest.raises(OutOfRangeError,
                       match=r"^t = -1e-08 outside the computed range \[0, 0\]$"):
        HistorySegment.constant((1.0, 0.0, 30.0, 10.0), 0.0).value_at(-1e-8)


def _every_build(state):
    return (lambda: HistorySegment.constant(state, 0.0),
            lambda: HistorySegment.constant(state, 1.0),
            lambda: HistorySegment.table((-1.0, 0.0), (state, state)))


@pytest.mark.parametrize("builds", [
    _every_build((1.0, 2.0, 3.0)),
    _every_build((1.0, 2.0, 3.0, 4.0, 5.0)),
    (lambda: HistorySegment.constant(5.0, 1.0),),
    (lambda: HistorySegment.table((-1.0, 0.0), [[1, 2, 3, 4], [1, 2]]),),
    (lambda: HistorySegment.table((-1.0, 0.0), [[1, 2, 3, 4], [1, 2, "x", 4]]),),
    (lambda: HistorySegment.table(("-1", 0.0), [["4", "0.5", "30", "10"]] * 2),),
    (lambda: HistorySegment.table((-1.0, 0.0), [[True, False, True, True]] * 2),),
    (lambda: HistorySegment.constant((True, False, True, True), 1.0),),
], ids=["three", "five", "scalar", "ragged", "non_numeric", "numeric_strings",
        "bool_table", "bool_constant"])
def test_history_state_must_be_a_four_vector(builds):
    # three components once raised a bare IndexError and five were accepted;
    # a scalar state raised TypeError, a ragged or non-numeric table numpy's
    # ValueError; numeric strings and bools were once read as numbers
    for build in builds:
        with pytest.raises(InvalidHistoryError, match="4-vector"):
            build()


# the package namespace as it was listed by hand, plus InvalidSpecError and
# RateUnderflowError, less NoBracketError and the test-only names
# convergence_order, descend_check, DomainFlag, f_bridge, full_char_eval,
# NonPositiveArgumentError and rhs_limiting, less EndemicAbsentError and
# SupercriticalR0Error (SubcriticalR0Error says E* is absent), and less
# RECORD_STRIDE (every mesh node is recorded)
PUBLIC_NAMES = {
    "CLAMP_BAND", "COMPONENT_NAMES", "CharCoeffs", "Classification",
    "DEFAULT_THETA", "DfeCharCoeffs", "EmptyWindowError",
    "EndemicCharCoeffs", "EquilibriumKind",
    "EquilibriumSet", "FunctionalKind", "HistorySegment", "IntegrationSpec",
    "InvalidHistoryError", "InvalidSpecError", "LyapunovTrace", "ModelError",
    "ModelParams", "NegativeDelayError", "NegativityBreachError",
    "NonFiniteStateError",
    "NonPositiveProductError", "NonPositiveRateError", "NotInDomainDError",
    "NumericalError", "OutOfRangeError", "OutsideOmega1Error",
    "OutsideOmega2Error", "PersistenceBounds", "PersistenceReport",
    "RateUnderflowError", "RootPolishError",
    "STEPS_PER_DELAY", "Scenario",
    "SchemaError", "StabilityReport", "State", "SubcriticalR0Error",
    "SweepSpec", "SystemKind", "TAIL_WINDOW",
    "TailStats", "ThetaOutOfRangeError", "Trajectory", "ValidationError",
    "ZeroMosquitoPopulationError", "basic_reproduction_number", "char_eval",
    "classify", "default_ode_step", "default_t_end",
    "dense_eval", "disease_free_equilibrium",
    "endemic_equilibrium", "equilibrium_residual", "equilibrium_set",
    "integrate",
    "load_scenario", "load_sweep", "persistence_bounds", "r0_squared",
    "rhs", "rightmost_real_root",
    "run_scenario", "run_sweep", "tail_stats", "trace_along", "v_dfe",
    "v_endemic", "weak_persistence_check",
}


def test_public_namespace_is_derived_and_unchanged():
    import malaria_dde

    assert len(malaria_dde.__all__) == len(set(malaria_dde.__all__))
    assert set(malaria_dde.__all__) == PUBLIC_NAMES
    for name in malaria_dde.__all__:
        assert getattr(malaria_dde, name) is not None


def test_every_public_value_type_is_a_named_tuple():
    # one kind of value type: every public value class is a tuple, so each
    # compares and hashes by value
    import malaria_dde

    classes = [getattr(malaria_dde, name) for name in malaria_dde.__all__]
    plain = {cls.__name__ for cls in classes
             if isinstance(cls, type) and not issubclass(cls, (BaseException, enum.Enum))
             and not issubclass(cls, tuple)}
    assert plain == set()
