"""Persistence bounds (closed forms) and the tail-based trajectory check."""

import re
from fractions import Fraction

import numpy as np
import pytest

from malaria_dde import (
    HistorySegment,
    IntegrationSpec,
    InvalidSpecError,
    NotInDomainDError,
    ModelParams,
    NumericalError,
    RateUnderflowError,
    SubcriticalR0Error,
    State,
    SystemKind,
    TailStats,
    ThetaOutOfRangeError,
    endemic_equilibrium,
    integrate,
    persistence_bounds,
    tail_stats,
    weak_persistence_check,
)

from conftest import P_SUB, P_SUPER, constant_history, draw_supercritical


def full_run(p, phi, t_end=None):
    """The full-system run the check reads; integrate's default horizon is
    40 / min(mu_h, mu_v)."""
    return integrate(p, phi, IntegrationSpec(system=SystemKind.FULL, t_end=t_end))


def test_bounds_anchor_against_exact_rationals():
    b = persistence_bounds(P_SUPER, 0.5)
    # beta_v / (theta c_hv I_h* + mu_v) with I_h* = 3/7 gives 700/17;
    # feeding that back into the host bound gives 340/91
    assert b.s_v_bar == pytest.approx(float(Fraction(700, 17)), rel=1e-14)
    assert b.s_h_bar == pytest.approx(float(Fraction(340, 91)), rel=1e-14)


def test_bounds_dominate_endemic_components(rng):
    thetas = [k / 10 for k in range(1, 10)]
    for p in [P_SUPER] + [draw_supercritical(rng) for _ in range(30)]:
        star = endemic_equilibrium(p)
        for theta in thetas:
            b = persistence_bounds(p, theta)
            assert b.s_v_bar > star.s_v
            assert b.s_h_bar > star.s_h


def test_bounds_decrease_toward_endemic_values(rng):
    for p in [P_SUPER] + [draw_supercritical(rng) for _ in range(10)]:
        star = endemic_equilibrium(p)
        prev_v, prev_h = float("inf"), float("inf")
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9, 0.999999):
            b = persistence_bounds(p, theta)
            assert b.s_v_bar < prev_v and b.s_h_bar < prev_h
            prev_v, prev_h = b.s_v_bar, b.s_h_bar
        # at theta -> 1 both bounds approach the endemic components
        assert b.s_v_bar == pytest.approx(star.s_v, rel=1e-4)
        assert b.s_h_bar == pytest.approx(star.s_h, rel=1e-4)


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.2, 1.7, "0.5", None])
def test_theta_must_be_interior(theta):
    with pytest.raises(ThetaOutOfRangeError):
        persistence_bounds(P_SUPER, theta)
    with pytest.raises(ThetaOutOfRangeError):
        weak_persistence_check(
            P_SUPER, full_run(P_SUPER, HistorySegment.constant((4, 1, 30, 10), 1.0)),
            theta)


def test_bounds_require_supercritical():
    with pytest.raises(SubcriticalR0Error):
        persistence_bounds(P_SUB, 0.5)


def test_check_requires_seeded_infection():
    unseeded = HistorySegment.constant((4.0, 0.0, 30.0, 10.0), 1.0)
    with pytest.raises(NotInDomainDError):
        weak_persistence_check(P_SUPER, full_run(P_SUPER, unseeded), 0.5)


def test_check_passes_on_reference_supercritical_run():
    phi = HistorySegment.table(
        (-1.0, -0.3, 0.0),
        ((6.0, 0.05, 20.0, 2.0), (5.0, 0.3, 30.0, 6.0), (4.0, 0.7, 35.0, 9.0)))
    report = weak_persistence_check(P_SUPER, full_run(P_SUPER, phi), 0.9)
    assert report.passes
    assert report.threshold == pytest.approx(0.9 * 3.0 / 7.0, rel=1e-12)
    assert report.i_h_tail_sup > report.threshold
    assert report.tail.sup.s_h > 0


def test_checks_at_each_theta_share_the_runs_tail_stats(rng):
    # the tail is read once per trajectory, however many thetas check it
    traj = full_run(P_SUPER, constant_history(P_SUPER, rng), t_end=40.0)
    tails = [weak_persistence_check(P_SUPER, traj, theta).tail
             for theta in (0.5, 0.9)]
    assert tails[0] is tails[1] is tail_stats(traj)


def test_bounds_rounded_onto_the_endemic_state_leave_as_numerical_error():
    # 1 - 2^-53 is inside (0, 1), but s_v_bar's margin over S_v* is below
    # rounding: both evaluate to 34.99999999999999
    theta = 1.0 - 2.0 ** -53
    assert 0.0 < theta < 1.0
    with pytest.raises(NumericalError, match=re.escape(f"theta = {theta!r}")):
        persistence_bounds(P_SUPER, theta)


def test_s_v_bar_rounded_onto_s_v_star_alone_leaves_as_numerical_error():
    # at 1 - 2^-53 these rates round s_v_bar onto S_v*, while s_h_bar still
    # clears S_h*: the strict s_v_bar > S_v* alone refuses the bounds
    p = ModelParams(beta_h=1.5, beta_v=1.0, mu_h=0.3125, mu_v=1.0, c_vh=0.375,
                    c_hv=1.5, tau=1.0)
    theta = 1.0 - 2.0 ** -53
    star = endemic_equilibrium(p)
    s_v_bar = p.beta_v / (theta * p.c_hv * star.i_h + p.mu_v)
    s_h_bar = p.beta_h / (p.c_vh * (1.0 - s_v_bar / p.s_v0) + p.mu_h)
    assert s_v_bar == star.s_v and s_h_bar > star.s_h
    with pytest.raises(NumericalError, match=re.escape(f"theta = {theta!r}")):
        persistence_bounds(p, theta)


def test_bounds_name_an_underflowing_s_v0():
    # R0^2 = 66.7, so E* exists, but S_v0 = beta_v / mu_v underflows to 0 and
    # s_h_bar divides by it; this once raised a bare ZeroDivisionError
    p = ModelParams(beta_h=2, beta_v=5e-324, mu_h=0.5, mu_v=3, c_vh=5, c_hv=5, tau=1)
    assert endemic_equilibrium(p) is not None and p.s_v0 == 0.0
    with pytest.raises(RateUnderflowError) as err:
        persistence_bounds(p, 0.5)
    assert err.value.product == "S_v0 = beta_v / mu_v"


def test_report_lines_carry_theta_key():
    phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), 1.0)
    traj = full_run(P_SUPER, phi, t_end=80.0)
    report = weak_persistence_check(P_SUPER, traj, 0.25)
    lines = report.as_lines()
    assert lines[0].startswith("persistence.theta_0.25.threshold = ")
    assert lines[-1] == f"persistence.theta_0.25.passes = {str(report.passes).lower()}"
    # 0.5 and 0.50000001 need keys of their own; a numpy float keys as its float
    for theta, key in [(0.5, "0.5"), (0.50000001, "0.50000001"), (0.9, "0.9"),
                       (np.float64(0.5), "0.5")]:
        line = weak_persistence_check(P_SUPER, traj, theta).as_lines()[0]
        assert line.startswith(f"persistence.theta_{key}.threshold = "), line


def test_check_fails_at_the_threshold_and_at_each_zero_sup():
    # every comparison is strict: a tail sup of I_h equal to theta I_h*, or
    # any component's tail sup at 0, fails the check
    phi = HistorySegment.constant((3.0, 1.0, 30.0, 10.0), P_SUPER.tau)
    traj = full_run(P_SUPER, phi, t_end=20.0)
    tail = traj.tail
    report = weak_persistence_check(P_SUPER, traj, 0.5)
    assert report.passes

    def check(sup: State) -> bool:
        edited = traj._replace(tail=TailStats(tail.t_start, tail.inf, sup))
        return weak_persistence_check(P_SUPER, edited, 0.5).passes

    assert not check(tail.sup._replace(i_h=report.threshold))
    for name in State._fields:
        assert not check(tail.sup._replace(**{name: 0.0})), name


def test_check_subcritical_rejected():
    phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), 1.0)
    with pytest.raises(SubcriticalR0Error):
        weak_persistence_check(P_SUB, full_run(P_SUB, phi), 0.5)


def test_check_rejects_a_limiting_system_trajectory():
    phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), 1.0)
    lim = integrate(P_SUPER, phi, IntegrationSpec(system=SystemKind.LIMITING,
                                                  t_end=80.0))
    with pytest.raises(InvalidSpecError, match="full system"):
        weak_persistence_check(P_SUPER, lim, 0.5)
