"""Acceptance suite: eight numbered criteria, one prefix per criterion.

Every test name starts with test_cN_ so the terminal summary in conftest can
aggregate a pass/fail verdict per criterion. Tolerances are part of the
contract and are asserted exactly as stated, including the one case that is
known not to be reachable (see test_c5_threshold_trajectories, kept red on
purpose).
"""

import numpy as np
import pytest

from malaria_dde import (
    Classification,
    DfeCharCoeffs,
    EndemicCharCoeffs,
    EquilibriumKind,
    FunctionalKind,
    HistorySegment,
    IntegrationSpec,
    SystemKind,
    basic_reproduction_number,
    classify,
    disease_free_equilibrium,
    endemic_equilibrium,
    equilibrium_residual,
    equilibrium_set,
    integrate,
    persistence_bounds,
    r0_squared,
    rhs,
    weak_persistence_check,
)

from conftest import (
    P_CRIT,
    P_SUB,
    P_SUPER,
    constant_history,
    convergence_order,
    draw_params,
    draw_subcritical,
    draw_supercritical,
    limiting_trace,
    states_of,
    times_of,
)


def full_spec(t_end, **kw):
    return IntegrationSpec(system=SystemKind.FULL, t_end=t_end, **kw)


def final_distance(p, phi, target, t_end):
    traj = integrate(p, phi, full_spec(t_end))
    return float(np.max(np.abs(states_of(traj)[-1] - np.asarray(target.as_tuple()))))


# ---------------------------------------------------------------- criterion 1

def test_c1_closed_forms_solve_the_steady_state_equations():
    rng = np.random.default_rng(101)
    draws = [draw_params(rng) for _ in range(50)]
    draws += [draw_supercritical(rng) for _ in range(50)]
    for p in draws:
        e0 = disease_free_equilibrium(p)
        d = rhs(p, e0, e0, SystemKind.FULL)
        assert d[1] == 0.0 and d[3] == 0.0  # infection balance holds exactly
        # susceptible rows can carry one rounding of beta - mu*(beta/mu)
        assert equilibrium_residual(p, e0) <= 5e-16 * (1.0 + max(p.beta_h, p.beta_v))
        if r0_squared(p) > 1.0:
            star = endemic_equilibrium(p)
            assert star is not None
            assert equilibrium_residual(p, star) < 1e-10


def test_c1_benchmark_equilibria_are_exact():
    for p in (P_SUPER, P_SUB, P_CRIT):
        assert equilibrium_residual(p, disease_free_equilibrium(p)) == 0.0
    star = endemic_equilibrium(P_SUPER)
    for got, want in zip(star.as_tuple(), (3.571429, 0.428571, 35.0, 15.0)):
        assert got == pytest.approx(want, abs=1e-5)


# ---------------------------------------------------------------- criterion 2

def test_c2_reproduction_number_identities():
    rng = np.random.default_rng(202)
    for _ in range(100):
        p = draw_supercritical(rng)
        r2 = r0_squared(p)
        r0 = basic_reproduction_number(p)
        q = DfeCharCoeffs.from_params(p)
        assert q.a2 + q.a3 == pytest.approx(
            p.mu_v * p.mu_h * (1.0 - r2), rel=1e-10)
        c = EndemicCharCoeffs.from_params(p)
        assert c.a2 + c.a3 == pytest.approx(
            (r0 + 1.0) * p.mu_v * p.mu_h * (r0 - 1.0), rel=1e-10)
        star = endemic_equilibrium(p)
        assert r2 == pytest.approx(
            (p.s_v0 * p.s_h0) / (star.s_v * star.s_h), rel=1e-10)


# ---------------------------------------------------------------- criterion 3

def test_c3_spectral_trichotomy_across_regimes_and_delays():
    rng = np.random.default_rng(303)
    for i in range(50):
        subcritical = i % 2 == 0
        base = draw_subcritical(rng) if subcritical else draw_supercritical(rng)
        for tau in (0.0, 0.5, 2.0):
            p = base._replace(tau=tau)
            dfe = classify(p, EquilibriumKind.DISEASE_FREE)
            if subcritical:
                assert dfe.classification is Classification.LAS
                assert dfe.rightmost_real_root is not None
                assert dfe.rightmost_real_root < 0.0
                assert not dfe.imag_axis_root_exists
            else:
                assert dfe.classification is Classification.UNSTABLE
                assert dfe.rightmost_real_root is not None
                assert dfe.rightmost_real_root > 0.0
                star = classify(p, EquilibriumKind.ENDEMIC)
                assert star.classification is Classification.LAS
                assert star.routh_hurwitz_tau0
                assert not star.imag_axis_root_exists


def test_c3_reference_dominant_root():
    rep = classify(P_SUPER._replace(tau=0.0), EquilibriumKind.DISEASE_FREE)
    assert rep.rightmost_real_root == pytest.approx(0.0464102, abs=1e-6)


# ---------------------------------------------------------------- criterion 4

def test_c4_observed_order_is_fourth():
    for p in (P_SUPER, P_SUB):
        phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), p.tau)
        order = convergence_order(p, phi, full_spec(6.0, steps_per_delay=8))
        assert order is not None
        assert 3.5 <= order <= 4.5


def test_c4_mosquito_total_follows_the_closed_form():
    p = P_SUPER
    phi = HistorySegment.constant((4.0, 0.5, 30.0, 10.0), p.tau)
    traj = integrate(p, phi, full_spec(100.0))
    ys = states_of(traj)
    n_v = ys[:, 2] + ys[:, 3]
    exact = p.s_v0 + (40.0 - p.s_v0) * np.exp(-p.mu_v * times_of(traj))
    assert float(np.max(np.abs(n_v - exact))) < 1e-6


def test_c4_componentwise_nonnegativity_is_preserved():
    # the stepper is explicit, so the mesh must resolve the fastest linear
    # rate of the draw (vector turnover c_hv * N_h + mu_v and friends);
    # h * rate <= 0.5 keeps it far inside the stability region
    rng = np.random.default_rng(404)
    for _ in range(20):
        p = draw_params(rng)
        phi = constant_history(p, rng, infected_floor=0.0)
        entry = phi.state_at(0.0)
        n_h_max = max(entry.s_h + entry.i_h, p.s_h0)
        rate = p.c_hv * n_h_max + p.c_vh + p.mu_h + p.mu_v
        if p.tau > 0:
            spec = full_spec(50.0, steps_per_delay=max(20, int(np.ceil(2.0 * p.tau * rate))))
        else:
            spec = full_spec(50.0, step=min(0.05, 0.5 / rate))
        traj = integrate(p, phi, spec)
        assert float(states_of(traj).min()) >= 0.0


# ---------------------------------------------------------------- criterion 5

def test_c5_subcritical_trajectories_reach_the_disease_free_state():
    rng = np.random.default_rng(505)
    t_end = 40.0 / min(P_SUB.mu_h, P_SUB.mu_v)
    target = disease_free_equilibrium(P_SUB)
    for _ in range(10):
        phi = constant_history(P_SUB, rng, infected_floor=0.0)
        assert final_distance(P_SUB, phi, target, t_end) < 1e-3


def test_c5_threshold_trajectories_reach_the_disease_free_state():
    # Known red. At the threshold the attraction is only algebraic: the
    # infected pools decay like a constant over t, so at t_end = 160 they
    # still sit near 0.5 and no refinement of the mesh changes that. The
    # bound is asserted as stated rather than widened so the miss stays
    # visible; README's acceptance notes discuss it.
    rng = np.random.default_rng(506)
    t_end = 40.0 / min(P_CRIT.mu_h, P_CRIT.mu_v)
    target = disease_free_equilibrium(P_CRIT)
    assert r0_squared(P_CRIT) == 1.0
    for _ in range(10):
        phi = constant_history(P_CRIT, rng, infected_floor=0.0)
        assert final_distance(P_CRIT, phi, target, t_end) < 1e-3


def test_c5_supercritical_trajectories_reach_the_endemic_state():
    rng = np.random.default_rng(507)
    t_end = 40.0 / min(P_SUPER.mu_h, P_SUPER.mu_v)
    target = endemic_equilibrium(P_SUPER)
    for _ in range(10):
        phi = constant_history(P_SUPER, rng)  # seeded infection
        assert final_distance(P_SUPER, phi, target, t_end) < 1e-3


# ---------------------------------------------------------------- criterion 6

@pytest.mark.parametrize("p,kind", [
    (P_SUB, FunctionalKind.V_DFE),
    (P_SUPER, FunctionalKind.V_ENDEMIC),
], ids=["disease_free", "endemic"])
def test_c6_lyapunov_descent(p, kind):
    rng = np.random.default_rng(606)
    t_end = 40.0 / min(p.mu_h, p.mu_v)
    for _ in range(20):
        phi = constant_history(p, rng)
        trace = limiting_trace(p, phi, kind, t_end)
        slack = 1e-7 * (1.0 + abs(float(trace.values[0])))
        assert trace.max_increase <= slack
        assert float(trace.values[-1]) < 1e-3


# ---------------------------------------------------------------- criterion 7

def test_c7_weak_persistence_holds_at_every_tested_fraction():
    rng = np.random.default_rng(707)
    t_end = 40.0 / min(P_SUPER.mu_h, P_SUPER.mu_v)
    runs = [integrate(P_SUPER, constant_history(P_SUPER, rng), full_spec(t_end))
            for _ in range(10)]
    for theta in (0.1, 0.5, 0.9):
        for traj in runs:
            assert weak_persistence_check(P_SUPER, traj, theta).passes


def test_c7_susceptible_bounds_dominate_the_endemic_state():
    rng = np.random.default_rng(708)
    for p in [P_SUPER] + [draw_supercritical(rng) for _ in range(30)]:
        star = endemic_equilibrium(p)
        for theta in [k / 10 for k in range(1, 10)]:
            b = persistence_bounds(p, theta)
            assert b.s_v_bar > star.s_v
            assert b.s_h_bar > star.s_h


def test_c7_reference_bounds():
    b = persistence_bounds(P_SUPER, 0.5)
    assert b.s_v_bar == pytest.approx(41.176471, abs=1e-5)
    assert b.s_h_bar == pytest.approx(3.736264, abs=1e-5)


# ---------------------------------------------------------------- criterion 8

def test_c8_delay_leaves_thresholds_and_verdicts_unchanged():
    taus = (0.0, 0.5, 1.0, 2.0, 5.0)
    for base in (P_SUPER, P_SUB):
        rows = []
        for tau in taus:
            p = base._replace(tau=tau)
            eq = equilibrium_set(p)
            dfe = classify(p, EquilibriumKind.DISEASE_FREE)
            row = [eq.r0, eq.e0.as_tuple(),
                   None if eq.e_star is None else eq.e_star.as_tuple(),
                   dfe.classification, dfe.routh_hurwitz_tau0,
                   dfe.imag_axis_root_exists]
            if eq.e_star is not None:
                star = classify(p, EquilibriumKind.ENDEMIC)
                row += [star.classification, star.routh_hurwitz_tau0,
                        star.imag_axis_root_exists]
            rows.append(tuple(row))
        assert all(r == rows[0] for r in rows[1:])
