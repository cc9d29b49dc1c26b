"""Characteristic function, root location, and classification evidence."""

import cmath
import decimal
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

import malaria_dde.cli as cli
from malaria_dde import (
    Classification,
    RootPolishError,
    EquilibriumKind,
    FunctionalKind,
    IntegrationSpec,
    ModelParams,
    NegativeDelayError,
    NonPositiveRateError,
    RateUnderflowError,
    Scenario,
    State,
    SubcriticalR0Error,
    SystemKind,
    ValidationError,
    basic_reproduction_number,
    char_eval,
    classify,
    endemic_equilibrium,
    disease_free_equilibrium,
    integrate,
    r0_squared,
    rhs,
    rightmost_real_root,
    run_scenario,
    trace_along,
)
from malaria_dde import defaults
from malaria_dde.scenario import HistorySpec
from malaria_dde.stability import (
    CharCoeffs,
    DfeCharCoeffs,
    EndemicCharCoeffs,
    _endemic_weights,
    _polish,
)

from conftest import (
    P_CRIT,
    P_SUB,
    P_SUPER,
    TAU_CHOICES,
    constant_history,
    draw_params,
    draw_subcritical,
    draw_supercritical,
)

E0, E_STAR = EquilibriumKind.DISEASE_FREE, EquilibriumKind.ENDEMIC


def test_disease_free_coefficients_by_hand():
    c = DfeCharCoeffs.from_params(P_SUPER)
    assert c.a1 == pytest.approx(0.6, abs=1e-15)
    assert c.a2 == pytest.approx(0.05, abs=1e-15)
    # a3 = -c_vh*c_hv*beta_h/mu_h = -0.2*0.1*2/0.5
    assert c.a3 == pytest.approx(-0.08, abs=1e-15)


def test_endemic_coefficients_by_hand():
    m1, _, _, m4, m5 = _endemic_weights(P_SUPER)
    assert m1 == pytest.approx(0.06, abs=1e-14)       # 0.2*15/50
    assert m4 == pytest.approx(3.5, abs=1e-14)        # 0.1*35
    assert m5 == pytest.approx(3.0 / 70.0, abs=1e-14)
    c = EndemicCharCoeffs.from_params(P_SUPER)
    assert c.a1 == pytest.approx(0.7028571428571428, abs=1e-12)
    assert c.a2 == pytest.approx(0.08, abs=1e-14)
    assert c.a3 == pytest.approx(-0.05, abs=1e-14)


@pytest.mark.parametrize("a1,a2,a3,tau,error,match", [
    # G(lam) = lam^2 + lam + 1 + 5 exp(-lam) > 0 on the real line, and the
    # root search once returned -0.5 for it
    (1.0, 1.0, 5.0, 1.0, ValidationError, "a3"),
    (0.0, 1.0, -1.0, 1.0, ValidationError, "a1"),
    (-1.0, 1.0, -1.0, 1.0, ValidationError, "a1"),
    (1.0, -1.0, -1.0, 1.0, ValidationError, "a2"),
    (1.0, 1.0, 1e-300, 1.0, ValidationError, "a3"),
    (1.0, 1.0, -1.0, math.nan, NegativeDelayError, "tau"),
    (1.0, 1.0, -1.0, math.inf, NegativeDelayError, "tau"),
    (1.0, 1.0, -1.0, -1.0, NegativeDelayError, "tau"),
])
def test_coefficients_reject_signs_the_bracket_cannot_take(a1, a2, a3, tau, error,
                                                           match):
    for cls in (CharCoeffs, DfeCharCoeffs, EndemicCharCoeffs):
        with pytest.raises(error, match=match) as err:
            cls(a1, a2, a3, tau, a2 + a3)
        assert type(err.value) is error


# E* = (1e-278, 1e-64, 1e79, 1e52), every component finite, and R0^2 = 1e214;
# the endemic weights m1, m2 and m3 overflow
P_WEIGHTS_OVERFLOW = ModelParams(beta_h=1e-29, beta_v=1e-94, mu_h=1e35, mu_v=1e-173,
                                 c_vh=1e276, c_hv=1e-136, tau=1.0)


@pytest.mark.parametrize("p,cls,underflows", [
    # mu_h = mu_v and a3 underflows to -0.0
    (P_SUPER._replace(beta_h=5e-324, mu_h=0.0013254, mu_v=0.0013254, tau=0.0),
     DfeCharCoeffs, False),
    # a2 = mu_h mu_v is subnormal, then 0; either way mu_h^2 mu_v is 0, and
    # g0 needs R0^2, whose denominator that is
    (P_SUPER._replace(mu_h=1e-160, mu_v=1e-160), DfeCharCoeffs, True),
    (P_SUPER._replace(mu_h=1e-170, mu_v=1e-170), DfeCharCoeffs, True),
    (P_SUPER._replace(beta_v=5e-324), DfeCharCoeffs, False),
    # E* is finite, but its weights overflow: a1 = a2 = inf, a3 = -inf
    (P_WEIGHTS_OVERFLOW, EndemicCharCoeffs, False),
], ids=["a3-negative-zero", "a2-subnormal", "a2-zero", "beta_v-subnormal",
        "endemic-overflow"])
def test_valid_rates_build_coefficients_even_when_rounding_degrades_them(p, cls,
                                                                         underflows):
    if underflows:
        with pytest.raises(RateUnderflowError) as err:
            cls.from_params(p)
        assert err.value.product == "mu_h * mu_h * mu_v"
        return
    c = cls.from_params(p)
    assert c.a1 > 0 and not c.a2 < 0 and not c.a3 > 0


def test_a_hand_built_record_accepts_a2_zero():
    # G = lam^2 + lam - exp(-lam), G(0) = -1: the root lies in (0, 1]
    c = CharCoeffs(1.0, 0.0, -1.0, 1.0, -1.0)
    root = rightmost_real_root(c)
    assert 0.0 < root < 1.0
    assert abs(char_eval(c, root)) < 1e-12


def test_overflowing_endemic_coefficients_leave_as_root_polish_error():
    # G is inf - inf = NaN at 0, which the polish reports (CLI exit 2)
    with pytest.raises(RootPolishError, match="NaN"):
        classify(P_WEIGHTS_OVERFLOW, EquilibriumKind.ENDEMIC)


def test_both_constructors_build_one_coefficient_type():
    for cls in (DfeCharCoeffs, EndemicCharCoeffs):
        c = cls.from_params(P_SUPER)
        assert type(c) is cls and isinstance(c, CharCoeffs)
        assert c._fields == ("a1", "a2", "a3", "tau", "g0")


def test_char_eval_anchors():
    assert char_eval(DfeCharCoeffs.from_params(P_SUPER), 0.0) == pytest.approx(-0.03, abs=1e-14)
    assert char_eval(DfeCharCoeffs.from_params(P_SUB), 0.0) == pytest.approx(0.04, abs=1e-14)
    assert char_eval(DfeCharCoeffs.from_params(P_CRIT), 0.0) == 0.0
    # 1 + 0.6 + 0.05 - 0.08 e^{-1}
    got = char_eval(DfeCharCoeffs.from_params(P_SUPER), 1.0)
    assert got == pytest.approx(1.65 - 0.08 * math.exp(-1.0), abs=1e-14)
    assert got.imag == 0.0


def test_explicit_factor_roots_kill_the_quartic():
    def quartic(p, lam):  # (lam + mu_h)(lam + mu_v) * G(lam) at E0
        g = char_eval(DfeCharCoeffs.from_params(p), lam)
        return (lam + p.mu_h) * (lam + p.mu_v) * g

    for p in (P_SUPER, P_SUB):
        assert quartic(p, complex(-p.mu_h)) == 0.0
        assert quartic(p, complex(-p.mu_v)) == 0.0
        assert abs(quartic(p, 0.3 + 0.2j)) > 0.0


def test_routh_hurwitz_flags():
    assert classify(P_SUPER, E_STAR).routh_hurwitz_tau0
    assert not classify(P_SUPER, E0).routh_hurwitz_tau0
    assert classify(P_SUB, E0).routh_hurwitz_tau0


def test_imaginary_axis_detection_matches_polynomial_oracle(rng):
    # oracle: numpy roots of the resolvent quadratic in w = omega^2, from
    # the coefficients, where the report reads the sign of G(0)
    def oracle(c):
        big_a = c.a1 * c.a1 - 2.0 * c.a2
        big_b = c.a2 * c.a2 - c.a3 * c.a3
        roots = np.roots([1.0, big_a, big_b])
        return bool(np.any((np.abs(roots.imag) < 1e-12) & (roots.real >= -1e-12)))

    cases = []
    for _ in range(100):
        cases.append((draw_params(rng), E0, DfeCharCoeffs))
        cases.append((draw_supercritical(rng), E_STAR, EndemicCharCoeffs))
    for p, which, cls in cases:
        assert classify(p, which).imag_axis_root_exists == oracle(cls.from_params(p))


def test_imaginary_axis_flags_on_benchmarks():
    assert classify(P_SUPER, E0).imag_axis_root_exists
    assert not classify(P_SUB, E0).imag_axis_root_exists
    assert not classify(P_SUPER, E_STAR).imag_axis_root_exists


def test_rightmost_root_zero_delay_quadratic():
    c = DfeCharCoeffs.from_params(P_SUPER._replace(tau=0.0))
    root = rightmost_real_root(c)
    assert root == pytest.approx((-0.6 + math.sqrt(0.48)) / 2.0, abs=1e-10)
    c = DfeCharCoeffs.from_params(P_SUB._replace(tau=0.0))
    root = rightmost_real_root(c)
    assert root == pytest.approx((-0.6 + math.sqrt(0.2)) / 2.0, abs=1e-10)


def test_rightmost_root_is_a_root_and_rightmost(rng):
    for p in [P_SUPER, P_SUB] + [draw_params(rng, tau=0.5) for _ in range(10)]:
        c = DfeCharCoeffs.from_params(p)
        root = rightmost_real_root(c)
        assert abs(char_eval(c, root)) < 1e-8
        xs = np.linspace(root + 1e-6, 50.0, 400)
        vals = [char_eval(c, float(x)).real for x in xs]
        assert all(v > 0 for v in vals)


# The root search this package used before the shape bracket, kept as an
# independent oracle: scan a 10^4-point grid on [-50, 50] for sign changes
# and exact zeros, polish every sign change with scipy's brentq, take the
# largest root.
GRID_HALF_WIDTH = 50.0
GRID_POINTS = 10_000


def _g_real(coeffs, lam):
    """Real G evaluated apart from the package's polish: the oracle's G."""
    e = -lam * coeffs.tau
    if e > 700.0:  # exp would overflow; the a3-term (a3 <= 0) dominates
        return -math.inf
    return lam * lam + coeffs.a1 * lam + coeffs.a2 + coeffs.a3 * math.exp(e)


def _grid_oracle(coeffs):
    """The rightmost root in [-50, 50], or None."""
    g = lambda x: _g_real(coeffs, x)
    xs = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, GRID_POINTS)
    with np.errstate(over="ignore"):
        gs = xs * xs + coeffs.a1 * xs + coeffs.a2 + coeffs.a3 * np.exp(-xs * coeffs.tau)
    roots = [float(x) for x, v in zip(xs, gs) if v == 0.0]
    for i in np.nonzero(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0)[0]:
        roots.append(brentq(g, float(xs[i]), float(xs[i + 1]), xtol=defaults.ROOT_XTOL))
    return max(roots) if roots else None


def _shape_bracket(coeffs):
    """The bracket the stability module docstring derives from G's shape."""
    if coeffs.g0 < 0.0:
        return 0.0, math.sqrt(coeffs.a2 - coeffs.a3)
    return -coeffs.a1 / 2.0, 0.0


def _seeded_families(rng):
    """Seeded DFE (both regimes) and E* coefficients at every tau choice,
    and at tau = 5 and 20, where exp(-lam tau) is steep."""
    families = []
    for tau in TAU_CHOICES + (5.0, 20.0):
        for _ in range(20):
            families.append(DfeCharCoeffs.from_params(draw_params(rng, tau)))
            p = draw_supercritical(rng, tau)
            families.append(DfeCharCoeffs.from_params(p))       # G(0) < 0
            families.append(EndemicCharCoeffs.from_params(p))   # G(0) > 0
    return families + [DfeCharCoeffs.from_params(p) for p in (P_SUPER, P_SUB, P_CRIT)]


def _within_xtol(got, want):
    return abs(got - want) <= defaults.ROOT_XTOL + 4.0 * sys.float_info.epsilon * abs(want)


def test_rightmost_root_matches_the_grid_oracle(rng):
    for c in _seeded_families(rng):
        want = _grid_oracle(c)
        assert want is not None
        assert _within_xtol(rightmost_real_root(c), want), (c, want)


def test_rightmost_root_matches_brentq_on_the_shape_bracket(rng):
    sign_at_zero = set()
    for c in _seeded_families(rng):
        g = lambda x, c=c: _g_real(c, x)
        want = brentq(g, *_shape_bracket(c), xtol=defaults.ROOT_XTOL)
        assert _within_xtol(rightmost_real_root(c), want), (c, want)
        sign_at_zero.add(c.g0 < 0.0)
    assert sign_at_zero == {True, False}   # both bracket branches were exercised


def _tau0_root(coeffs):
    """At tau = 0, G is the quadratic lam^2 + a1 lam + (a2 + a3)."""
    a1, b = coeffs.a1, coeffs.a2 + coeffs.a3
    return (-a1 + math.sqrt(a1 * a1 - 4.0 * b)) / 2.0


P_LARGE_R0 = ModelParams(beta_h=100.0, beta_v=5.0, mu_h=0.05, mu_v=0.1,
                         c_vh=1.0, c_hv=1.0, tau=0.0)


def test_root_beyond_the_old_search_cap(tmp_path, capsys):
    # R0 ~ 632 puts the E0 root near 44.6; doubling a bracket from [0, 1]
    # reaches [0, 64], past the old cap of 50
    assert basic_reproduction_number(P_LARGE_R0) == pytest.approx(632.4555, rel=1e-6)
    c = DfeCharCoeffs.from_params(P_LARGE_R0)
    root = rightmost_real_root(c)
    assert root == pytest.approx(44.646, abs=1e-3)
    assert root == pytest.approx(_tau0_root(c), rel=1e-12)

    doc = {"schema": 1, "params": P_LARGE_R0._asdict(),
           "history": {"kind": "constant", "state": [1000, 10, 40, 10]},
           "analyses": {"simulate": True, "stability": True}}
    path = tmp_path / "large_r0.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path), "--only", "stability"]) == 0
    assert f"stability.e0.rightmost_real_root = {root:.17g}" in capsys.readouterr().out


def test_root_below_the_old_grid():
    # the grid scan covered [-50, 50] and printed "none" for this root
    p = P_SUPER._replace(mu_h=80.0, mu_v=120.0, tau=0.0)
    c = DfeCharCoeffs.from_params(p)
    root = rightmost_real_root(c)
    assert root == pytest.approx(-80.0, abs=1e-4)
    assert root == pytest.approx(_tau0_root(c), rel=1e-12)
    assert _grid_oracle(c) is None
    line = classify(p, EquilibriumKind.DISEASE_FREE).as_lines()[1]
    assert line == f"stability.e0.rightmost_real_root = {root:.17g}"


def test_root_with_an_overflowing_lower_end():
    # exp(a1 tau / 2) = exp(900) overflows, so G(-a1/2) evaluates to -inf
    p = P_SUPER._replace(mu_h=300.0, mu_v=300.0, tau=3.0)
    c = DfeCharCoeffs.from_params(p)
    assert _g_real(c, -c.a1 / 2.0) == -math.inf
    root = rightmost_real_root(c)
    assert -c.a1 / 2.0 < root < 0.0
    assert _g_real(c, root - 1e-9) < 0.0 < _g_real(c, root + 1e-9)


def test_degenerate_root_at_the_lower_end():
    # mu_h = mu_v, so G(-a1/2) = -(mu_h - mu_v)^2/4 + a3 is 0 up to rounding,
    # and a3 underflows to -0.0
    p = P_SUPER._replace(beta_h=5e-324, mu_h=0.0013254, mu_v=0.0013254, tau=0.0)
    c = DfeCharCoeffs.from_params(p)
    assert _g_real(c, -c.a1 / 2.0) >= 0.0
    assert rightmost_real_root(c) == -c.a1 / 2.0
    rep = classify(p, EquilibriumKind.DISEASE_FREE)
    assert rep.classification is Classification.LAS
    assert rep.rightmost_real_root == -0.0013254


# a2 and a1 lam are below the rounding of lam^2 + a3 at the root, which sits at
# sqrt(a2 - a3): G there rounds below 0, and `report` once exited 2 with
# "G(lam) does not change sign across [0.0, 3.1221307554042506e+89]"
P_ROOT_AT_THE_END = ModelParams(
    beta_h=1.6526395862225775e+30, beta_v=5.174630185328766e-120,
    mu_h=1.0841326899161049e+20, mu_v=96740068491.44244, c_vh=4.837573436178353e+134,
    c_hv=1.3218400084508206e+34, tau=0.0)


def test_root_at_the_upper_end_of_the_bracket(tmp_path, capsys):
    c = DfeCharCoeffs.from_params(P_ROOT_AT_THE_END)
    end = math.sqrt(c.a2 - c.a3)
    assert _g_real(c, end) < 0.0  # the bracket's end from G's shape fails
    root = rightmost_real_root(c)
    # at tau = 0, G is lam^2 + a1 lam + (a2 + a3): its root in 60 digits
    with decimal.localcontext(prec=60):
        a1, b = Decimal(c.a1), Decimal(c.a2) + Decimal(c.a3)
        want = (-a1 + (a1 * a1 - 4 * b).sqrt()) / 2
        assert abs(Decimal(root) - want) <= 4 * Decimal(math.ulp(root))

    doc = {"schema": 1, "params": P_ROOT_AT_THE_END._asdict(),
           "history": {"kind": "constant", "state": [1, 1, 1, 1]}}
    path = tmp_path / "root_at_the_end.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path)]) == 0
    assert f"stability.e0.rightmost_real_root = {root:.17g}" in capsys.readouterr().out


@pytest.mark.parametrize("field, value, error", [
    ("mu_h", -0.5, NonPositiveRateError),
    ("tau", -1.0, NegativeDelayError),
    ("c_vh", math.nan, NonPositiveRateError),
])
def test_classify_validates_its_parameters(field, value, error):
    for which in EquilibriumKind:
        with pytest.raises(error):
            classify(P_SUPER._replace(**{field: value}), which)


def test_underflowing_rates_leave_through_the_taxonomy():
    # mu_h^2 * mu_v underflows to 0 in R0^2
    p = P_SUPER._replace(mu_h=1e-200)
    for which in EquilibriumKind:
        with pytest.raises(RateUnderflowError) as err:
            classify(p, which)
        assert err.value.product == "mu_h * mu_h * mu_v"
    # beta_v cancels from a3, so E0 is classified as for P_SUPER; at E*,
    # N_v* = 5e-323 and its square underflows
    p = P_SUPER._replace(beta_v=5e-324)
    assert DfeCharCoeffs.from_params(p) == DfeCharCoeffs.from_params(P_SUPER)
    assert classify(p, EquilibriumKind.DISEASE_FREE) == \
        classify(P_SUPER, EquilibriumKind.DISEASE_FREE)
    with pytest.raises(RateUnderflowError) as err:
        classify(p, EquilibriumKind.ENDEMIC)
    assert err.value.product == "N_v* * N_v*"


def test_polish_failures_leave_through_the_taxonomy():
    # tau = 0: G = lam^2 + lam - 2, zero at 1
    quad = CharCoeffs(1.0, 1.0, -3.0, 0.0, -2.0)
    assert _polish(quad, 0.0, 1.0) == 1.0
    # G(lo) >= 0: lo is returned as it is, the degenerate lower end
    assert _polish(quad, 2.0, 3.0) == 2.0
    with pytest.raises(RootPolishError, match="does not change sign"):
        _polish(quad, 0.0, 0.5)
    # G(0.5) < 0, so a far end of 2 makes the bracket [0.5, 2]
    assert _polish(quad, 0.0, 0.5, 2.0) == 1.0
    # a1 = inf: G is -inf left of 0, inf right of it and inf * 0 = NaN at 0,
    # as an end and as the first bisection point
    steep = CharCoeffs(math.inf, 1.0, -1.0, 1.0, 0.0)
    with pytest.raises(RootPolishError, match="NaN at lam = 0.0"):
        _polish(steep, 0.0, 1.0)
    with pytest.raises(RootPolishError, match="NaN at lam = 0.0"):
        _polish(steep, -1.0, 1.0)
    # G is inf down to lam ~ 1e154 and Newton then halves lam per step, so
    # reaching the zero at 1 from 1e300 takes about 1000 steps, not 100
    with pytest.raises(RootPolishError, match="no convergence in 100 iterations"):
        _polish(quad, 0.0, 1e300)


def test_jacobian_determinant_ties_coefficients_to_dynamics():
    # At tau = 0 the linearization factors as
    # (lam+mu_h)(lam+mu_v)(lam^2 + a1 lam + a2 + a3), so the determinant of a
    # finite-difference Jacobian must equal mu_h*mu_v*(a2 + a3).
    def num_jacobian(p, x):
        base = np.asarray(x, dtype=float)
        J = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6 * max(1.0, abs(base[j]))
            up = State(*(base + e))
            dn = State(*(base - e))
            fu = np.asarray(rhs(p, up, up, SystemKind.FULL))
            fd = np.asarray(rhs(p, dn, dn, SystemKind.FULL))
            J[:, j] = (fu - fd) / (2.0 * e[j])
        return J

    p = P_SUPER._replace(tau=0.0)
    c = EndemicCharCoeffs.from_params(p)
    star = endemic_equilibrium(p)
    det = float(np.linalg.det(num_jacobian(p, star.as_tuple())))
    assert det == pytest.approx(p.mu_h * p.mu_v * (c.a2 + c.a3), rel=1e-5)

    c0 = DfeCharCoeffs.from_params(p)
    e0 = disease_free_equilibrium(p)
    det0 = float(np.linalg.det(num_jacobian(p, e0.as_tuple())))
    assert det0 == pytest.approx(p.mu_h * p.mu_v * (c0.a2 + c0.a3), rel=1e-5)


def test_coefficient_sum_identities(rng):
    for _ in range(50):
        p = draw_supercritical(rng)
        r2 = r0_squared(p)
        q = DfeCharCoeffs.from_params(p)
        e = EndemicCharCoeffs.from_params(p)
        scale = p.mu_v * p.mu_h
        assert q.a2 + q.a3 == pytest.approx(scale * (1.0 - r2), rel=1e-10)
        assert e.a2 + e.a3 == pytest.approx(scale * (r2 - 1.0), rel=1e-10)
        # shifted-square identity for the quartic discriminant combination
        m1, _, _, _, m5 = _endemic_weights(p)
        assert e.a1 ** 2 - 2.0 * e.a2 == pytest.approx(
            (p.mu_h + m1) ** 2 + (p.mu_v + m5) ** 2, rel=1e-12)


def test_classification_benchmarks():
    rep = classify(P_SUPER, EquilibriumKind.DISEASE_FREE)
    assert rep.classification is Classification.UNSTABLE
    assert rep.rightmost_real_root > 0
    assert rep.factor_roots == (-0.5, -0.1)

    rep = classify(P_SUPER, EquilibriumKind.ENDEMIC)
    assert rep.classification is Classification.LAS
    assert rep.rightmost_real_root < 0
    assert rep.routh_hurwitz_tau0 and not rep.imag_axis_root_exists

    rep = classify(P_SUB, EquilibriumKind.DISEASE_FREE)
    assert rep.classification is Classification.LAS
    assert rep.rightmost_real_root < 0

    rep = classify(P_CRIT, EquilibriumKind.DISEASE_FREE)
    assert rep.classification is Classification.CRITICAL
    assert rep.rightmost_real_root == pytest.approx(0.0, abs=1e-9)

    with pytest.raises(SubcriticalR0Error):
        classify(P_SUB, EquilibriumKind.ENDEMIC)


def _ulp_band(rng, n_draws):
    """Rate sets with c_vh at, and 1-4 ulps either side of, the value that
    puts R0^2 at 1, at every tau choice."""
    for _ in range(n_draws):
        p = draw_params(rng)
        c_vh = p.mu_h * p.mu_h * p.mu_v / (p.c_hv * p.beta_h)
        below, above = [c_vh], [c_vh]
        for _ in range(4):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], math.inf))
        for c in below[:0:-1] + above:
            for tau in TAU_CHOICES:
                yield p._replace(c_vh=c, tau=tau)


def _evidence_contradicts_verdict(rep):
    root = rep.rightmost_real_root
    if rep.classification is Classification.CRITICAL:
        return rep.routh_hurwitz_tau0 or not rep.imag_axis_root_exists or root != 0.0
    stable = rep.classification is Classification.LAS
    return (rep.routh_hurwitz_tau0 != stable or rep.imag_axis_root_exists == stable
            or root == 0.0 or (root < 0.0) != stable)


def test_stability_evidence_follows_the_verdict_within_ulps_of_r0_one(rng):
    # LAS <=> routh_hurwitz_tau0 <=> no imaginary-axis root <=> root < 0, in
    # every report. In this band a2 + a3, rounded from the coefficients, can
    # take either sign whatever R0^2 is, so each line must read g0
    reports = []
    for p in _ulp_band(rng, 150):
        reports.append(classify(p, E0))
        if r0_squared(p) > 1.0:
            reports.append(classify(p, E_STAR))
    assert {(r.which, r.classification) for r in reports} == {
        (E0, Classification.LAS), (E0, Classification.CRITICAL),
        (E0, Classification.UNSTABLE), (E_STAR, Classification.LAS)}
    assert [r for r in reports if _evidence_contradicts_verdict(r)] == []


def test_exactly_critical_reports_print_a_zero_root(rng):
    critical = [p for p in _ulp_band(rng, 150) if r0_squared(p) == 1.0]
    assert len(critical) >= 100
    for p in critical:
        lines = classify(p, E0).as_lines()
        assert [ln.split(" = ")[1] for ln in lines[:4]] == ["Critical", "0", "true", "false"]


def test_reports_where_g0_rounds_to_zero_read_critical():
    # mu_h mu_v = 1e-310 is subnormal, so mu_h mu_v (1 - R0^2) rounds to +-0
    # with beta_h a few ulps from mu_h^2 mu_v, although R0^2 != 1; the
    # verdict reads g0 like the flags and the root, so the report agrees
    beta_h = [1e10 * 1e10 * 1e-320]
    for direction in (0.0, math.inf):
        b = beta_h[0]
        for _ in range(8):
            b = math.nextafter(b, direction)
            beta_h.append(b)
    off_one = 0
    for b in beta_h:
        for tau in (0.0, 1.0):
            p = ModelParams(beta_h=b, beta_v=1.0, mu_h=1e10, mu_v=1e-320,
                            c_vh=1.0, c_hv=1.0, tau=tau)
            if DfeCharCoeffs.from_params(p).g0 != 0.0:
                continue
            off_one += r0_squared(p) != 1.0
            lines = classify(p, E0).as_lines()
            assert [ln.split(" = ")[1] for ln in lines[:4]] == \
                ["Critical", "0", "true", "false"], (b, tau)
    assert off_one >= 20


def test_every_layer_reads_e_star_absent_alike_within_ulps_of_r0_one(rng):
    # the Lyapunov functional, E*, classify at E* and the report line all
    # follow one threshold test, at R0^2 == 1 and 1-4 ulps either side
    kinds = set()
    for p in _ulp_band(rng, 12):
        if p.tau not in (0.0, 1.0):
            continue
        traj = integrate(p, constant_history(p, rng),
                         IntegrationSpec(system=SystemKind.LIMITING, t_end=p.tau + 1.0))
        dfe = trace_along(p, traj).kind is FunctionalKind.V_DFE
        kinds.add(dfe)
        assert (endemic_equilibrium(p) is None) == dfe
        if dfe:
            with pytest.raises(SubcriticalR0Error):
                classify(p, E_STAR)
        else:
            classify(p, E_STAR)
        scn = Scenario(params=p, history=HistorySpec("random"))
        absent = "stability.e_star.classification = absent"
        assert (absent in run_scenario(scn, only="stability")) == dfe
    assert kinds == {True, False}


def _rational_params(rng, r2=None):
    """ModelParams of random Fractions; c_vh is set so R0^2 = r2 if given."""
    p = ModelParams(*(Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 60)))
                      for _ in range(6)), tau=1.0)
    if r2 is None:
        return p
    return p._replace(c_vh=r2 * p.mu_h * p.mu_h * p.mu_v / (p.c_hv * p.beta_h))


def test_g0_identity_holds_exactly_in_rational_arithmetic(rng):
    # E0: G(0) = a2 + a3 = mu_h mu_v (1 - R0^2), with the constructor's own
    # rational coefficients
    for _ in range(200):
        p = _rational_params(rng)
        c = DfeCharCoeffs.from_params(p)
        assert isinstance(c.a2 + c.a3, Fraction)
        assert c.a2 + c.a3 == p.mu_h * p.mu_v * (1 - r0_squared(p))
    # E*: the weights m1..m5 from the closed-form state, in Fractions (the
    # package's state is float); the state is an exact steady state, the
    # coefficients are the constructor's, and G(0) = mu_h mu_v (R0^2 - 1)
    for _ in range(100):
        p = _rational_params(rng, Fraction(int(rng.integers(11, 90)), 10))
        r2 = r0_squared(p)
        den_h = p.beta_h * p.c_hv + p.mu_v * p.mu_h * r2
        den_v = p.c_vh * p.mu_v + p.mu_v * p.mu_h * r2
        star = State(p.beta_h * (p.c_hv * p.beta_h / p.mu_h + p.mu_v) / den_h,
                     p.beta_h * p.mu_v * (r2 - 1) / den_h,
                     p.beta_v * (p.c_vh + p.mu_h) / den_v,
                     p.beta_v * p.mu_h * (r2 - 1) / den_v)
        assert rhs(p, star, star, SystemKind.FULL) == (0, 0, 0, 0)
        n_v = star.n_v
        m = (p.c_vh * star.i_v / n_v, p.c_vh * star.i_v * star.s_h / n_v ** 2,
             p.c_vh * star.s_v * star.s_h / n_v ** 2, p.c_hv * star.s_v,
             p.c_hv * star.i_h)
        a2, a3 = (p.mu_h + m[0]) * (p.mu_v + m[4]), -m[3] * (m[2] + m[1])
        c = EndemicCharCoeffs.from_params(p)
        assert (c.a2, c.a3) == pytest.approx((a2, a3), rel=1e-12)
        assert a2 + a3 == p.mu_h * p.mu_v * (r2 - 1)


def test_report_lines_shape():
    lines = classify(P_SUPER, EquilibriumKind.ENDEMIC).as_lines()
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == [
        "stability.e_star.classification",
        "stability.e_star.rightmost_real_root",
        "stability.e_star.imag_axis_root_exists",
        "stability.e_star.routh_hurwitz_tau0",
        "stability.e_star.factor_roots",
    ]
    assert lines[0].endswith("LAS")
