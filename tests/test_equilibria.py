"""Closed-form equilibria against hand arithmetic and a root-finding oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import fsolve

from malaria_dde import (
    EquilibriumKind,
    ModelParams,
    NonPositiveRateError,
    NumericalError,
    RateUnderflowError,
    State,
    SystemKind,
    basic_reproduction_number,
    classify,
    disease_free_equilibrium,
    endemic_equilibrium,
    equilibrium_residual,
    equilibrium_set,
    persistence_bounds,
    r0_squared,
    rhs,
)

from conftest import P_CRIT, P_SUB, P_SUPER, draw_params, draw_supercritical


def test_r0_squared_anchors():
    # 0.2*0.1*2 / (0.5^2 * 0.1) = 0.04 / 0.025
    assert r0_squared(P_SUPER) == pytest.approx(1.6, abs=1e-15)
    assert r0_squared(P_SUB) == pytest.approx(0.2, abs=1e-15)
    assert r0_squared(P_CRIT) == 1.0  # dyadic rates: exact in floats
    assert basic_reproduction_number(P_SUPER) == pytest.approx(1.2649110640673518, abs=1e-15)


def test_disease_free_anchor():
    e0 = disease_free_equilibrium(P_SUPER)
    assert e0.as_tuple() == (4.0, 0.0, 50.0, 0.0)


def test_endemic_anchor_fractions():
    # independent oracle: exact rational arithmetic on the steady-state system
    star = endemic_equilibrium(P_SUPER)
    assert star is not None
    expected = (Fraction(25, 7), Fraction(3, 7), Fraction(35), Fraction(15))
    for got, want in zip(star.as_tuple(), expected):
        assert got == pytest.approx(float(want), rel=1e-14)


def test_endemic_matches_root_finder(rng):
    # second oracle: solve rhs(x, x) = 0 numerically, no closed forms involved
    for p in [P_SUPER] + [draw_supercritical(rng) for _ in range(5)]:
        star = endemic_equilibrium(p)
        guess = (0.7 * p.s_h0, 0.2 * p.s_h0, 0.7 * p.s_v0, 0.2 * p.s_v0)
        sol = fsolve(lambda x: rhs(p, State(*x), State(*x), SystemKind.FULL), guess, xtol=1e-13)
        found = State(*(float(v) for v in sol))
        if found.i_h <= 1e-8:  # root finder slid to the disease-free branch
            continue
        assert star.as_tuple() == pytest.approx(found.as_tuple(), rel=1e-7)


def test_endemic_absent_at_and_below_threshold():
    assert endemic_equilibrium(P_SUB) is None
    assert endemic_equilibrium(P_CRIT) is None  # exactly 1 counts as absent
    barely = P_CRIT._replace(c_vh=P_CRIT.c_vh * (1 + 1e-9))
    star = endemic_equilibrium(barely)
    assert star is not None
    assert star.i_h > 0 and star.i_v > 0


def test_residual_zero_at_disease_free_benchmarks():
    for p in (P_SUPER, P_SUB, P_CRIT):
        assert equilibrium_residual(p, disease_free_equilibrium(p)) == 0.0


def test_residual_small_at_endemic_benchmark():
    star = endemic_equilibrium(P_SUPER)
    assert equilibrium_residual(P_SUPER, star) < 1e-12


def test_equilibrium_set_bundle():
    eq = equilibrium_set(P_SUB)
    assert eq.e_star is None
    assert eq.e0.i_h == 0.0
    assert eq.r0 == pytest.approx(0.4472135954999579, abs=1e-15)
    assert equilibrium_set(P_SUPER).e_star is not None


def test_equilibrium_set_at_underflowing_rates():
    # mu_h^2 * mu_v underflows to 0 in R0^2: a NumericalError naming it
    with pytest.raises(RateUnderflowError, match=r"mu_h \* mu_h \* mu_v"):
        equilibrium_set(P_SUPER._replace(mu_h=1e-200))
    # nothing here divides by a subnormal beta_v
    eq = equilibrium_set(P_SUPER._replace(beta_v=5e-324))
    assert eq.r0 == basic_reproduction_number(P_SUPER)
    assert eq.e0.s_v == 5e-324 / P_SUPER.mu_v
    assert eq.e_star.s_h == endemic_equilibrium(P_SUPER).s_h


# valid rates at which E*'s closed form gives inf / inf (S_h = NaN)
P_STAR_NAN = ModelParams(beta_h=1.3310652524698147e+69, beta_v=7.521925569700577e-152,
                         mu_h=3.698771195959083e+31, mu_v=2.704525289284165e+103,
                         c_vh=4.652308886266356e-186, c_hv=1.6605361641466093e+294, tau=1.0)


@pytest.mark.parametrize("p,message", [
    (P_STAR_NAN, "E* component s_h = nan is not finite"),
    # beta_h^2 overflows in S_h*'s numerator
    (P_SUPER._replace(beta_h=1e200), "E* component s_h = inf is not finite"),
], ids=["nan", "inf"])
def test_a_non_finite_endemic_component_is_a_numerical_error_where_it_is_read(p, message):
    # R0^2 is finite and above 1, so E* exists; its closed form breaks down
    assert math.isfinite(r0_squared(p)) and r0_squared(p) > 1.0
    # the existence test still answers; each reader of E*'s components raises
    star = endemic_equilibrium(p)
    assert star is not None and not all(map(math.isfinite, star))
    for entry in (equilibrium_set, lambda p: classify(p, EquilibriumKind.ENDEMIC),
                  lambda p: persistence_bounds(p, 0.5)):
        with pytest.raises(NumericalError) as err:
            entry(p)
        assert type(err.value) is NumericalError and str(err.value) == message


@pytest.mark.parametrize("entry", [r0_squared, basic_reproduction_number,
                                   disease_free_equilibrium, endemic_equilibrium,
                                   equilibrium_set])
@pytest.mark.parametrize("field,value", [("mu_h", -0.5), ("c_vh", -0.5),
                                         ("c_hv", math.nan)])
def test_equilibrium_entries_validate_rates(entry, field, value):
    # unvalidated, these gave an E0 with S_h = -4, a bare "math domain
    # error" from the square root, and NaN states
    with pytest.raises(NonPositiveRateError) as info:
        entry(P_SUPER._replace(**{field: value}))
    assert info.value.name == field


def test_r0_scales_exactly_with_transmission():
    p2 = P_SUPER._replace(c_vh=2.0 * P_SUPER.c_vh)
    assert r0_squared(p2) == 2.0 * r0_squared(P_SUPER)


rates = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


@given(rates, rates, rates, rates, rates, rates)
def test_endemic_exists_iff_supercritical(bh, bv, mh, mv, cvh, chv):
    p = ModelParams(beta_h=bh, beta_v=bv, mu_h=mh, mu_v=mv,
                    c_vh=cvh, c_hv=chv, tau=1.0)
    star = endemic_equilibrium(p)
    if r0_squared(p) > 1.0:
        assert star is not None
        assert all(x > 0 for x in star.as_tuple())
        assert equilibrium_residual(p, star) < 1e-9 * (1 + p.beta_h + p.beta_v)
    else:
        assert star is None


@given(rates, rates, rates, rates, rates, rates)
def test_residual_detects_non_equilibrium(bh, bv, mh, mv, cvh, chv):
    p = ModelParams(beta_h=bh, beta_v=bv, mu_h=mh, mu_v=mv,
                    c_vh=cvh, c_hv=chv, tau=0.5)
    e0 = disease_free_equilibrium(p)
    nudged = State(e0.s_h, e0.i_h + 1.0, e0.s_v, e0.i_v)
    assert equilibrium_residual(p, nudged) > 0.0
