"""Linear stability through the transcendental factor G.

At either steady state the linearization's characteristic function factors
into (lam + mu_h)(lam + mu_v) (two exact negative roots) times

    G(lam) = lam^2 + a1*lam + a2 + a3*exp(-lam*tau),

with one (a1, a2, a3) triple per equilibrium. One record type, CharCoeffs,
holds that triple and tau; DfeCharCoeffs.from_params and
EndemicCharCoeffs.from_params build it at E0 and at E*. Three closed-form
verdicts come out of G:

* routh_hurwitz_tau0: at tau = 0, both roots of the quadratic
  lam^2 + a1*lam + (a2 + a3) lie in the open left half plane iff a1 > 0 and
  a2 + a3 > 0.
* imaginary_axis_root_exists: G(iw) = 0 forces
  w^4 + (a1^2 - 2a2) w^2 + (a2^2 - a3^2) = 0; existence of a real w >= 0 is
  decided from that quadratic-in-w^2 without iteration. For both coefficient
  families here a1^2 - 2a2 > 0, so the verdict reduces to a2^2 - a3^2 <= 0.
* rightmost_real_root: one bracket from G's shape, then one polish. With
  positive rates a1 = x + y and a2 = x*y for some x, y > 0, and a3 < 0.
  On [-a1/2, inf) G' = 2 lam + a1 - a3 tau exp(-lam tau) >= 0, and
  G(-a1/2) = -(x - y)^2/4 + a3 exp(a1 tau/2) < 0, so G has exactly one zero
  there and it is the rightmost real root. It lies in [-a1/2, 0] when
  G(0) >= 0, and in (0, sqrt(a2 - a3)] otherwise, since
  G(lam) >= 2 a2 + a1 lam > 0 beyond that end. The polish is `_brent`, a
  line-for-line port of scipy's `brentq.c` (Brent 1973, "Algorithms for
  Minimization without Derivatives", ch. 4): same sign tests,
  inverse-interpolation/extrapolation steps and bisection fallback,
  rtol = 4*eps, at most 100 iterations. Fed the same values of G it takes
  the same steps and returns the same double as scipy.optimize.brentq.

Delay-independent stability then follows the usual argument: stable at
tau = 0 plus no imaginary-axis crossing for any tau.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass
from typing import Callable

from . import defaults
from .equilibria import endemic_equilibrium, r0_squared
from .errors import EndemicAbsentError, RateUnderflowError, RootPolishError, ValidationError
from .model import ModelParams, _check_delay


@dataclass(frozen=True)
class CharCoeffs:
    """The coefficients of G(lam) = lam^2 + a1*lam + a2 + a3*exp(-lam*tau)
    at one equilibrium. Construction rejects a sign the root bracket excludes;
    a2 = 0, a3 = -0.0 (underflow), inf and NaN (overflow) pass.
    """

    a1: float
    a2: float
    a3: float
    tau: float

    def __post_init__(self) -> None:
        for name, wrong in (("a1", self.a1 <= 0), ("a2", self.a2 < 0), ("a3", self.a3 > 0)):
            if wrong:
                raise ValidationError(f"G's root bracket needs a1 > 0, a2 >= 0 and "
                                      f"a3 <= 0, got {name} = {getattr(self, name)!r}")
        _check_delay(self.tau)


class DfeCharCoeffs(CharCoeffs):
    """G's coefficients at the disease-free state."""

    @classmethod
    def from_params(cls, p: ModelParams) -> "DfeCharCoeffs":
        # a3 = -(c_hv beta_v / mu_v) (c_vh beta_h mu_v / (beta_v mu_h)), with
        # beta_v and mu_v cancelled so that a subnormal beta_v cannot divide by 0
        return cls(a1=p.mu_h + p.mu_v, a2=p.mu_v * p.mu_h,
                   a3=-(p.c_vh * p.c_hv * p.beta_h / p.mu_h), tau=p.tau)


def _endemic_weights(p: ModelParams) -> tuple[float, float, float, float, float]:
    """The linearization weights m1..m5 at E*. In their terms G's endemic
    coefficients satisfy a1^2 - 2 a2 = (mu_h + m1)^2 + (mu_v + m5)^2 > 0."""
    star = endemic_equilibrium(p)
    if star is None:
        raise EndemicAbsentError()
    n_v = star.n_v
    n_v2 = n_v * n_v
    if n_v2 == 0.0:
        raise RateUnderflowError("N_v* * N_v*")
    return (p.c_vh * star.i_v / n_v,
            p.c_vh * star.i_v * star.s_h / n_v2,
            p.c_vh * star.s_v * star.s_h / n_v2,
            p.c_hv * star.s_v,
            p.c_hv * star.i_h)


class EndemicCharCoeffs(CharCoeffs):
    """G's coefficients at the endemic state."""

    @classmethod
    def from_params(cls, p: ModelParams) -> "EndemicCharCoeffs":
        m1, m2, m3, m4, m5 = _endemic_weights(p)
        return cls(a1=p.mu_h + m1 + p.mu_v + m5,
                   a2=(p.mu_h + m1) * (p.mu_v + m5),
                   a3=-m4 * (m3 + m2), tau=p.tau)


def char_eval(coeffs: CharCoeffs, lam: complex) -> complex:
    """G(lam), complex-valued."""
    lam = complex(lam)
    return lam * lam + coeffs.a1 * lam + coeffs.a2 + coeffs.a3 * cmath.exp(-lam * coeffs.tau)


def routh_hurwitz_tau0(coeffs: CharCoeffs) -> bool:
    return coeffs.a1 > 0 and coeffs.a2 + coeffs.a3 > 0


def imaginary_axis_root_exists(coeffs: CharCoeffs) -> bool:
    """Whether G has a root iw with real w >= 0, for the stored coefficients
    at any delay. Decided in closed form from the resolvent quartic."""
    a1, a2, a3 = coeffs.a1, coeffs.a2, coeffs.a3
    big_a = a1 * a1 - 2.0 * a2
    big_b = a2 * a2 - a3 * a3
    if big_b <= 0.0:
        return True
    # both roots of z^2 + A z + B (B > 0) are negative or complex unless A <= 0
    return big_a <= 0.0 and big_a * big_a >= 4.0 * big_b


def _g_real(coeffs: CharCoeffs, lam: float) -> float:
    e = -lam * coeffs.tau
    if e > 700.0:  # exp would overflow; the a3-term (a3 <= 0) dominates
        return -math.inf
    return lam * lam + coeffs.a1 * lam + coeffs.a2 + coeffs.a3 * math.exp(e)


_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brent(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Root of f in the bracket [a, b] by Brent's method.

    Port of scipy's brentq.c. Raises RootPolishError when f(a) and f(b)
    have the same sign, when f returns NaN, or after _BRENT_MAXITER
    iterations without meeting the tolerance xtol + 4*eps*|x|.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    if fpre != fpre:
        raise RootPolishError(f"G(lam) is NaN at lam = {xpre!r}")
    fcur = f(xcur)
    if fcur != fcur:
        raise RootPolishError(f"G(lam) is NaN at lam = {xcur!r}")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootPolishError(f"G(lam) has the same sign at both ends of "
                              f"[{a!r}, {b!r}]")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant (linear inverse interpolation)
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # C divides by zero to +-inf or NaN, both of which fail the
            # short-step test below and fall back to bisection
            if den != 0.0:
                stry = num / den
                bound = 3.0 * abs(sbis) - delta
                if 2.0 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                    spre, scur = scur, stry
                    bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise RootPolishError(f"G(lam) is NaN at lam = {xcur!r}")
    raise RootPolishError(f"no convergence in {_BRENT_MAXITER} iterations "
                          f"on [{a!r}, {b!r}]; last iterate {xcur!r}")


def rightmost_real_root(coeffs: CharCoeffs) -> float:
    """Largest real root of G, polished on the bracket from G's shape (see
    the module docstring).

    When mu_h and mu_v (or their endemic shifts) nearly coincide and a3 is
    below rounding, G(-a1/2) can round to a value >= 0; -a1/2 is then the
    root to within the rounding of G, and is returned as it is.
    """
    g = lambda x: _g_real(coeffs, x)
    if g(0.0) < 0.0:
        lo, hi = 0.0, math.sqrt(coeffs.a2 - coeffs.a3)
    else:
        lo, hi = -coeffs.a1 / 2.0, 0.0
        if g(lo) >= 0.0:
            return lo
    return _brent(g, lo, hi, defaults.ROOT_XTOL)


class Classification(enum.Enum):
    LAS = "LAS"
    UNSTABLE = "Unstable"
    CRITICAL = "Critical"


class EquilibriumKind(enum.Enum):
    DISEASE_FREE = "E0"
    ENDEMIC = "E_star"


@dataclass(frozen=True)
class StabilityReport:
    which: EquilibriumKind
    classification: Classification
    rightmost_real_root: float
    imag_axis_root_exists: bool
    routh_hurwitz_tau0: bool
    factor_roots: tuple[float, float]

    def as_lines(self) -> list[str]:
        key = f"stability.{self.which.value.lower()}"
        return [
            f"{key}.classification = {self.classification.value}",
            f"{key}.rightmost_real_root = {self.rightmost_real_root:.17g}",
            f"{key}.imag_axis_root_exists = {str(self.imag_axis_root_exists).lower()}",
            f"{key}.routh_hurwitz_tau0 = {str(self.routh_hurwitz_tau0).lower()}",
            f"{key}.factor_roots = {self.factor_roots[0]:.17g},{self.factor_roots[1]:.17g}",
        ]


def classify(p: ModelParams, which: EquilibriumKind) -> StabilityReport:
    """Stability verdict plus the numerical evidence behind it.

    E0: LAS / Critical / Unstable by R0 below / at / above 1 (compared on
    R0^2). E*: exists only for R0 > 1 (EndemicAbsentError otherwise) and is
    then LAS at every delay.
    """
    if which is EquilibriumKind.ENDEMIC:
        coeffs: CharCoeffs = EndemicCharCoeffs.from_params(p)
        verdict = Classification.LAS
    else:
        r2 = r0_squared(p)
        coeffs = DfeCharCoeffs.from_params(p)
        if r2 < 1.0:
            verdict = Classification.LAS
        elif r2 > 1.0:
            verdict = Classification.UNSTABLE
        else:
            verdict = Classification.CRITICAL
    return StabilityReport(
        which=which,
        classification=verdict,
        rightmost_real_root=rightmost_real_root(coeffs),
        imag_axis_root_exists=imaginary_axis_root_exists(coeffs),
        routh_hurwitz_tau0=routh_hurwitz_tau0(coeffs),
        factor_roots=(-p.mu_h, -p.mu_v),
    )
