"""Linear stability through the transcendental factor G.

At either steady state the linearization's characteristic function factors
into (lam + mu_h)(lam + mu_v) (two exact negative roots) times

    G(lam) = lam^2 + a1*lam + a2 + a3*exp(-lam*tau),

with one (a1, a2, a3) triple per equilibrium. One named tuple, CharCoeffs,
holds that triple, tau and g0 = G(0); DfeCharCoeffs.from_params and
EndemicCharCoeffs.from_params build it at E0 and at E*, with g0 from _g0,
the identity a2 + a3 = mu_h mu_v (1 - R0^2) at E0 and mu_h mu_v (R0^2 - 1)
at E* (1 - r2 is exact for r2 in [0.5, 2], by Sterbenz's lemma). Both
families have a1 > 0, a2 - a3 > 0 and a1^2 - 2a2 > 0, so the two flag lines
restate the sign of g0, that is of 1 - R0^2; only the root's value says more:

* routh_hurwitz_tau0 = g0 > 0: at tau = 0 both roots of
  lam^2 + a1*lam + (a2 + a3) lie in the open left half plane iff a2 + a3 > 0.
* imag_axis_root_exists = g0 <= 0: G(iw) = 0 forces w^4 + (a1^2 - 2a2) w^2
  + (a2 - a3)(a2 + a3) = 0, which has a real w >= 0 iff a2 + a3 <= 0.
* rightmost_real_root: one bracket from G's shape, then one polish. With
  positive rates a1 = x + y and a2 = x*y for some x, y > 0, and a3 < 0.
  On [-a1/2, inf) G' = 2 lam + a1 - a3 tau exp(-lam tau) >= 0, and
  G(-a1/2) = -(x - y)^2/4 + a3 exp(a1 tau/2) < 0, so G has exactly one zero
  there and it is the rightmost real root. It lies in [-a1/2, 0] when
  g0 >= 0, and in (0, sqrt(a2 - a3)] otherwise, since
  G(lam) >= 2 a2 + a1 lam > 0 beyond that end. That margin rounds away when
  a2 and a1 lam are tiny next to -a3, and G(s) < 0 at s = sqrt(a2 - a3).
  Only then the bracket is [s, 2s]: at 2s, as a1 s >= 0 and
  a3 exp(-lam tau) >= a3, G >= 4 s^2 + a2 + a3 = 5 a2 - 3 a3 > 0, with a
  term 4 s^2 >= -4 a3 that no rounding of a2 + a3 exp(-lam tau) can cancel.
  So G is not evaluated at 2s, and Newton's method goes on from s. Else
  the polish evaluates G at both bracket ends, then runs Newton's method
  from the upper end, safeguarded by bisection ("rtsafe", Press et al.,
  Numerical Recipes, sec. 9.4): a step that leaves the bracket or does not
  halve the step before it is a bisection instead. It stops at a step within
  ROOT_XTOL + 4*eps*|x|, after at most 100 iterations. It reads G(0) as g0,
  so the root is 0.0 when g0 == 0 and < 0 when g0 > 0.
* classification = LAS if g0 > 0, Unstable if g0 < 0 and Critical if
  g0 == 0, at either state (_classification). At E0 that is R0 below, above
  or at 1; E* exists only for R0 > 1 and is LAS at every delay. Where
  mu_h mu_v (1 - R0^2) rounds to 0 although R0^2 != 1, g0 == 0 and every
  line reads Critical. A sweep row's verdict columns read _g0 and
  _classification alone: no coefficients, no root, so a row prints its
  verdicts even where the polish or E*'s weights (N_v*^2) fail.

Delay-independent stability then follows the usual argument: stable at
tau = 0 plus no imaginary-axis crossing for any tau.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from collections import namedtuple

from . import defaults
from .equilibria import _require_endemic, r0_squared
from .errors import InvalidSpecError, RootPolishError, ValidationError
from .model import ModelParams, _check_delay, _fmt, _make_validated, _nonzero


class CharCoeffs(namedtuple("CharCoeffs", "a1 a2 a3 tau g0")):
    """G(lam) = lam^2 + a1*lam + a2 + a3*exp(-lam*tau) at one equilibrium,
    and g0 = G(0) from R0 (module docstring). Construction (and `_replace`)
    rejects a sign the root bracket excludes; a2 = 0, a3 = -0.0 (underflow),
    inf and NaN pass.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> "CharCoeffs":
        self = super().__new__(cls, *args, **kwargs)
        for name, wrong in (("a1", self.a1 <= 0), ("a2", self.a2 < 0), ("a3", self.a3 > 0)):
            if wrong:
                raise ValidationError(f"G's root bracket needs a1 > 0, a2 >= 0 and "
                                      f"a3 <= 0, got {name} = {getattr(self, name)!r}")
        _check_delay(self.tau)
        return self

    _make = classmethod(_make_validated)


def _g0(p: ModelParams, which: EquilibriumKind, r2: float) -> float:
    """G(0) at `which` from R0^2 = r2: mu_h mu_v (1 - r2) at E0, mu_h mu_v (r2 - 1) at E*."""
    return p.mu_v * p.mu_h * (1.0 - r2 if which is EquilibriumKind.DISEASE_FREE else r2 - 1.0)


class DfeCharCoeffs(CharCoeffs):
    """G's coefficients at the disease-free state."""

    __slots__ = ()

    @classmethod
    def from_params(cls, p: ModelParams) -> "DfeCharCoeffs":
        # a3 = -(c_hv beta_v / mu_v) (c_vh beta_h mu_v / (beta_v mu_h)), with
        # beta_v and mu_v cancelled so that a subnormal beta_v cannot divide by 0
        return cls(a1=p.mu_h + p.mu_v, a2=p.mu_v * p.mu_h,
                   a3=-(p.c_vh * p.c_hv * p.beta_h / p.mu_h), tau=p.tau,
                   g0=_g0(p, EquilibriumKind.DISEASE_FREE, r0_squared(p)))


def _endemic_weights(p: ModelParams) -> tuple[float, float, float, float, float]:
    """The linearization weights m1..m5 at E*. In their terms G's endemic
    coefficients satisfy a1^2 - 2 a2 = (mu_h + m1)^2 + (mu_v + m5)^2 > 0."""
    star = _require_endemic(p)
    n_v = star.n_v
    n_v2 = _nonzero(n_v * n_v, "N_v* * N_v*")
    return (p.c_vh * star.i_v / n_v,
            p.c_vh * star.i_v * star.s_h / n_v2,
            p.c_vh * star.s_v * star.s_h / n_v2,
            p.c_hv * star.s_v,
            p.c_hv * star.i_h)


class EndemicCharCoeffs(CharCoeffs):
    """G's coefficients at the endemic state."""

    __slots__ = ()

    @classmethod
    def from_params(cls, p: ModelParams) -> "EndemicCharCoeffs":
        m1, m2, m3, m4, m5 = _endemic_weights(p)
        return cls(a1=p.mu_h + m1 + p.mu_v + m5,
                   a2=(p.mu_h + m1) * (p.mu_v + m5),
                   a3=-m4 * (m3 + m2), tau=p.tau,
                   g0=_g0(p, EquilibriumKind.ENDEMIC, r0_squared(p)))


def char_eval(coeffs: CharCoeffs, lam: complex) -> complex:
    """G(lam), complex-valued."""
    lam = complex(lam)
    return lam * lam + coeffs.a1 * lam + coeffs.a2 + coeffs.a3 * cmath.exp(-lam * coeffs.tau)


def _polish(coeffs: CharCoeffs, lo: float, hi: float, far: float | None = None) -> float:
    """G's zero in [lo, hi], where G increases, polished from hi as the module
    docstring says; G and G' share one exp, and each value of G narrows the
    bracket. Returns lo itself when G(lo) >= 0. Where G(hi) is not >= 0 and
    a `far` end with G(far) > 0 is given, the bracket becomes [hi, far],
    far unevaluated, and the polish goes on from hi. Raises RootPolishError
    when G is NaN, when G(hi) is not >= 0 and no far end is given, or after
    100 iterations from hi."""
    a1, a2, a3, tau = coeffs.a1, coeffs.a2, coeffs.a3, coeffs.tau
    x, step = lo, None  # step is None at lo and inf at an upper end, the first iterate
    for _ in range(101):
        e = -x * tau
        if e > defaults.EXP_LIMIT:  # exp would overflow; the a3-term (a3 <= 0) dominates
            g, slope = -math.inf, 0.0
        else:
            a3e = a3 * math.exp(e)
            g = x * x + a1 * x + a2 + a3e
            slope = 2.0 * x + a1 - tau * a3e
        if g != g:
            raise RootPolishError(f"G(lam) is NaN at lam = {x!r}")
        if x == 0.0:  # G(0) from R0, as the module docstring says
            g = coeffs.g0
        if step is None:
            if g >= 0.0:
                return lo
            x, step = hi, math.inf
            continue
        if step == math.inf and not g >= 0.0:
            if far is None:
                raise RootPolishError(f"G(lam) does not change sign across [{lo!r}, {hi!r}]")
            hi = far
        if g < 0.0:
            lo = x
        else:
            hi = x
        new = x - g / slope if slope > 0.0 else math.nan
        if not (lo <= new <= hi and abs(new - x) <= step / 2.0):
            new = lo + (hi - lo) / 2.0
        step = abs(new - x)
        x = new
        if step <= defaults.ROOT_XTOL + 4.0 * sys.float_info.epsilon * abs(x):
            return x
    raise RootPolishError(f"no convergence in 100 iterations on "
                          f"[{lo!r}, {hi!r}]; last iterate {x!r}")


def rightmost_real_root(coeffs: CharCoeffs) -> float:
    """Largest real root of G, polished on the bracket from G's shape (see
    the module docstring).

    When mu_h and mu_v (or their endemic shifts) nearly coincide and a3 is
    below rounding, G(-a1/2) can round to a value >= 0; -a1/2 is then the
    root to within the rounding of G, and the polish returns it as it is.
    """
    if coeffs.g0 < 0.0:
        end = math.sqrt(coeffs.a2 - coeffs.a3)
        return _polish(coeffs, 0.0, end, 2.0 * end)
    return _polish(coeffs, -coeffs.a1 / 2.0, 0.0)


class Classification(enum.Enum):
    LAS = "LAS"
    UNSTABLE = "Unstable"
    CRITICAL = "Critical"


class EquilibriumKind(enum.Enum):
    DISEASE_FREE = "E0"
    ENDEMIC = "E_star"


def _classification(g0: float) -> Classification:
    """The verdict at an equilibrium whose G(0) is g0 (module docstring)."""
    return (Classification.LAS if g0 > 0.0 else Classification.UNSTABLE if g0 < 0.0
            else Classification.CRITICAL)


class StabilityReport(namedtuple("StabilityReport", "which classification rightmost_real_root "
                                                   "imag_axis_root_exists routh_hurwitz_tau0 "
                                                   "factor_roots")):
    __slots__ = ()

    def as_lines(self) -> list[str]:
        key = f"stability.{self.which.value.lower()}"
        return [
            f"{key}.classification = {self.classification.value}",
            f"{key}.rightmost_real_root = {_fmt(self.rightmost_real_root)}",
            f"{key}.imag_axis_root_exists = {str(self.imag_axis_root_exists).lower()}",
            f"{key}.routh_hurwitz_tau0 = {str(self.routh_hurwitz_tau0).lower()}",
            f"{key}.factor_roots = {','.join(map(_fmt, self.factor_roots))}",
        ]


def classify(p: ModelParams, which: EquilibriumKind) -> StabilityReport:
    """Stability verdict, G's rightmost real root and the flags of G(0)'s sign,
    every line read from g0 (module docstring). E* exists only for R0 > 1:
    SubcriticalR0Error otherwise, the error for every use of an absent E*.
    """
    if not isinstance(which, EquilibriumKind):
        raise InvalidSpecError(f"which must be an EquilibriumKind, got {which!r}")
    coeffs = (DfeCharCoeffs if which is EquilibriumKind.DISEASE_FREE
              else EndemicCharCoeffs).from_params(p)
    return StabilityReport(
        which=which,
        classification=_classification(coeffs.g0),
        rightmost_real_root=rightmost_real_root(coeffs),
        imag_axis_root_exists=coeffs.g0 <= 0.0,
        routh_hurwitz_tau0=coeffs.g0 > 0.0,
        factor_roots=(-p.mu_h, -p.mu_v),
    )
