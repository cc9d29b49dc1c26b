"""Vector-host transmission model with a latency delay.

State (S_h, I_h, S_v, I_v): susceptible/infectious humans and mosquitoes.
Humans are recruited at rate beta_h and die at rate mu_h; mosquitoes at
beta_v, mu_v. Bites transmit with standard (frequency-dependent) incidence
on the mosquito side, and new human infections at time t trace back to
contacts made one latency period tau earlier:

    S_h' = beta_h - C_vh * (I_v(t)/N_v(t)) * S_h(t) - mu_h * S_h(t)
    I_h' = C_vh * (I_v(t-tau)/N_v(t-tau)) * S_h(t-tau) - mu_h * I_h(t)
    S_v' = beta_v - C_hv * I_h(t) * S_v(t) - mu_v * S_v(t)
    I_v' = C_hv * I_h(t) * S_v(t) - mu_v * I_v(t)

with N_v = S_v + I_v. The total mosquito population obeys
N_v' = beta_v - mu_v * N_v on its own and settles at S_v0 = beta_v / mu_v,
which motivates the "limiting" variant where the incidence denominator is
frozen at S_v0. Long-run analysis (Lyapunov certificates) is done on the
limiting system; simulation defaults to the full one.

Every layer keeps its numbers in floats, tuples and `array('d')` buffers,
so the package needs nothing beyond the standard library.
"""

from __future__ import annotations

import bisect
import enum
import math
import numbers
from array import array
from collections import namedtuple
from itertools import chain
from typing import Iterable, Sequence

from .defaults import HISTORY_END_BAND, SPAN_BAND
from .errors import (
    InvalidHistoryError,
    NegativeDelayError,
    NonPositiveRateError,
    OutOfRangeError,
    RateUnderflowError,
    ZeroMosquitoPopulationError,
)


Deriv = tuple[float, float, float, float]


def _make_validated(cls: type, iterable: Iterable[object]) -> tuple:
    """A validating value type's `_make`: its constructor, so that `_replace`
    (which namedtuple builds on `_make`) checks the new values too."""
    return cls(*iterable)


class ModelParams(namedtuple("ModelParams", "beta_h beta_v mu_h mu_v c_vh c_hv tau")):
    """Rates are per unit time; c_vh / c_hv are the two transmission rates.

    A named tuple of floats: it unpacks, compares and hashes as a tuple.
    Construction (and `_replace`) raises NonPositiveRateError naming a rate
    that is not a finite real > 0, and NegativeDelayError for a tau that is
    not a finite real >= 0; no entry point checks again.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> "ModelParams":
        self = super().__new__(cls, *args, **kwargs)
        for name, v in zip(_RATE_FIELDS, self):
            if not (_finite_real(v) and v > 0):
                raise NonPositiveRateError(name, v)
        _check_delay(self.tau)
        return self

    _make = classmethod(_make_validated)

    @property
    def s_h0(self) -> float:
        """Disease-free human population beta_h / mu_h."""
        return self.beta_h / self.mu_h

    @property
    def s_v0(self) -> float:
        """Disease-free (and limiting) mosquito population beta_v / mu_v."""
        return self.beta_v / self.mu_v

    @property
    def inv_s_v0(self) -> float:
        """1 / S_v0, the limiting system's fixed 1 / N_v. RateUnderflowError
        when S_v0 underflows to 0."""
        return 1.0 / _nonzero(self.s_v0, _S_V0)

    @property
    def max_rate(self) -> float:
        return max(self.beta_h, self.beta_v, self.mu_h, self.mu_v,
                   self.c_vh, self.c_hv)


_RATE_FIELDS = ModelParams._fields[:-1]  # every field but tau
_S_V0 = "S_v0 = beta_v / mu_v"


def _nonzero(value: float, name: str) -> float:
    """value, a divisor derived from the rates; RateUnderflowError(name) where
    it underflowed to 0. The one place that raises that error."""
    if value == 0.0:
        raise RateUnderflowError(name)
    return value


def _finite_real(x: object) -> bool:
    """The scenario loader's number rule: a real that is not a bool and is
    finite as a float."""
    if type(x) is float:  # the common case, ahead of every isinstance check
        return math.isfinite(x)
    # float subclasses and int next: they skip the slower numbers.Real ABC check
    if not isinstance(x, (float, int, numbers.Real)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_delay(tau: object) -> None:
    """The one delay rule: a finite real >= 0, else NegativeDelayError."""
    if not (_finite_real(tau) and tau >= 0):
        raise NegativeDelayError(tau)


def _spans(span: float, tau: float) -> bool:
    """The one span rule: a history span (or a read below it) is tau to SPAN_BAND (1 + tau)."""
    return abs(span - tau) <= SPAN_BAND * (1.0 + tau)


def _require_span(phi: HistorySegment, tau: float) -> None:
    """phi fits the delay tau by _spans, else InvalidHistoryError naming its times."""
    if not _spans(phi.tau, tau):
        raise InvalidHistoryError(f"history spans tau = {phi.tau!r} but params "
                                  f"have tau = {tau!r}", name="times")


class State(namedtuple("State", "s_h i_h s_v i_v")):
    """Compartment sizes at one instant, a 4-tuple. Derivatives reuse the
    same shape as plain tuples, since they may be negative."""

    __slots__ = ()

    @property
    def n_v(self) -> float:
        return self.s_v + self.i_v

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


COMPONENT_NAMES = State._fields


def _fmt(x: float) -> str:
    """A number as every report line and sweep cell prints it: 17
    significant digits, enough to read the same float back."""
    return f"{x:.17g}"


class SystemKind(enum.Enum):
    FULL = "full"
    LIMITING = "limiting"


def rhs(p: ModelParams, now: State, delayed: State, system: SystemKind) -> Deriv:
    """Time derivative of the full or the limiting system at (now, delayed).

    Raises ZeroMosquitoPopulationError if either state has N_v <= 0 (either
    system), and RateUnderflowError on the limiting system if S_v0 underflows
    to 0. The mosquito flux is computed once, so d/dt(S_v + I_v) cancels
    it exactly; integrate's step loop repeats these expressions in this
    order, so its node derivatives equal them bit for bit.
    """
    if now.n_v <= 0 or delayed.n_v <= 0:
        raise ZeroMosquitoPopulationError()
    inv_nv = None if system is SystemKind.FULL else p.inv_s_v0
    lam, lam_d = (p.c_vh * (x.i_v / x.n_v if inv_nv is None else x.i_v * inv_nv) * x.s_h
                  for x in (now, delayed))
    flux_v = p.c_hv * now.i_h * now.s_v
    return (
        p.beta_h - lam - p.mu_h * now.s_h,
        lam_d - p.mu_h * now.i_h,
        p.beta_v - flux_v - p.mu_v * now.s_v,
        flux_v - p.mu_v * now.i_v,
    )


class HistorySegment:
    """Initial data on [-tau, 0]: either a constant state or a sampled table
    interpolated piecewise-linearly.

    The samples are kept as float tuples; `times` and `states` copy them
    into fresh flat `array('d')` buffers, the states four floats a sample.
    Invariants, enforced at construction: one 4-vector of reals per time,
    finite sample times strictly increasing from -tau to 0, every sample
    finite and componentwise >= 0, and S_v + I_v > 0 at every sample.
    """

    def __init__(self, times: Sequence[float], states: Sequence[Sequence[float]],
                 tau: float):
        self._t = t = _reals(times)
        try:
            self._x = x = tuple(_reals(row, 4) for row in states)
        except TypeError:  # states is not a sequence
            raise InvalidHistoryError(_NOT_NUMERIC) from None
        self.tau = tau
        if not t or len(x) != len(t):
            raise InvalidHistoryError(f"history needs one 4-vector sample per "
                                      f"time, got {len(x)} for {len(t)} times")
        if not (all(map(math.isfinite, t))
                and all(math.isfinite(v) for row in x for v in row)):
            raise InvalidHistoryError("history times and samples must be finite")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise InvalidHistoryError("sample times must be strictly increasing")
        if not _spans(-t[0], tau):
            raise InvalidHistoryError("first sample time must equal -tau")
        if any(v < 0 for row in x for v in row):
            raise InvalidHistoryError("history samples must be componentwise >= 0")
        if any(row[2] + row[3] <= 0 for row in x):
            raise InvalidHistoryError("S_v + I_v must stay strictly positive "
                                      "on the history interval")

    @classmethod
    def constant(cls, state: Sequence[float], tau: float) -> "HistorySegment":
        _check_delay(tau)
        times = (-float(tau), 0.0) if tau > 0 else (0.0,)
        return cls(times, [state] * len(times), 0.0 - times[0])

    @classmethod
    def table(cls, times: Sequence[float], states: Sequence[Sequence[float]]) -> "HistorySegment":
        t = _reals(times)
        if not t or t[-1] != 0.0:
            raise InvalidHistoryError("last sample time must be exactly 0")
        return cls(t, states, 0.0 - t[0])  # tau = 0, not -0.0, from times [0]

    @property
    def times(self) -> array:
        return array("d", self._t)

    @property
    def states(self) -> array:
        return array("d", chain.from_iterable(self._x))

    def value_at(self, theta: float) -> tuple[float, float, float, float]:
        """Piecewise-linear evaluation at offset theta in [-tau, 0] (-tau by `_spans`).

        np.interp's arithmetic, value for value: the first sample below the
        first time, the last one from the last time on, a sample at its own
        time, and between two samples slope * (theta - t_j) + y_j.
        """
        t, x = self._t, self._x
        lo = t[0]
        if not (-math.inf < theta <= HISTORY_END_BAND and (lo <= theta or _spans(-lo, -theta))):
            raise OutOfRangeError(theta, 0.0 - self.tau, 0.0)
        j = bisect.bisect_right(t, theta) - 1
        if j < 0:
            return x[0]
        if j == len(t) - 1 or t[j] == theta:
            return x[j]
        t0, t1 = t[j], t[j + 1]
        # samples are finite and theta > t0, so the slope is finite or +-inf
        # and the read is never NaN
        return tuple((y1 - y0) / (t1 - t0) * (theta - t0) + y0
                     for y0, y1 in zip(x[j], x[j + 1]))

    def state_at(self, theta: float) -> State:
        return State(*self.value_at(theta))


_NOT_NUMERIC = "history needs numeric times and 4-vector samples"


def _reals(values: object, size: int | None = None) -> tuple[float, ...]:
    """values as a tuple of floats: a sequence of reals that are not bools,
    of `size` items if given; InvalidHistoryError otherwise."""
    try:
        items = tuple(values)
        if (size is None or len(items) == size) and all(
                isinstance(v, (float, int, numbers.Real)) and not isinstance(v, bool)
                for v in items):
            return tuple(map(float, items))
    except TypeError:  # a scalar
        pass
    except OverflowError:  # an integer beyond the float range
        raise InvalidHistoryError("history times and samples must be finite") from None
    raise InvalidHistoryError(_NOT_NUMERIC)

