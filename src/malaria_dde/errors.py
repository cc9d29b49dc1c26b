"""Exception taxonomy.

Two families matter to batch callers: ValidationError (bad inputs, bad
domains, bad schemas; CLI exit code 1) and NumericalError (the computation
itself broke down; CLI exit code 2).
"""

from __future__ import annotations

from .defaults import CLAMP_BAND


class ModelError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ModelError):
    """Input, domain, or schema violation; `name` is the record field it names, if any."""

    def __init__(self, *args: object, name: str | None = None):
        super().__init__(*args)
        self.name = name


class NumericalError(ModelError):
    """A numerical procedure failed (overshoot, lost bracket, division blowup)."""


class NonPositiveRateError(ValidationError):
    def __init__(self, name: str, value: float):
        self.value = value
        super().__init__(f"rate {name} must be a finite number > 0, got {value!r}", name=name)


class NegativeDelayError(ValidationError):
    def __init__(self, value: float):
        self.value = value
        super().__init__(f"delay tau must be a finite number >= 0, got {value!r}", name="tau")


class InvalidHistoryError(ValidationError):
    """History segment violates its invariants (ordering, sign, mosquito total)."""


class InvalidSpecError(ValidationError):
    """An integration or read-out control is out of its domain (t_end, mesh,
    seed, an analysis selector, or a trajectory that does not fit the
    analysis)."""


class ZeroMosquitoPopulationError(NumericalError):
    def __init__(self, t: float | None = None):
        self.t = t
        where = "" if t is None else f" at t = {t:g}"
        super().__init__(f"total mosquito population reached zero{where}; "
                         "standard incidence is undefined")


class NegativityBreachError(NumericalError):
    def __init__(self, t: float, component: str, value: float):
        self.t = t
        self.component = component
        self.value = value
        super().__init__(f"component {component} = {value:.3e} fell below {-CLAMP_BAND:g} "
                         f"at t = {t:g}; step size too coarse for this problem")


class NonFiniteStateError(NumericalError):
    def __init__(self, t: float, component: str, value: float):
        self.t = t
        self.component = component
        self.value = value
        super().__init__(f"component {component} = {value!r} is not finite "
                         f"at t = {t:g}; the solution blew up")


class OutOfRangeError(ValidationError):
    def __init__(self, t: float, lo: float, hi: float):
        self.t = t
        super().__init__(f"t = {float(t)!r} outside the computed range [{lo:g}, {hi:g}]")


class EmptyWindowError(ValidationError):
    def __init__(self, msg: str = "tail window contains fewer than two mesh nodes"):
        super().__init__(msg)


class RateUnderflowError(NumericalError):
    def __init__(self, product: str):
        self.product = product
        super().__init__(f"{product} underflows to 0: division by zero for "
                         "admissible but extreme rates")


class RootPolishError(NumericalError):
    """The Newton-bisection polish could not find G's root in its bracket."""


class OutsideOmega1Error(ValidationError):
    def __init__(self):
        super().__init__("window not admissible: needs S_h(0) > 0 and S_v(0) > 0")


class OutsideOmega2Error(ValidationError):
    def __init__(self):
        super().__init__("window not admissible: needs every component of the "
                         "current state strictly positive")


class NonPositiveProductError(ValidationError):
    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(f"I_v * S_h must stay strictly positive on the window; "
                         f"violated at offset {theta:g}")


class SubcriticalR0Error(ValidationError):
    """E* is absent (R0 <= 1) and the operation needs it."""

    def __init__(self, r0: float):
        self.r0 = r0
        super().__init__(f"operation requires R0 > 1, got R0 = {r0:.6g}")


class ThetaOutOfRangeError(ValidationError):
    def __init__(self, theta: float):
        self.theta = theta
        super().__init__(f"theta must lie strictly inside (0, 1), got {theta!r}")


class NotInDomainDError(ValidationError):
    def __init__(self):
        super().__init__("history not in the persistence domain: needs I_h(0) > 0")


class SchemaError(ValidationError):
    def __init__(self, field: str, msg: str):
        self.field = field
        super().__init__(f"{field}: {msg}")
