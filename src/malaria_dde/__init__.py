"""Delayed host-vector epidemic model with standard incidence.

Four compartments (susceptible/infectious hosts, susceptible/infectious
vectors), a fixed incubation delay in the host infection term, and the
vector-population fraction in the transmission rate. The package computes
equilibria and the reproduction number, integrates the delay system by the
method of steps, classifies equilibria through the characteristic equation,
evaluates Lyapunov functionals along trajectories, and checks weak
persistence of the infected host class.
"""

from types import ModuleType as _ModuleType

from .defaults import (
    CLAMP_BAND,
    DEFAULT_THETA,
    STEPS_PER_DELAY,
    TAIL_WINDOW,
    default_ode_step,
    default_t_end,
)
from .equilibria import (
    EquilibriumSet,
    basic_reproduction_number,
    disease_free_equilibrium,
    endemic_equilibrium,
    equilibrium_residual,
    equilibrium_set,
    r0_squared,
)
from .errors import (
    EmptyWindowError,
    InvalidHistoryError,
    InvalidSpecError,
    ModelError,
    NegativeDelayError,
    NegativityBreachError,
    NonFiniteStateError,
    NonPositiveProductError,
    NonPositiveRateError,
    NotInDomainDError,
    NumericalError,
    OutOfRangeError,
    OutsideOmega1Error,
    OutsideOmega2Error,
    RateUnderflowError,
    RootPolishError,
    SchemaError,
    SubcriticalR0Error,
    ThetaOutOfRangeError,
    ValidationError,
    ZeroMosquitoPopulationError,
)
from .integrator import (
    IntegrationSpec,
    TailStats,
    Trajectory,
    dense_eval,
    integrate,
    tail_stats,
)
from .lyapunov import (
    FunctionalKind,
    LyapunovTrace,
    trace_along,
    v_dfe,
    v_endemic,
)
from .model import (
    COMPONENT_NAMES,
    HistorySegment,
    ModelParams,
    State,
    SystemKind,
    rhs,
)
from .persistence import (
    PersistenceBounds,
    PersistenceReport,
    persistence_bounds,
    weak_persistence_check,
)
from .scenario import (
    Scenario,
    SweepSpec,
    load_scenario,
    load_sweep,
    run_scenario,
    run_sweep,
)
from .stability import (
    CharCoeffs,
    Classification,
    DfeCharCoeffs,
    EndemicCharCoeffs,
    EquilibriumKind,
    StabilityReport,
    char_eval,
    classify,
    rightmost_real_root,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
