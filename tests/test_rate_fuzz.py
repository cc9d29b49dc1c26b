"""Extreme-rate property tests: every `run_scenario` call, and every call of
the library entry points below it, leaves through the error taxonomy.

Each seeded draw has rates log-uniform in [1e-300, 1e300], its own tau
(0, moderate or log-uniform), history kind, system, mesh and a short t_end.
The scenario runs in full (every analysis on, files written) and once per
`only` section; on the same draws, each entry point that reads a
rate-derived quantity is called on its own. Each call must return or raise
a `ModelError`. Most draws fail at their first check, so each test takes a
few seconds.
"""

import numpy as np

from malaria_dde import (
    EquilibriumKind,
    IntegrationSpec,
    ModelError,
    ModelParams,
    SystemKind,
    classify,
    equilibrium_set,
    persistence_bounds,
    rhs,
    run_scenario,
    v_dfe,
    v_endemic,
)
from malaria_dde.scenario import Analyses, HistorySpec, Scenario

DRAWS = 2000
RATES = ("beta_h", "beta_v", "mu_h", "mu_v", "c_vh", "c_hv")
ONLY = (None, "stability", "lyapunov", "persistence")
ALL_ANALYSES = Analyses(simulate=True, stability=True, lyapunov=True, persistence=(0.5,))


def _log_uniform(rng) -> float:
    return float(10.0 ** rng.uniform(-300.0, 300.0))


def _history(rng, tau: float) -> HistorySpec:
    kind = ("constant", "table", "random")[rng.integers(3)]
    state = tuple(_log_uniform(rng) for _ in range(4))
    if kind == "constant":
        return HistorySpec(kind, state=state)
    if kind == "table":
        times = (-tau, -0.5 * tau, 0.0) if tau > 0 else (0.0,)
        states = tuple(tuple(_log_uniform(rng) for _ in range(4)) for _ in times[1:])
        return HistorySpec(kind, times=times, states=(state, *states))
    return HistorySpec(kind)


def _scenario(rng, out_dir: str) -> Scenario:
    tau = (0.0, float(rng.uniform(0.1, 3.0)), _log_uniform(rng))[rng.integers(3)]
    p = ModelParams(**{name: _log_uniform(rng) for name in RATES}, tau=tau)
    spec = IntegrationSpec(system=(SystemKind.FULL, SystemKind.LIMITING)[rng.integers(2)],
                           t_end=float(rng.uniform(0.5, 5.0)),
                           steps_per_delay=int(rng.integers(1, 9)))
    return Scenario(params=p, history=_history(rng, tau), integration=spec,
                    analyses=ALL_ANALYSES, out_dir=out_dir)


def _draws(out_dir: str):
    """(seed, scenario) for each of the DRAWS seeded draws, the same in every test."""
    rng = np.random.default_rng(20261020)
    for i in range(DRAWS):
        yield i, _scenario(rng, out_dir)


def test_extreme_rates_leave_every_run_through_the_taxonomy(tmp_path):
    for i, scn in _draws(str(tmp_path / "out")):
        for only in ONLY:
            try:
                run_scenario(scn, seed=i, only=only)
            except ModelError:
                pass
            except Exception as exc:
                raise AssertionError(f"draw {i}, only={only}: {scn}") from exc


def _entry_point_calls(scn: Scenario, seed: int):
    """(name, call) for each library entry point on the draw's rates, and on
    its history where one is needed."""
    p = scn.params
    yield "equilibrium_set", lambda: equilibrium_set(p)
    for which in EquilibriumKind:
        yield f"classify {which.value}", lambda which=which: classify(p, which)
    yield "persistence_bounds", lambda: persistence_bounds(p, 0.5)
    try:
        psi = scn.history.build(p, seed)
    except ModelError:
        return
    yield "v_dfe", lambda: v_dfe(p, psi)
    yield "v_endemic", lambda: v_endemic(p, psi)
    for system in SystemKind:
        yield f"rhs {system.value}", lambda system=system: rhs(
            p, psi.state_at(0.0), psi.state_at(-p.tau), system)


def test_extreme_rates_leave_every_entry_point_through_the_taxonomy(tmp_path):
    for i, scn in _draws(str(tmp_path / "out")):
        for name, call in _entry_point_calls(scn, i):
            try:
                call()
            except ModelError:
                pass
            except Exception as exc:
                raise AssertionError(f"draw {i}, {name}: {scn.params}") from exc
