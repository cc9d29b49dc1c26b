"""Extreme-rate property test: every `run_scenario` call leaves through the
error taxonomy.

Each seeded draw has rates log-uniform in [1e-300, 1e300], its own tau
(0, moderate or log-uniform), history kind, system, mesh and a short t_end.
The scenario runs in full (every analysis on, files written) and once per
`only` section, and each call must return or raise a `ModelError`. Most
draws fail at their first check, so the test takes a few seconds.
"""

import numpy as np

from malaria_dde import IntegrationSpec, ModelError, ModelParams, SystemKind, run_scenario
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


def test_extreme_rates_leave_every_run_through_the_taxonomy(tmp_path):
    rng = np.random.default_rng(20261020)
    for i in range(DRAWS):
        scn = _scenario(rng, str(tmp_path / "out"))
        for only in ONLY:
            try:
                run_scenario(scn, seed=i, only=only)
            except ModelError:
                pass
            except Exception as exc:
                raise AssertionError(f"draw {i}, only={only}: {scn}") from exc
