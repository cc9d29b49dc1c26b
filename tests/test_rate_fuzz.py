"""Extreme-rate property tests: every `run_scenario` call, and every call of
the library entry points below it, leaves through the error taxonomy.

Each seeded draw has rates log-uniform in [1e-300, 1e300], its own tau
(0, moderate or log-uniform), history kind, system, mesh and a short t_end.
The scenario runs in full (every analysis on, files written) and once per
`only` section; on the same draws, each entry point that reads a
rate-derived quantity is called on its own. Each call must return or raise
a `ModelError`. Most draws fail at their first check, so each test takes a
few seconds.

A sweep row reads its verdicts from G(0) alone, so on the same draws its
line must come back whatever the rates, with the verdict `classify` gives
wherever `classify` returns, and a verdict (no error cell) where only the
root polish or E*'s linearization weights fail. Those cells read E*'s
existence alone, so a row that also has E*'s cells is the same row plus
them, or a NumericalError row where a component of E* is not finite.
"""

import math

import numpy as np
import pytest

from malaria_dde import (
    EquilibriumKind,
    IntegrationSpec,
    ModelError,
    ModelParams,
    RateUnderflowError,
    RootPolishError,
    SystemKind,
    classify,
    endemic_equilibrium,
    equilibrium_set,
    persistence_bounds,
    rhs,
    run_scenario,
    v_dfe,
    v_endemic,
)
from malaria_dde.scenario import (
    _COLUMN_ALIASES,
    SWEEP_COLUMNS,
    Analyses,
    HistorySpec,
    Scenario,
    SweepSpec,
    _row_line,
)

from conftest import P_SUPER

DRAWS = 2000
RATES = ("beta_h", "beta_v", "mu_h", "mu_v", "c_vh", "c_hv")
ONLY = (None, "stability", "lyapunov", "persistence")
ALL_ANALYSES = Analyses(simulate=True, stability=True, lyapunov=True, persistence=(0.5,))
ROW_COLUMNS = tuple(c for c in SWEEP_COLUMNS if c not in _COLUMN_ALIASES["tail"])
VERDICT_COLUMNS = tuple(c for c in ROW_COLUMNS if c not in _COLUMN_ALIASES["e_star"])
VERDICTS = {"classification_e0": EquilibriumKind.DISEASE_FREE,
            "classification_e_star": EquilibriumKind.ENDEMIC}


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


def _row_cells(scn: Scenario, seed: int,
               columns: tuple[str, ...] = ROW_COLUMNS) -> dict[str, str]:
    """The draw's sweep row with `columns` (default: every column but the
    tail ones), by column, the error cell under "error"; `_row_line` must
    return whatever the rates."""
    p = scn.params
    line = _row_line(SweepSpec(scn, "tau", (p.tau,), columns), p.tau, seed)
    return dict(zip(("tau", *columns, "error"), line.split(",", len(columns) + 1)))


def _check_row_verdicts(scn: Scenario, seed: int) -> int:
    """Check the row's verdict cells against classify at both states, and
    return how many of the two classify calls raised RootPolishError. Such a
    cell holds a verdict all the same, and the row no error cell."""
    cells, polish_failures = _row_cells(scn, seed, VERDICT_COLUMNS), 0
    for col, which in VERDICTS.items():
        try:
            want = classify(scn.params, which).classification.value
        except RootPolishError:
            polish_failures += 1
            assert cells[col] in ("LAS", "Unstable", "Critical") and cells["error"] == ""
        except ModelError:
            pass
        else:
            assert cells[col] == want
    return polish_failures


def test_extreme_rate_sweep_rows_give_the_verdicts_classify_gives(tmp_path):
    failures = 0
    for i, scn in _draws(str(tmp_path / "out")):
        try:
            failures += _check_row_verdicts(scn, i)
        except Exception as exc:
            raise AssertionError(f"draw {i}: {scn.params}") from exc
    assert failures > 0


def _check_star_cells(scn: Scenario, seed: int) -> bool:
    """Check the row with E*'s cells against the row without them, and
    return whether E* exists with a component that is not finite."""
    verdicts, cells = _row_cells(scn, seed, VERDICT_COLUMNS), _row_cells(scn, seed)
    try:
        star = endemic_equilibrium(scn.params)
    except ModelError:
        star = None
    if verdicts["error"] == "" and star is not None and not all(map(math.isfinite, star)):
        assert cells["error_class"] == "NumericalError"
        assert cells["error"].startswith('"error: E* component ')
        return True
    assert {col: cells[col] for col in verdicts} == verdicts
    return False


def test_extreme_rate_rows_with_e_star_cells_fail_only_where_e_star_is_not_finite(tmp_path):
    non_finite = 0
    for i, scn in _draws(str(tmp_path / "out")):
        try:
            non_finite += _check_star_cells(scn, i)
        except Exception as exc:
            raise AssertionError(f"draw {i}: {scn.params}") from exc
    assert non_finite > 0


def test_sweep_rows_print_verdicts_where_the_root_polish_fails_within_1e30():
    rng = np.random.default_rng(36)
    history = HistorySpec("constant", state=(1.0, 0.1, 1.0, 0.1))
    failures = 0
    for _ in range(500):
        rates = 10.0 ** rng.uniform(-30.0, 30.0, 7)
        failures += _check_row_verdicts(Scenario(ModelParams(*rates), history), 0)
    assert failures >= 10


def test_sweep_rows_print_verdicts_past_a_polish_or_weight_failure():
    history = HistorySpec("constant", state=(1.0, 0.1, 1.0, 0.1))
    # G's root at either state does not converge in 100 iterations; R0^2 = 1e48
    polish = ModelParams(beta_h=1e24, beta_v=1e20, mu_h=0.01, mu_v=1e6, c_vh=1e27,
                         c_hv=0.1, tau=1e4)
    # E* exists, but N_v* = 5e-323 and its square, a weight's divisor, underflows
    weights = P_SUPER._replace(beta_v=5e-324)
    for p, error in ((polish, RootPolishError), (weights, RateUnderflowError)):
        with pytest.raises(error):
            classify(p, EquilibriumKind.ENDEMIC)
        cells = _row_cells(Scenario(params=p, history=history), 0)
        assert (cells["classification_e0"], cells["classification_e_star"],
                cells["error_class"], cells["error"]) == ("Unstable", "LAS", "", "")
