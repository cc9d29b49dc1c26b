"""The contract every public value type keeps: read-only fields, equality by
field, validation on `_replace` where construction validates, and a
`Trajectory` repr without its node buffer."""

import os

import pytest

import malaria_dde
from malaria_dde import (
    CharCoeffs,
    DfeCharCoeffs,
    EmptyWindowError,
    EndemicCharCoeffs,
    EquilibriumKind,
    HistorySegment,
    IntegrationSpec,
    InvalidHistoryError,
    InvalidSpecError,
    NonPositiveRateError,
    SystemKind,
    ValidationError,
    classify,
    equilibrium_set,
    integrate,
    load_scenario,
    load_sweep,
    persistence_bounds,
    trace_along,
    weak_persistence_check,
)

from conftest import P_SUPER

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "demos", "scenarios")
PHI = HistorySegment.constant((3.0, 1.0, 40.0, 10.0), P_SUPER.tau)
TABLE = HistorySegment.table((-1.0, -0.35, 0.0), [(3.0, 0.0, 40.0, 0.0), (2.5, 0.5, 38.0, 4.0),
                                                  (3.0, 1.0, 40.0, 10.0)])


def _trajectory(system=SystemKind.FULL, t_end=5.0):
    return integrate(P_SUPER, PHI, IntegrationSpec(system, t_end))


def _values():
    """One value of each public value type."""
    traj = _trajectory()
    values = [
        P_SUPER, TABLE, IntegrationSpec(SystemKind.FULL, 5.0), traj, traj.tail, traj.tail.inf,
        CharCoeffs(1.0, 2.0, -0.5, 1.0, 1.5), DfeCharCoeffs.from_params(P_SUPER),
        EndemicCharCoeffs.from_params(P_SUPER), equilibrium_set(P_SUPER),
        classify(P_SUPER, EquilibriumKind.DISEASE_FREE),
        trace_along(P_SUPER, _trajectory(SystemKind.LIMITING)),
        persistence_bounds(P_SUPER, 0.5), weak_persistence_check(P_SUPER, traj, 0.5),
        load_scenario(os.path.join(SCENARIOS, "endemic.json")),
        load_sweep(os.path.join(SCENARIOS, "sweep_c_vh.json")),
    ]
    return {type(v).__name__: v for v in values}


VALUES = _values()


def test_every_public_value_type_has_a_value_here():
    named = {name for name in malaria_dde.__all__
             if isinstance(getattr(malaria_dde, name), type)
             and issubclass(getattr(malaria_dde, name), tuple)}
    assert named == set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_are_read_only_and_no_attribute_can_be_added(name):
    value = VALUES[name]
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], getattr(value, value._fields[0]))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_compare_equal(name):
    value = VALUES[name]
    assert type(value)(*value) == value
    assert value._replace() == value


@pytest.mark.parametrize("value,field,bad,error", [
    (P_SUPER, "mu_h", 0.0, NonPositiveRateError),
    (IntegrationSpec(SystemKind.FULL, 5.0), "steps_per_delay", 0, InvalidSpecError),
    (CharCoeffs(1.0, 2.0, -0.5, 1.0, 1.5), "a3", 0.5, ValidationError),
    (PHI, "tau", 2.0, InvalidHistoryError),
    (TABLE, "samples", TABLE.samples[:2], InvalidHistoryError),
    (TABLE, "sample_times", (-1.0, -0.35, -0.1), InvalidHistoryError),
    (TABLE, "tau", float("inf"), InvalidHistoryError),
    (TABLE, "tau", "1.0", InvalidHistoryError),
])
def test_replace_raises_the_constructors_error(value, field, bad, error):
    with pytest.raises(error):
        type(value)(**{**value._asdict(), field: bad})
    with pytest.raises(error):
        value._replace(**{field: bad})


def test_histories_compare_and_hash_by_value():
    state = (3.0, 1.0, 40.0, 10.0)
    again = HistorySegment.constant(list(state), 1)
    table = HistorySegment.table([-1, 0], [state, state])
    assert again == table == PHI and hash(again) == hash(table) == hash(PHI)
    assert again.sample_times == (-1.0, 0.0) and again.samples == (state, state)
    assert HistorySegment.constant(state, 0.5) != PHI


def test_history_times_and_states_are_fresh_float_arrays():
    for seg in (PHI, TABLE):
        times, states = seg.times, seg.states
        assert times.typecode == states.typecode == "d"
        assert times is not seg.times and states is not seg.states
        assert times.tolist() == list(seg.sample_times)
        assert states.tolist() == [v for row in seg.samples for v in row]
        times[0] = states[0] = -5.0  # a copy: the history keeps its samples
        assert seg.times[0] == -1.0 and seg.states[0] == 3.0


def test_trajectory_replace_keeps_every_other_field():
    traj = VALUES["Trajectory"]
    ys = traj.ys[:]
    ys[0] += 1.0
    swapped = traj._replace(ys=ys)
    assert swapped.ys is ys
    assert swapped[1:] == traj[1:]
    assert swapped != traj
    assert swapped.tail is traj.tail


def test_trajectory_repr_leaves_out_the_nodes_and_the_tail():
    traj = VALUES["Trajectory"]
    text = repr(traj)
    assert text.startswith("Trajectory(steps=") and text.endswith(f"m={traj.m!r})")
    assert "ys=" not in text and "array(" not in text and "tail=" not in text


def test_trajectory_tail_field_holds_none_where_the_property_raises():
    traj = _trajectory(t_end=P_SUPER.tau / 20)  # one step: one tail node
    assert traj.steps == 1 and traj[-1] is None
    with pytest.raises(EmptyWindowError):
        traj.tail

