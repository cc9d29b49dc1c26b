"""The benchmark's tracer still installs over the package.

perfbench/tracing.py wraps the package from outside, by module, class and
attribute name, for `perfbench/run.py --trace 1`. Loading it by path here
catches a rename that would break that trace, without the slower
perfbench suite.
"""

import importlib.util
import os

import malaria_dde.cli as cli  # the tracer needs every layer imported
from malaria_dde import EquilibriumKind, IntegrationSpec, SystemKind, integrator, stability

from conftest import P_SUPER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_labels_the_root_search_at_both_states():
    tracing = _load_tracing()
    original = stability.rightmost_real_root
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for which in EquilibriumKind:
            stability.classify(P_SUPER, which)
    finally:
        tracer.uninstall()
    assert stability.rightmost_real_root is original
    roots = [s for s in tracer.spans if s[tracing.NAME] == "stability.rightmost_real_root"]
    assert [s[tracing.INFO][0] for s in roots] == ["e0", "e_star"]
    assert all(s[tracing.EXC] is None and len(s[tracing.INFO]) == 2 for s in roots)
    # each search is a child of its classify span
    parents = {s[tracing.SID]: s[tracing.NAME] for s in tracer.spans}
    assert [parents[s[tracing.PARENT]] for s in roots] == ["stability.classify"] * 2


def test_tracer_times_a_simulate_ops_run_and_its_csv(tmp_path):
    # Trajectory.to_csv is wrapped on the class by name, and
    # integrate's info reads the trajectory's fields
    tracing = _load_tracing()
    original = integrator.Trajectory.__dict__["to_csv"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        path = os.path.join(ROOT, "demos", "scenarios", "fadeout.json")
        assert cli.main(["simulate", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    finally:
        tracer.uninstall()
    assert integrator.Trajectory.__dict__["to_csv"] is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("integrator.Trajectory.to_csv") == 1
    runs = [s for s in tracer.spans if s[tracing.NAME] == "integrator.integrate"]
    assert all(s[tracing.EXC] is None for s in runs)
    (full,) = [s[tracing.INFO] for s in runs if s[tracing.INFO][0] == "full"]
    _, steps, (_, _, spec) = full
    assert spec == IntegrationSpec(SystemKind.FULL, 300.0)
    assert steps == 300 * 20  # t_end at h = tau / 20
