"""The benchmark's inputs still load.

perfbench/gen.py writes each workload's pool of scenario and sweep files.
A schema change that rejects them would make every benchmark op fail, so
the pools for two seeds go through the loaders here, without the slower
perfbench suite.
"""

import importlib.util
import json
import os

import pytest

from malaria_dde import load_scenario, load_sweep

GEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "gen.py")


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_every_workload_pool_loads(tmp_path, seed):
    gen = _load_gen()
    for workload in gen.WORKLOADS:
        load = load_scenario if workload == "simulate" else load_sweep
        paths = gen.write_pool(workload, seed, str(tmp_path / workload))
        assert len(paths) == gen.POOL_SIZE[workload]
        for path in paths:
            load(path)
            if workload == "simulate":
                # so this guard keeps covering the key the loader only keeps as 1
                with open(path) as fh:
                    assert "record_stride" in json.load(fh)["integration"]
