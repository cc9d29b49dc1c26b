"""Quick-mode tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run perfbench/run.py for one second per workload with --quick, so the
whole file takes well under a minute.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, seed=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = gen.write_pool(workload, 7, str(tmp_path / "a"))
    b = gen.write_pool(workload, 7, str(tmp_path / "b"))
    c = gen.write_pool(workload, 8, str(tmp_path / "c"))
    assert len(a) == gen.POOL_SIZE[workload]
    assert all(filecmp.cmp(x, y, shallow=False) for x, y in zip(a, b))
    assert not all(filecmp.cmp(x, z, shallow=False) for x, z in zip(a, c))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_metric_is_emitted_and_nothing_fails(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("simulate", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_importtime_parser_attributes_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       200 |        250 |     scipy.optimize",
        "import time:        10 |        260 |   malaria_dde.stability",
        "import time:         5 |        365 | malaria_dde",
        "import time:         7 |          7 | malaria_dde.cli",
    ])
    package, scipy = tracing.parse_importtime(text)
    assert package == pytest.approx(372e-6)
    assert scipy == pytest.approx(250e-6)
