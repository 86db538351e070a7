"""Self-test of the benchmark: metric names and units, repeatable counts.

    python3 -m pytest -q perfbench/test_perfbench.py

Each run is the shortest the benchmark makes (one untraced episode, or one
untraced and one traced), so the whole file takes a couple of minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("clutter_pile", "rod_jam", "validate_fd")
EXACT_COUNTS = ("solver.newton_iters_per_op", "batch.terms_calls_per_op",
                "potentials.evaluate_calls_per_op")


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = bench(workload, seed=3, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly(workload):
    first, second = bench(workload, seed=5, trace=1), bench(workload, seed=5, trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared("per_layer")
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    counts = {name: first["metrics"][name]["value"] for name in EXACT_COUNTS}
    if workload == "validate_fd":
        assert counts["potentials.evaluate_calls_per_op"] > 0
        assert counts["solver.newton_iters_per_op"] == counts["batch.terms_calls_per_op"] == 0
    else:
        assert counts["solver.newton_iters_per_op"] > 0
        assert counts["batch.terms_calls_per_op"] > 0
        assert counts["potentials.evaluate_calls_per_op"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rod_jam", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
