"""Checks of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q bench/test_bench.py

Each traced run does a fixed amount of work, so its exact counters must repeat
for the same seed; the traced shares must also show why each workload exists.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

from run import EXACT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHARES = ("lattice", "cyclotomic", "state", "hsp", "blackbox")

# why each workload exists (see README.md), as a predicate on its traced metrics
WHY = {
    "hsp-sweep": lambda m: m["state.share"] < 0.05
    and m["lattice.share"] == max(m[f"{layer}.share"] for layer in SHARES),
    "dense-rounds": lambda m: m["lattice.share"] < 0.05,
    "group-structure": lambda m: m["blackbox.swap_tests"] > 0 and m["groups.mul_calls"] > 0,
    "lattice-toolkit": lambda m: m["cyclotomic.mul.calls"] == 0 and m["state.peak_support"] == 0,
}


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def bench(workload, seed, trace):
    proc = run(str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counters_repeat_and_shares_match_purpose(workload):
    first, second = bench(workload, 3, 1), bench(workload, 3, 1)
    assert list(first) == [m["name"] for m in DECLARED["per_layer"]]
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert WHY[workload](first)


def test_untraced_run_reports_declared_metrics():
    metrics = bench("lattice-toolkit", 3, 0)
    assert list(metrics) == [m["name"] for m in DECLARED["end_to_end"]]
    assert all(v > 0 for v in metrics.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("bench/run.py", "--workload", "hsp-sweep", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
