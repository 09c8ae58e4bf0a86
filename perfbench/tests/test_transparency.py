"""Tracing never feeds simulation state; the benchmark refuses a bare tree.

Each workload runs a short input twice in fresh processes, traced and
untraced, exactly as the benchmark's repetitions do.  The simulated-result
digests and every ``METRICS`` counter must be identical.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import workloads

PERFBENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
SIZE = "0.2"


def _rep(workload: str, trace: int) -> dict:
    args = [sys.executable, str(PERFBENCH / "rep.py"), "--workload", workload,
            "--seed", "3", "--trace", str(trace), "--size", SIZE]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_agree(workload):
    plain = _rep(workload, 0)
    traced = _rep(workload, 1)
    assert plain["errors"] == [] and traced["errors"] == []
    assert plain["completed"] > 0
    assert traced["digest"] == plain["digest"]
    assert traced["result"] == plain["result"]
    assert traced["counters"] == plain["counters"]
    spans = traced["traced"]
    assert sum(spans["self_s"].values()) == pytest.approx(spans["wall_s"])
    if workload == "scale_sharded":
        # Both forked workers shipped their aggregates across the fork.
        assert spans["processes"] == 3
        assert sorted(spans["advance_s"]) == ["z0", "z1"]
        assert spans["counters"]["sim.steps"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk_ipv4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
