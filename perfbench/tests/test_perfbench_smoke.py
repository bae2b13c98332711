"""Each workload runs to its end on tiny inputs, traced and untraced."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench.workloads import LAYER_METRICS, SMOKE

ROOT = Path(__file__).resolve().parents[2]
END_TO_END = {"throughput_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["cold_frontier", "hot_serve", "live_sessions"])
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = set(LAYER_METRICS) if trace == "1" else END_TO_END
    assert set(result["metrics"]) == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "live_sessions":
        # One failed feasible probe per session per round (the
        # session-atomicity fault): 2 of every 4 deltas + 2 probes.
        per_round = len(SMOKE.sessions) * (SMOKE.session_deltas + 2)
        assert Fraction(result["failed"], result["attempted"]) == Fraction(len(SMOKE.sessions), per_round)
    else:
        assert result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cold_frontier", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
