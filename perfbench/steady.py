"""Steadiness check: two interleaved sets of runs, their spreads and bounds.

Usage, from the root of the repository::

    python3 perfbench/steady.py [--write]

Runs every workload ten times per set, for two sets, interleaving the
workloads within each round and giving every run its own seed.  For
each end-to-end metric it prints the median and quartiles of each set,
the spread (quartile distance over the median) and the shift of the
second median against the first, then derives a bound per metric: at
least three times the worst spread and twice the worst shift seen on
any workload, at least 5%, at most 25% (``setup_s`` always gets 25%).
It then checks that every spread and shift, ``setup_s`` included, is
within the bounds of ``BENCHMARK.json`` and that the share of failed
operations is the same in every run of a workload.  ``--write`` stores
the derived bounds in ``BENCHMARK.json``.  Exit status 0 means every
check held.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
RUNS = 10  # per workload and set


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} reported incorrect output")
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)``, quartiles as the driver takes them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much the second median is worse than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="store the derived bounds in BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[tuple[int, str], list[dict]] = {}
    for set_index, base in enumerate((1000, 2000)):
        for i in range(RUNS):
            for name in names:
                result = run_once(spec, name, base + i)
                results.setdefault((set_index, name), []).append(result)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"set {set_index} run {i} {name}: {result['wall_s']:.1f} s wall, "
                      f"{result['attempted']} attempted, {result['failed']} failed; {values}", flush=True)

    worst_spread = {m: 0.0 for m in metrics}
    worst_shift = {m: 0.0 for m in metrics}
    ok = True
    for name in names:
        print(f"\n{name}")
        shares = {Fraction(r["failed"], r["attempted"]) for s in (0, 1) for r in results[(s, name)]}
        if len(shares) != 1:
            print(f"  FAIL: the failed share differs between runs: {sorted(shares)}")
            ok = False
        walls = [r["wall_s"] for s in (0, 1) for r in results[(s, name)]]
        print(f"  failed share {sorted(shares)[0]}; run wall time {min(walls):.1f}-{max(walls):.1f} s")
        for metric, m in metrics.items():
            stats = [spread([r["metrics"][metric]["value"] for r in results[(s, name)]]) for s in (0, 1)]
            shift = worse_by(stats[0][1], stats[1][1], m["better"])
            worst_spread[metric] = max(worst_spread[metric], stats[0][3], stats[1][3])
            worst_shift[metric] = max(worst_shift[metric], shift)
            verdict = ""
            if max(stats[0][3], stats[1][3]) > m["bound"]:
                verdict += " SPREAD>BOUND"
            if shift > m["bound"]:
                verdict += " SHIFT>BOUND"
            ok = ok and not verdict
            print(f"  {metric:18s} " + "  ".join(
                f"set{s}: {q1:.4g} / {med:.4g} / {q3:.4g} (spread {sp:.3f})"
                for s, (q1, med, q3, sp) in enumerate(stats)
            ) + f"  shift {shift:+.3f}  bound {m['bound']}{verdict}")

    print("\nderived bounds")
    for metric in metrics:
        bound = 0.25 if metric == "setup_s" else min(
            0.25, max(0.05, 3 * worst_spread[metric], 2 * worst_shift[metric])
        )
        bound = math.ceil(bound * 100) / 100
        print(f"  {metric}: worst spread {worst_spread[metric]:.3f}, worst shift "
              f"{worst_shift[metric]:+.3f} -> bound {bound}")
        metrics[metric]["bound"] = bound
    if args.write:
        SPEC.write_text(json.dumps(spec, indent=2) + "\n")
        print(f"bounds written to {SPEC.name}")
    print("\nPASS" if ok else "\nFAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
