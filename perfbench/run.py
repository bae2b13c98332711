"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cold_frontier --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, taken from spans recorded around each
layer's entry points (see ``perfbench/spans.py``), and the spans are
written to ``.perfbench-work/traces/``.  ``--smoke`` shrinks the inputs
so that every workload runs to its end in a few seconds.

The program is imported from ``src/`` of this checkout and nowhere
else; the run exits with status 2, printing no result, when it is
missing.  Scratch files live under ``.perfbench-work/`` and are removed
when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with status 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: repro was imported from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; for the benchmark's own tests")
    args = parser.parse_args(argv)

    # The default configuration: no kernel override from the environment.
    os.environ.pop("REPRO_POWER_KERNEL", None)
    # One CPU for every thread of the run, so the speed measured between
    # slices of work (workloads.Speed) is the speed the work ran at.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    from perfbench import workloads
    from perfbench.checker import CheckError
    from perfbench.spans import Tracer, install

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    run = workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        tracer=tracer,
        scale=workloads.SMOKE if args.smoke else workloads.FULL,
        workdir=workdir,
    )
    correct = True
    try:
        outcome = workload(run)
    except CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    metrics = outcome.per_layer if tracer is not None else outcome.end_to_end
    print(f"perfbench: {outcome.note}")
    if tracer is not None:
        traces = WORKDIR / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(str(path))
        print(f"perfbench: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
