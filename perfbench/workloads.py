"""The three benchmark workloads.

Each workload builds its inputs from the seed, sets up (several times,
reporting the median), runs a timed phase, checks every output with
:mod:`perfbench.checker`, and returns a :class:`Outcome`.  With tracing
on, the timed phase is split in two halves: the first runs with the
span wrappers switched off and gives the untraced throughput, the
second records spans; the per-layer metrics come from the second half.

Every timing is scaled to a reference machine speed (:class:`Speed`):
the timed phase runs in slices of about half a second, and each slice
is scaled by how long a fixed loop takes right before and after it.

Only the public API runs, in its default configuration: ``workers=1``,
the default Pareto engine, no kernel override.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import inspect
import itertools
import json
import os
import resource
import statistics
import tempfile
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.batch as batch
from repro.batch import BatchInstance, ResultCache, random_batch, relabel_tree
from repro.core.costs import ModalCostModel
from repro.dynamics import AddClient, MigrateSubtree, RemoveClient, SessionState, SetRequests
from repro.exceptions import InfeasibleError
from repro.power import ModeSet, PowerModel, power_frontier_counts
from repro.serve import ClusterRouter, InProcessSpawner, ServeClient, ServeError
from repro.serve.spawner import WorkerConfig
from repro.tree import Tree, paper_tree, random_preexisting_modes

from perfbench.checker import (
    CheckError,
    Pricing,
    TreeCopy,
    check_frontier,
    check_pareto_order,
    check_point,
    compare_pairs,
    tree_data,
)
from perfbench.spans import SpanView, Tracer

#: Equation 3 with the ``repro batch`` defaults: modes {5, 10}, P = 12.5 + W^3.
TWO_MODES = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)
THREE_MODES = PowerModel(ModeSet((3, 6, 10)), static_power=12.5, alpha=3.0)
FAT = (6, 9)
HIGH = (2, 4)


@dataclass
class Scale:
    """Input sizes; :data:`SMOKE` shrinks them so a run ends in seconds."""

    setup_repeats: int = 3
    hot_setup_repeats: int = 7  # a cluster start takes tens of milliseconds
    cold_pool: int = 4000
    cold_chunk: int = 4
    oracle_sample: int = 3
    relabel_sample: int = 16
    hot_base: int = 160
    hot_fresh: int = 1000
    hot_copies: int = 640
    hot_fresh_every: int = 16
    sessions: tuple[tuple[int, tuple[int, int], PowerModel], ...] = (
        (200, FAT, TWO_MODES),
        (400, FAT, TWO_MODES),
        (300, HIGH, THREE_MODES),
        (300, FAT, THREE_MODES),
        (200, HIGH, TWO_MODES),
        (400, HIGH, TWO_MODES),
    ) * 4
    session_deltas: int = 16


FULL = Scale()
SMOKE = Scale(
    setup_repeats=2,
    hot_setup_repeats=2,
    cold_pool=48,
    oracle_sample=1,
    relabel_sample=2,
    hot_base=6,
    hot_fresh=8,
    hot_copies=12,
    hot_fresh_every=4,
    sessions=((60, FAT, TWO_MODES), (60, HIGH, THREE_MODES)),
    session_deltas=4,
)


#: The reference speed: the one at which :func:`reference_loop` takes this long.
REFERENCE_S = 0.003
#: Timed work between two measurements of the machine's speed.
SLICE_S = 0.5


_REFERENCE_ARRAYS = list(np.random.default_rng(0).random((64, 40)))


def reference_loop() -> float:
    """Fixed work in the program's mix: interpreted arithmetic and small numpy arrays."""
    total = 0
    for i in range(20_000):
        total += i * i
    acc = _REFERENCE_ARRAYS[0]
    for _ in range(3):
        for row in _REFERENCE_ARRAYS:
            top = np.maximum(acc, row)
            acc = top[np.argsort(top, kind="stable")] * 0.5 + row
    return total + float(acc[0])


class Speed:
    """The machine's speed, measured with :func:`reference_loop` between slices of work.

    The speed of the machine this benchmark was tuned on drifts by up to
    a third within minutes, and the program and the loop slow down
    alike.  Each slice of timed work is scaled by ``REFERENCE_S`` over
    the loop's time measured right before and right after the slice,
    which takes most of that drift out of the figures.  The loop calls
    no program code, so a change to the program moves the scaled
    figures as much as the measured ones.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._last = self._sample()

    @staticmethod
    def _sample() -> float:
        times = []
        for _ in range(5):
            started = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def restart(self) -> None:
        """Measure afresh, before work that follows an untimed stretch."""
        self._last = self._sample()

    def factor(self) -> float:
        """The scale for the work done since the last measurement."""
        now = self._sample()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor


@dataclass
class Run:
    """What one workload run needs."""

    seed: int
    seconds: float
    tracer: Tracer | None
    scale: Scale
    workdir: str
    speed: Speed = field(default_factory=Speed)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def op(self, op_id: int) -> contextlib.AbstractContextManager[None]:
        """Mark one benchmark operation for the trace."""
        return self.tracer.op(op_id) if self.tracer is not None else contextlib.nullcontext()

    @contextlib.contextmanager
    def untraced(self) -> Iterator[None]:
        """Record no spans for work outside the timed operations."""
        enabled = self.tracer is not None and self.tracer.enabled
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = enabled


@dataclass
class Phase:
    """One timed stretch, in slices scaled to the reference speed.

    Where operations run one at a time (``sequential``), the timed wall
    time is the sum of their latencies and a slice closes by itself once
    it holds ``SLICE_S`` of them; otherwise the caller times each slice
    and closes it.
    """

    speed: Speed
    sequential: bool = True
    latencies: list[float] = field(default_factory=list)  # per operation, scaled
    wall: float = 0.0  # timed wall time, scaled
    raw_wall: float = 0.0  # timed wall time as measured
    work: int = 0  # throughput units: instances, requests or deltas
    extra: dict[str, float] = field(default_factory=dict)  # workload counters
    _slice: list[float] = field(default_factory=list)
    _slice_wall: float = 0.0

    @property
    def elapsed(self) -> float:
        """Measured timed wall time so far, the open slice included."""
        return self.raw_wall + self._slice_wall

    @property
    def throughput(self) -> float:
        return self.work / self.wall if self.wall > 0 else 0.0

    def record(self, latency: float, work: int) -> None:
        self._slice.append(latency)
        self.work += work
        if self.sequential:
            self._slice_wall += latency
            if self._slice_wall >= SLICE_S:
                self.close_slice()

    def close_slice(self, wall: float | None = None) -> None:
        """Scale the open slice; ``wall`` is its wall time unless ``sequential``."""
        wall = self._slice_wall if wall is None else wall
        if wall <= 0.0:
            return
        factor = self.speed.factor()
        self.latencies.extend(latency * factor for latency in self._slice)
        self.wall += wall * factor
        self.raw_wall += wall
        self._slice.clear()
        self._slice_wall = 0.0


@dataclass
class Outcome:
    attempted: int
    failed: int
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    note: str = ""  # one line for people reading the output


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    run: Run, phase: Phase, setup_times: list[float], rss_mb: float
) -> tuple[dict[str, tuple[float, str]], str]:
    """The end-to-end metrics and a line with the speed scaling behind them."""
    lat_ms = np.asarray(phase.latencies) * 1000.0
    metrics = {
        "throughput_per_s": (phase.throughput, "1/s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    factors = run.speed.factors
    note = (
        f"{len(phase.latencies)} operations in {len(factors)} speed measurements; scale factor "
        f"median {statistics.median(factors):.3f} (range {min(factors):.3f}-{max(factors):.3f}); "
        f"unscaled throughput {phase.work / phase.raw_wall:.4g}/s"
    )
    return metrics, note


@contextlib.contextmanager
def setup_timer(run: Run, times: list[float]) -> Iterator[None]:
    """Append the scaled seconds the body takes to ``times``."""
    run.speed.restart()
    started = time.perf_counter()
    yield
    times.append((time.perf_counter() - started) * run.speed.factor())


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


async def _call(fn: Callable[..., Any], *args: Any) -> Any:
    result = fn(*args)
    return await result if inspect.isawaitable(result) else result


async def timed(
    run: Run, go: Callable[[float], Any], snapshot: Callable[[], Any] = dict
) -> tuple[Phase, Phase | None, dict[str, float]]:
    """Run the timed phase; traced runs split it into untraced + traced halves.

    ``go(seconds)`` returns a :class:`Phase`, ``snapshot()`` a dict of
    counters; either may be a coroutine function.  Returns ``(untraced,
    traced, counters)``; ``counters`` holds what ``snapshot`` reported
    after the traced half minus before it.
    """
    if run.tracer is None:
        return await _call(go, run.seconds), None, {}
    untraced = await _call(go, run.seconds / 2)
    before = await _call(snapshot)
    run.tracer.phase = "run"
    run.tracer.enabled = True
    try:
        traced = await _call(go, run.seconds / 2)
    finally:
        run.tracer.enabled = False
    after = await _call(snapshot)
    return untraced, traced, {k: after[k] - before.get(k, 0.0) for k in after}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# layer metrics
# ---------------------------------------------------------------------------

#: Per-layer metric names, in the order they are printed.
LAYER_METRICS: dict[str, str] = {
    "canonical.calls_per_op": "calls/op",
    "canonical.busy_ms": "ms/op",
    "cache.get_busy_ms": "ms/op",
    "cache.hit_ratio": "ratio",
    "cache.put_busy_ms": "ms/op",
    "cache.disk_bytes_written": "B/op",
    "cache.warm_load_ms": "ms",
    "executor.self_ms": "ms/op",
    "kernel.calls": "calls/op",
    "kernel.busy_ms": "ms/op",
    "kernel.merges": "count/op",
    "kernel.labels_generated": "count/op",
    "kernel.labels_kept": "count/op",
    "kernel.merge_rejected": "count/op",
    "kernel.memo_hits": "count/op",
    "fanout.calls": "calls/op",
    "fanout.busy_ms": "ms/op",
    "fanout.points_verified": "count/op",
    "wire.encode_ms": "ms/op",
    "wire.decode_ms": "ms/op",
    "wire.parse_ms": "ms/op",
    "wire.bytes_per_op": "B/op",
    "router.retries": "count/op",
    "server.mean_batch_size": "count",
    "server.coalesced_joins": "count/op",
    "server.worker_latency_p50_ms": "ms",
    "server.offloop_calls_per_op": "calls/op",
    "session.tree_edit_ms": "ms/op",
    "session.advance_codes_ms": "ms/op",
    "session.solve_ms": "ms/op",
    "frontstore.reuse_ratio": "ratio",
    "frontstore.fronts_invalidated": "count/op",
    "frontstore.labels_retained": "count",
    "frontstore.resets": "count/op",
    "trace.unattributed_ms": "ms/op",
    "trace.overhead_pct": "%",
}


def layer_metrics(
    tracer: Tracer,
    untraced: Phase,
    traced: Phase,
    counters: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """Span-derived metrics of the traced half, plus workload counters.

    ``counters`` supplies what spans cannot see (cache, server and
    front-store counters, disk bytes); anything a workload does not
    exercise reads 0.
    """
    view = SpanView(tracer, "run")
    setup = SpanView(tracer, "setup")
    ops = max(1, sum(1 for s in view.spans if s[0] == "op"))
    kc = tracer.kernel_counters
    values: dict[str, float] = {
        "canonical.calls_per_op": view.count("policy.instance_key") / ops,
        "canonical.busy_ms": view.busy_ms("policy.instance_key") / ops,
        "cache.get_busy_ms": view.busy_ms("cache.get") / ops,
        "cache.put_busy_ms": view.busy_ms("cache.put") / ops,
        "cache.warm_load_ms": setup.busy_ms("cache.init") / max(1, counters.get("setups", 1)),
        "executor.self_ms": view.self_ms("executor.solve_batch") / ops,
        "kernel.calls": view.count("kernel.") / ops,
        "kernel.busy_ms": view.busy_ms("kernel.") / ops,
        "fanout.calls": view.count("policy.fan_out") / ops,
        "fanout.busy_ms": view.busy_ms("policy.fan_out") / ops,
        "fanout.points_verified": tracer.fanout_points / ops,
        "wire.encode_ms": view.busy_ms("wire.encode_line") / ops,
        "wire.decode_ms": view.busy_ms("wire.decode_line") / ops,
        "wire.parse_ms": (view.busy_ms("wire.instance_to_dict") + view.busy_ms("wire.instance_from_dict")) / ops,
        "wire.bytes_per_op": tracer.wire_bytes / ops,
        "server.offloop_calls_per_op": view.offloop_calls() / ops,
        "session.tree_edit_ms": view.busy_ms("session.apply_deltas") / ops,
        "session.advance_codes_ms": view.busy_ms("frontstore.advance_codes") / ops,
        "trace.unattributed_ms": max(0.0, traced.wall * 1000.0 - view.covered_ms()) / ops,
        "trace.overhead_pct": 100.0 * (untraced.throughput / traced.throughput - 1.0)
        if traced.throughput > 0
        else 0.0,
    }
    for key in ("merges", "labels_generated", "labels_kept", "merge_rejected", "memo_hits"):
        values[f"kernel.{key}"] = kc.get(key, 0) / ops
    values["session.solve_ms"] = values["kernel.busy_ms"] if counters.get("sessions") else 0.0
    for name in (
        "cache.hit_ratio",
        "cache.disk_bytes_written",
        "router.retries",
        "server.mean_batch_size",
        "server.coalesced_joins",
        "server.worker_latency_p50_ms",
        "frontstore.reuse_ratio",
        "frontstore.fronts_invalidated",
        "frontstore.labels_retained",
        "frontstore.resets",
    ):
        values[name] = counters.get(name, 0.0)
    for name in ("cache.disk_bytes_written", "router.retries", "server.coalesced_joins",
                 "frontstore.fronts_invalidated", "frontstore.resets"):
        values[name] /= ops
    return {name: (float(values[name]), unit) for name, unit in LAYER_METRICS.items()}


def _setup_phase(run: Run) -> None:
    if run.tracer is not None:
        run.tracer.phase = "setup"
        run.tracer.enabled = True


def _end_setup(run: Run) -> None:
    if run.tracer is not None:
        run.tracer.enabled = False
    # The inputs live for the whole run; keep them out of the cyclic
    # collector's passes so collections do not grow with the input size.
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------------
# cold_frontier
# ---------------------------------------------------------------------------


def cold_frontier(run: Run) -> Outcome:
    """Unique 60-node instances through ``solve_batch`` into a disk cache."""
    scale = run.scale
    setup_times: list[float] = []
    _setup_phase(run)
    for _ in range(scale.setup_repeats):
        with setup_timer(run, setup_times):
            cache_dir = tempfile.mkdtemp(prefix="cold-", dir=run.workdir)
            cache = ResultCache(cache_dir=cache_dir)
            pool = random_batch(scale.cold_pool, power_model=TWO_MODES, rng=run.rng(1))
    _end_setup(run)

    # Outputs are checked as they arrive, with the clock stopped, so the
    # run keeps no output beyond the few the checks below revisit.
    kept: list[tuple[BatchInstance, list[tuple[float, float]]]] = []
    cursor = 0
    op_ids = itertools.count()

    def go(seconds: float) -> Phase:
        nonlocal cursor
        phase = Phase(run.speed)
        run.speed.restart()
        while phase.elapsed < seconds and cursor + scale.cold_chunk <= len(pool):
            chunk = pool[cursor : cursor + scale.cold_chunk]
            cursor += scale.cold_chunk
            op_started = time.perf_counter()
            with run.op(next(op_ids)):
                results = batch.solve_batch(chunk, solver="power_frontier", cache=cache)
            phase.record(time.perf_counter() - op_started, len(chunk))
            for instance, frontier in zip(chunk, results):
                parents, clients = tree_data(instance.tree)
                pricing = Pricing.of(TWO_MODES, instance.effective_modal_cost(), instance.pre_modes())
                pairs = check_frontier(pricing, parents, clients, frontier.to_records())
                if len(kept) < max(scale.oracle_sample, scale.relabel_sample):
                    kept.append((instance, pairs))
        phase.close_slice()
        return phase

    def snapshot() -> dict[str, float]:
        stats = cache.stats
        return {"hits": stats.hits, "misses": stats.misses, "bytes": dir_bytes(cache_dir)}

    untraced, traced, delta = asyncio.run(timed(run, go, snapshot))
    rss = peak_rss_mb()

    # -- checks that need more than one output -----------------------------
    for instance, pairs in kept[: scale.oracle_sample]:
        expected = power_frontier_counts(
            instance.tree, TWO_MODES, instance.effective_modal_cost(), instance.pre_modes()
        )
        compare_pairs(pairs, expected)
    sources = kept[: scale.relabel_sample]
    gen = run.rng(2)
    copies = []
    for instance, _ in sources:
        tree, pre = relabel_tree(instance.tree, gen.permutation(instance.tree.n_nodes), instance.preexisting)
        copies.append(BatchInstance(tree, instance.capacity, pre, instance.cost_model, TWO_MODES))
    for (_, pairs), copy, result in zip(
        sources, copies, batch.solve_batch(copies, solver="power_frontier", cache=cache)
    ):
        parents, clients = tree_data(copy.tree)
        pricing = Pricing.of(TWO_MODES, copy.effective_modal_cost(), copy.pre_modes())
        compare_pairs(check_frontier(pricing, parents, clients, result.to_records()), pairs, exact=True)

    attempted = len(untraced.latencies) + (len(traced.latencies) if traced else 0)
    per_layer: dict[str, tuple[float, str]] = {}
    if run.tracer is not None and traced is not None:
        per_layer = layer_metrics(
            run.tracer,
            untraced,
            traced,
            {
                "setups": scale.setup_repeats,
                "cache.hit_ratio": ratio(delta["hits"], delta["hits"] + delta["misses"]),
                "cache.disk_bytes_written": delta["bytes"],
            },
        )
    metrics, note = end_to_end(run, untraced, setup_times, rss)
    return Outcome(attempted, 0, metrics, per_layer, note)


# ---------------------------------------------------------------------------
# hot_serve
# ---------------------------------------------------------------------------

SOLVERS = ("power_frontier", "min_power")


@dataclass
class Request:
    instance: BatchInstance
    solver: str
    source: int | None  # index of the base instance this one relabels


def hot_serve(run: Run) -> Outcome:
    """Closed loop of 2 connections against a 2-worker in-process cluster."""
    return asyncio.run(_hot_serve(run))


def _schedule(run: Run) -> tuple[list[BatchInstance], Callable[[int], Request]]:
    scale = run.scale
    base = random_batch(scale.hot_base, power_model=TWO_MODES, rng=run.rng(1))
    fresh = random_batch(scale.hot_fresh, power_model=TWO_MODES, rng=run.rng(2))
    gen = run.rng(3)
    copies: list[tuple[int, BatchInstance]] = []
    for _ in range(scale.hot_copies):
        src = int(gen.integers(len(base)))
        inst = base[src]
        tree, pre = relabel_tree(inst.tree, gen.permutation(inst.tree.n_nodes), inst.preexisting)
        copies.append((src, BatchInstance(tree, inst.capacity, pre, inst.cost_model, TWO_MODES)))

    def request(k: int) -> Request:
        # Every ``hot_fresh_every``-th request is an instance never seen
        # before; the rest are relabelled repeats of cached instances.
        # Both kinds alternate between the two frontier policies.
        block, slot = divmod(k, scale.hot_fresh_every)
        if slot == scale.hot_fresh_every - 1:
            # Past the fresh pool the requests repeat as cache hits.
            return Request(fresh[block % len(fresh)], SOLVERS[block % 2], None)
        src, inst = copies[(k - block) % len(copies)]
        return Request(inst, SOLVERS[k % 2], src)

    return base, request


async def _start_cluster(config: WorkerConfig) -> tuple[ClusterRouter, list[ServeClient]]:
    router = ClusterRouter(InProcessSpawner(), 2, config)
    host, port = await router.listen()
    clients = [await ServeClient.connect(host, port) for _ in range(2)]
    return router, clients


async def _stop_cluster(router: ClusterRouter, clients: list[ServeClient]) -> None:
    for client in clients:
        await client.close()
    await router.stop()


async def _hot_serve(run: Run) -> Outcome:
    scale = run.scale
    base, request = _schedule(run)
    config = WorkerConfig(cache_dir=tempfile.mkdtemp(prefix="hot-", dir=run.workdir))

    # An earlier pass of the same traffic fills the workers' disk shards.
    router, clients = await _start_cluster(config)
    try:
        prefill = await clients[0].solve_many(base, solver="power_frontier")
    finally:
        await _stop_cluster(router, clients)
    source_pairs = []
    for inst, resp in zip(base, prefill):
        parents, clients_data = tree_data(inst.tree)
        pricing = Pricing.of(TWO_MODES, inst.effective_modal_cost(), inst.pre_modes())
        source_pairs.append(check_frontier(pricing, parents, clients_data, resp["result"]["points"]))

    setup_times: list[float] = []
    _setup_phase(run)
    for rep in range(scale.hot_setup_repeats):
        with setup_timer(run, setup_times):
            router, clients = await _start_cluster(config)
        if rep < scale.hot_setup_repeats - 1:
            await _stop_cluster(router, clients)
    _end_setup(run)

    counter = itertools.count()
    # Responses are kept as compact JSON text for the checks after the
    # run, so memory does not grow with the objects of every response.
    answered: list[tuple[int, str]] = []
    failures = 0

    async def connection(client: ServeClient, phase: Phase, deadline: float) -> None:
        nonlocal failures
        while time.perf_counter() < deadline:
            k = next(counter)
            req = request(k)
            started = time.perf_counter()
            try:
                with run.op(k):
                    resp = await client.solve(req.instance, solver=req.solver)
            except ServeError:
                failures += 1
                continue
            phase.record(time.perf_counter() - started, 1)
            answered.append((k, json.dumps(resp["result"])))

    async def go(seconds: float) -> Phase:
        # Both connections stop at the end of each slice, so the speed
        # is measured while the cluster is idle.
        phase = Phase(run.speed, sequential=False)
        run.speed.restart()
        while phase.raw_wall < seconds:
            started = time.perf_counter()
            deadline = started + min(SLICE_S, seconds - phase.raw_wall)
            await asyncio.gather(*(connection(c, phase, deadline) for c in clients))
            phase.close_slice(time.perf_counter() - started)
        return phase

    async def snapshot() -> dict[str, float]:
        perf = await clients[0].perf()
        out = {"retries": perf["cluster"]["retries"], "bytes": dir_bytes(config.cache_dir)}
        for key in ("batches", "batch_instances", "coalesced_joins", "hits", "misses"):
            out[key] = 0.0
        weighted = requests = 0.0
        for worker in perf["workers"].values():
            wperf = worker["perf"]
            out["batches"] += wperf["serve"]["batches"]
            out["batch_instances"] += wperf["serve"]["batch_instances"]
            out["hits"] += wperf["cache"]["hits"]
            out["misses"] += wperf["cache"]["misses"]
            for pstats in wperf["serve"]["policies"].values():
                out["coalesced_joins"] += pstats["coalesced_joins"]
                if pstats["p50_latency"] is not None:
                    weighted += pstats["p50_latency"] * pstats["requests"]
                    requests += pstats["requests"]
        out["p50_ms"] = 1000.0 * ratio(weighted, requests)
        return out

    try:
        untraced, traced, delta = await timed(run, go, snapshot)
        if traced is not None:
            # The worker-side median is a level, not a count: take it as it stands.
            delta["p50_ms"] = (await snapshot())["p50_ms"]
        rss = peak_rss_mb()
    finally:
        await _stop_cluster(router, clients)

    # -- checks ------------------------------------------------------------
    for k, text in answered:
        req = request(k)
        inst = req.instance
        parents, clients_data = tree_data(inst.tree)
        pricing = Pricing.of(TWO_MODES, inst.effective_modal_cost(), inst.pre_modes())
        result = json.loads(text)
        if req.solver == "power_frontier":
            pairs = check_frontier(pricing, parents, clients_data, result["points"])
            if req.source is not None:
                compare_pairs(pairs, source_pairs[req.source], exact=True)
        else:
            check_point(pricing, parents, clients_data, result["cost"], result["power"], result["modes"])
            if req.source is not None:
                # min_power re-prices the point in the request's own
                # labelling, so its cost may differ from the record's
                # in the last bit: compare to the tolerance.
                compare_pairs([(result["cost"], result["power"])], source_pairs[req.source][-1:])

    attempted = len(answered) + failures
    per_layer: dict[str, tuple[float, str]] = {}
    if run.tracer is not None and traced is not None:
        per_layer = layer_metrics(
            run.tracer,
            untraced,
            traced,
            {
                "setups": scale.hot_setup_repeats,
                "cache.hit_ratio": ratio(delta["hits"], delta["hits"] + delta["misses"]),
                "cache.disk_bytes_written": delta["bytes"],
                "router.retries": delta["retries"],
                "server.mean_batch_size": ratio(delta["batch_instances"], delta["batches"]),
                "server.coalesced_joins": delta["coalesced_joins"],
                "server.worker_latency_p50_ms": delta["p50_ms"],
            },
        )
    metrics, note = end_to_end(run, untraced, setup_times, rss)
    return Outcome(attempted, failures, metrics, per_layer, note)


# ---------------------------------------------------------------------------
# live_sessions
# ---------------------------------------------------------------------------


@dataclass
class Session:
    """One live session, the benchmark's copy of its tree, and its models."""

    power_model: PowerModel
    cost_model: ModalCostModel
    pre: dict[int, int]
    copy: TreeCopy
    state: SessionState | None = None

    def open(self) -> None:
        if self.state is not None:
            self.state.close()
        self.state = SessionState(
            Tree(self.copy.parents, self.copy.clients), self.power_model, self.cost_model, self.pre
        )
        self.state.frontier()

    @property
    def max_load(self) -> int:
        return self.power_model.modes.max_capacity


@dataclass
class Step:
    """A frontier to compare with a cold solve of the copy's tree."""

    session: Session
    parents: list[int | None]
    clients: list[tuple[int, int]]
    pairs: list[tuple[float, float]]


def check_tree(state: SessionState, snap: tuple[list[int | None], list[tuple[int, int]]]) -> None:
    if not TreeCopy(*snap).matches(state.tree):
        raise CheckError("a session's tree differs from the benchmark's copy")


def random_delta(copy: TreeCopy, gen: np.random.Generator, max_load: int) -> Any:
    """One delta that keeps every node's own client load within ``max_load``.

    Under the Closest policy that is exactly the feasibility condition:
    a server on every node serves its own clients and nothing else.
    The copy is advanced by the same delta.
    """
    n = len(copy.parents)
    while True:
        kind = gen.random()
        if kind < 0.3 and copy.clients:
            index = int(gen.integers(len(copy.clients)))
            node, old = copy.clients[index]
            room = max_load - (copy.own_load(node) - old)
            requests = int(gen.integers(1, min(6, room) + 1))
            copy.set(index, requests)
            return SetRequests(index, requests)
        if kind < 0.55:
            node = int(gen.integers(n))
            room = max_load - copy.own_load(node)
            if room < 1:
                continue
            requests = int(gen.integers(1, min(6, room) + 1))
            copy.add(node, requests)
            return AddClient(node, requests)
        if kind < 0.75 and len(copy.clients) > n // 4:
            index = int(gen.integers(len(copy.clients)))
            copy.remove(index)
            return RemoveClient(index)
        if kind >= 0.75:
            node = int(gen.integers(n))
            target = int(gen.integers(n))
            if copy.parents[node] is None or target == copy.parents[node] or copy.in_subtree(target, node):
                continue
            copy.migrate(node, target)
            return MigrateSubtree(node, target)


def live_sessions(run: Run) -> Outcome:
    """Session churn, one delta at a time, in rounds that end with a probe.

    A round applies ``session_deltas`` random feasible deltas to every
    session (round robin), then probes each session: a ``SetRequests``
    beyond the largest mode, which must be rejected, followed by a
    feasible ``SetRequests`` on another client, which must succeed and
    leave the session equal to the benchmark's copy.  Each round then
    re-opens every session from the copy; the median time to open them
    all is ``setup_s``.  Only the random deltas are timed.
    """
    scale = run.scale
    gen = run.rng(1)
    sessions = []
    for n_nodes, shape, power_model in scale.sessions:
        n_modes = power_model.modes.n_modes
        tree = paper_tree(n_nodes, children_range=shape, rng=gen)
        pre = random_preexisting_modes(tree, 8, n_modes, rng=gen)
        sessions.append(Session(power_model, ModalCostModel.uniform(n_modes), pre, TreeCopy(*tree_data(tree))))

    setup_times: list[float] = []

    def open_all() -> None:
        with run.untraced(), setup_timer(run, setup_times):
            for sess in sessions:
                sess.open()

    steps: list[Step] = []
    attempted = failures = 0
    op_ids = itertools.count()
    delta_gen = run.rng(2)

    def one_round(phase: Phase) -> None:
        nonlocal attempted, failures
        plan = []
        for i in range(scale.session_deltas):
            for sess in sessions:
                delta = random_delta(sess.copy, delta_gen, sess.max_load)
                # A cold re-solve costs several deltas, so one frontier
                # per session and round is compared with one.
                sampled = i == scale.session_deltas - 1
                snap = (list(sess.copy.parents), list(sess.copy.clients)) if sampled else None
                plan.append((sess, delta, snap))
        extra = phase.extra
        run.speed.restart()
        for sess, delta, snap in plan:
            state = sess.state
            assert state is not None
            attempted += 1
            resets = state.stats.store_resets
            op_started = time.perf_counter()
            try:
                with run.op(next(op_ids)):
                    result = state.apply([delta])
            except Exception as exc:  # every planned delta is feasible
                raise CheckError(f"the feasible delta {delta} raised {exc!r}") from exc
            phase.record(time.perf_counter() - op_started, 1)
            extra["reused"] = extra.get("reused", 0) + result.fronts_reused
            extra["invalidated"] = extra.get("invalidated", 0) + result.fronts_invalidated
            extra["resets"] = extra.get("resets", 0) + state.stats.store_resets - resets
            pairs = result.frontier.pairs()
            check_pareto_order(pairs)
            if snap is not None:
                steps.append(Step(sess, *snap, pairs))
                check_tree(state, snap)
        phase.close_slice()
        with run.untraced():
            extra["labels"] = sum(
                s.state.store.snapshot()["labels_retained"] for s in sessions if s.state is not None
            )
            for sess in sessions:
                attempted += 2
                failures += probe(sess)
        open_all()

    def probe(sess: Session) -> int:
        """The two probe deltas of one session; returns how many failed."""
        state = sess.state
        assert state is not None
        # The infeasible probe: one client beyond the largest mode.
        try:
            state.apply([SetRequests(0, sess.max_load + 1)])
        except InfeasibleError:
            pass
        except Exception as exc:
            raise CheckError(f"SetRequests beyond the largest mode raised {exc!r}") from exc
        else:
            raise CheckError("SetRequests beyond the largest mode was accepted")
        # The feasible probe on another client.
        node, old = sess.copy.clients[1]
        requests = 1 if old > 1 else min(2, sess.max_load - sess.copy.own_load(node) + old)
        sess.copy.set(1, requests)
        try:
            result = state.apply([SetRequests(1, requests)])
        except InfeasibleError as exc:
            # The session-atomicity fault: the rejected request is still
            # in the session's tree, so every later solve is infeasible.
            if tree_data(state.tree)[1][0][1] != sess.max_load + 1:
                raise CheckError(f"the feasible probe was rejected: {exc}") from exc
            return 1
        except Exception as exc:
            raise CheckError(f"the feasible probe raised {exc!r}") from exc
        snap = (list(sess.copy.parents), list(sess.copy.clients))
        steps.append(Step(sess, *snap, result.frontier.pairs()))
        check_tree(state, snap)
        return 0

    def go(seconds: float) -> Phase:
        phase = Phase(run.speed)
        while phase.elapsed < seconds:
            one_round(phase)
        return phase

    open_all()
    _end_setup(run)
    untraced, traced, _ = asyncio.run(timed(run, go))
    rss = peak_rss_mb()

    # -- checks ------------------------------------------------------------
    for step in steps:
        sess = step.session
        instance = BatchInstance(
            Tree(step.parents, step.clients),
            sess.max_load,
            power_model=sess.power_model,
            modal_cost_model=sess.cost_model,
            preexisting_modes=tuple(sess.pre.items()),
        )
        cold = batch.solve_batch([instance], solver="power_frontier")[0]
        pricing = Pricing.of(sess.power_model, sess.cost_model, sess.pre)
        cold_pairs = check_frontier(pricing, step.parents, step.clients, cold.to_records())
        compare_pairs(step.pairs, cold_pairs, exact=True)
    for sess in sessions:
        assert sess.state is not None
        sess.state.close()

    per_layer: dict[str, tuple[float, str]] = {}
    if run.tracer is not None and traced is not None:
        extra = traced.extra
        per_layer = layer_metrics(
            run.tracer,
            untraced,
            traced,
            {
                "sessions": 1.0,
                "frontstore.reuse_ratio": ratio(extra["reused"], extra["reused"] + extra["invalidated"]),
                "frontstore.fronts_invalidated": extra["invalidated"],
                "frontstore.labels_retained": extra["labels"],
                "frontstore.resets": extra["resets"],
            },
        )
    metrics, note = end_to_end(run, untraced, setup_times, rss)
    return Outcome(attempted, failures, metrics, per_layer, note)


WORKLOADS: dict[str, Callable[[Run], Outcome]] = {
    "cold_frontier": cold_frontier,
    "hot_serve": hot_serve,
    "live_sessions": live_sessions,
}
