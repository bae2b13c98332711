"""Span recorder and the wrappers that put it around each layer's entry points.

The program itself carries no spans; :func:`install` wraps the public
entry points of each layer from the outside:

* the solver policies' ``instance_key`` / ``fan_out`` / ``solve`` /
  ``result_to_wire`` (``repro.batch.registry``);
* ``ResultCache.__init__`` (the disk warm-load), ``get`` and ``put``;
* ``solve_batch`` (``repro.batch.executor``);
* ``encode_line`` / ``decode_line`` (``repro.serve.protocol``) and
  ``instance_to_dict`` / ``instance_from_dict`` (``repro.batch.instance``);
* every engine in ``repro.power.kernels.KERNELS``;
* ``apply_deltas`` (``repro.dynamics.incremental``) and
  ``FrontStore.advance_codes``.

A span is ``(name, start, end, parent, op, thread, phase)``.  The parent
is the enclosing span of the same task or thread (a context variable, so
interleaved asyncio tasks do not adopt each other's spans); ``op`` is
the benchmark operation the span ran under, where that is known on the
recording side (it is not across a thread hand-off or a socket).  Spans
stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

_parent: contextvars.ContextVar[list | None] = contextvars.ContextVar("perfbench_parent", default=None)
_op: contextvars.ContextVar[int | None] = contextvars.ContextVar("perfbench_op", default=None)

# Span list layout (lists are cheaper to build than objects on the hot path).
NAME, START, END, PARENT, OP, THREAD, PHASE = range(7)


class Tracer:
    """In-memory span store with an on/off switch and a phase label."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.phase = "run"
        self.main_thread = threading.get_ident()
        self._lock = threading.Lock()
        #: Set by the kernel wrapper: summed per-solve ParetoDPStats counters.
        self.kernel_counters: dict[str, int] = {}
        self.fanout_points = 0
        self.wire_bytes = 0

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording a span named ``name``; ``after(result, args, kwargs)`` sees the result."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, _parent.get(), _op.get(), threading.get_ident(), self.phase]
            token = _parent.set(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                _parent.reset(token)
                self.spans.append(span)
            if after is not None and span[PHASE] == "run":
                with self._lock:  # fan-outs and lookups run on several threads
                    after(result, args, kwargs)
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Mark one benchmark operation; layer spans inside it carry its id."""
        if not self.enabled:
            yield
            return
        span = ["op", 0.0, 0.0, _parent.get(), op_id, threading.get_ident(), self.phase]
        op_token = _op.set(op_id)
        token = _parent.set(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            _parent.reset(token)
            _op.reset(op_token)
            self.spans.append(span)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (parents by index)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": index.get(id(s[PARENT])) if s[PARENT] is not None else None,
                            "op": s[OP],
                            "thread": s[THREAD],
                            "phase": s[PHASE],
                        }
                    )
                    + "\n"
                )


_COUNTER_KEYS = ("merges", "labels_generated", "labels_kept", "merge_rejected", "memo_hits")


def _add_counters(into: dict[str, int], counters: dict[str, Any]) -> None:
    for key in _COUNTER_KEYS:
        into[key] = into.get(key, 0) + int(counters.get(key, 0))


def _replace_everywhere(original: Callable, wrapper: Callable) -> None:
    """Rebind every ``repro`` module attribute that names ``original``.

    Modules import these functions by name, so patching only the
    defining module would miss the callers.
    """
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Put span wrappers around every traced entry point (once per process)."""
    import repro.batch.cache as cache_mod
    import repro.batch.executor as executor
    import repro.batch.instance as instance_mod
    import repro.dynamics.incremental as incremental
    import repro.serve  # noqa: F401 — load every module that imports the wire functions
    import repro.serve.protocol as protocol
    from repro.batch.registry import available_solvers, get_policy
    from repro.perf.stats import ParetoDPStats
    from repro.power.frontstore import FrontStore
    from repro.power.kernels import KERNELS

    def count_fanout(result: Any, args: Any, kwargs: Any) -> None:
        points = getattr(result, "points", None)
        tracer.fanout_points += len(points) if points is not None else 1

    for solver in available_solvers():
        policy = get_policy(solver)
        for method in ("instance_key", "fan_out", "solve", "result_to_wire"):
            after = count_fanout if method == "fan_out" else None
            setattr(policy, method, tracer.wrap(f"policy.{method}", getattr(policy, method), after))

    cache_cls = cache_mod.ResultCache
    for attr, name in (("__init__", "cache.init"), ("get", "cache.get"), ("put", "cache.put")):
        setattr(cache_cls, attr, tracer.wrap(name, getattr(cache_cls, attr)))

    def count_bytes(line: Any, args: Any, kwargs: Any) -> None:
        tracer.wire_bytes += len(line)

    for module, attr, name, after in (
        (executor, "solve_batch", "executor.solve_batch", None),
        (protocol, "encode_line", "wire.encode_line", count_bytes),
        (protocol, "decode_line", "wire.decode_line", None),
        (instance_mod, "instance_to_dict", "wire.instance_to_dict", None),
        (instance_mod, "instance_from_dict", "wire.instance_from_dict", None),
        (incremental, "apply_deltas", "session.apply_deltas", None),
    ):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, after))

    FrontStore.advance_codes = tracer.wrap("frontstore.advance_codes", FrontStore.advance_codes)

    for kernel_name, engine in list(KERNELS.items()):

        def counted(*args: Any, _engine: Callable = engine, **kwargs: Any) -> Any:
            if not (tracer.enabled and tracer.phase == "run"):
                return _engine(*args, **kwargs)
            # Sessions call the engine without a stats collector; give
            # it one so the kernel counters cover every solve.
            if kwargs.get("stats") is None:
                kwargs["stats"] = ParetoDPStats()
            result = _engine(*args, **kwargs)
            _add_counters(tracer.kernel_counters, kwargs["stats"].as_dict())
            return result

        KERNELS[kernel_name] = tracer.wrap(f"kernel.{kernel_name}", counted)


# ---------------------------------------------------------------------------
# reading the spans back
# ---------------------------------------------------------------------------


class SpanView:
    """Aggregates over the spans of one phase."""

    def __init__(self, tracer: Tracer, phase: str) -> None:
        self.spans = [s for s in tracer.spans if s[PHASE] == phase]
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                key = id(s[PARENT])
                child_time[key] = child_time.get(key, 0.0) + (s[END] - s[START])
        self._child_time = child_time
        self.main_thread = tracer.main_thread

    def named(self, prefix: str) -> list[list]:
        return [s for s in self.spans if s[NAME].startswith(prefix)]

    def busy_ms(self, prefix: str) -> float:
        return 1000.0 * sum(s[END] - s[START] for s in self.named(prefix))

    def self_ms(self, prefix: str) -> float:
        return 1000.0 * sum(
            (s[END] - s[START]) - self._child_time.get(id(s), 0.0) for s in self.named(prefix)
        )

    def count(self, prefix: str) -> int:
        return len(self.named(prefix))

    def offloop_calls(self) -> int:
        return sum(1 for s in self.spans if s[NAME] != "op" and s[THREAD] != self.main_thread)

    def covered_ms(self) -> float:
        """Wall time during which at least one layer span was running."""
        intervals = sorted((s[START], s[END]) for s in self.spans if s[NAME] != "op")
        total = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        return 1000.0 * total
