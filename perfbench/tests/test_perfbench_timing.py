"""Speed scaling of the timed phase (``perfbench.workloads.Phase``)."""

from __future__ import annotations

import pytest

from perfbench.workloads import SLICE_S, Phase


class FixedSpeed:
    """A machine that always runs at half the reference speed."""

    def __init__(self) -> None:
        self.calls = 0

    def factor(self) -> float:
        self.calls += 1
        return 0.5


def test_sequential_slices_close_by_themselves():
    speed = FixedSpeed()
    phase = Phase(speed)  # type: ignore[arg-type]
    per_slice = 4
    latency = SLICE_S / per_slice
    for _ in range(2 * per_slice + 1):
        phase.record(latency, 3)
    assert speed.calls == 2  # the last operation is still in the open slice
    phase.close_slice()
    assert speed.calls == 3
    assert phase.raw_wall == pytest.approx((2 * per_slice + 1) * latency)
    assert phase.wall == pytest.approx(phase.raw_wall * 0.5)
    assert phase.latencies == pytest.approx([latency * 0.5] * (2 * per_slice + 1))
    assert phase.throughput == pytest.approx(phase.work / phase.wall)
    assert phase.work == 3 * (2 * per_slice + 1)


def test_concurrent_slices_take_the_callers_wall_time():
    speed = FixedSpeed()
    phase = Phase(speed, sequential=False)  # type: ignore[arg-type]
    for latency in (0.2, 0.3, 0.25):
        phase.record(latency, 1)
    assert speed.calls == 0
    assert phase.elapsed == 0.0
    phase.close_slice(0.4)
    assert phase.raw_wall == pytest.approx(0.4)
    assert phase.wall == pytest.approx(0.2)
    assert phase.latencies == pytest.approx([0.1, 0.15, 0.125])
    phase.close_slice(0.0)  # an empty slice takes no measurement
    assert speed.calls == 1
