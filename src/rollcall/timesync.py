"""Clock-offset estimation against the counter.

A four-timestamp exchange (client send, server receive, server send, client
receive) yields an offset and round-trip delay exactly as in SNTP. Only
relative alignment to the counter matters, so the counter itself answers the
sync requests and no stratum or drift handling is needed. Offsets from the
lowest-delay exchange are the least disturbed by queueing, hence
minimum-delay filtering over the samples of one sync.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Protocol

from .protocol import _Checked


class ClockSyncError(RuntimeError):
    """No usable sync sample is available."""


class SyncSample(_Checked, namedtuple("SyncSample", "t1 t2 t3 t4")):
    """One four-timestamp exchange, all in integer milliseconds: client send
    (t1) and receive (t4) on the client clock, server receive (t2) and send
    (t3) on the server clock. A named tuple checked in `__new__`."""

    __slots__ = ()

    def __new__(cls, t1: int, t2: int, t3: int, t4: int) -> "SyncSample":
        if t4 < t1:
            raise ValueError("client receive time precedes send time")
        if t3 < t2:
            raise ValueError("server send time precedes receive time")
        return super().__new__(cls, t1, t2, t3, t4)


@dataclass(frozen=True)
class ClockEstimate:
    offset_ms: int  # add to the local clock to get counter time
    delay_ms: int
    samples_used: int

    def __post_init__(self) -> None:
        if self.delay_ms < 0:
            raise ValueError("delay must be non-negative")
        if self.samples_used < 1:
            raise ValueError("an estimate requires at least one sample")

    def counter_now(self, local_now_ms: int) -> int:
        return local_now_ms + self.offset_ms


def _half_toward_zero(value: int) -> int:
    return value // 2 if value >= 0 else -((-value) // 2)


def estimate(sample: SyncSample) -> tuple[int, int]:
    """Offset/delay of one sample: ((t2-t1)+(t3-t4))/2 and (t4-t1)-(t3-t2).

    The division rounds toward zero. Raises ClockSyncError when the computed
    delay is negative, which happens when a clock stepped mid-exchange.
    """
    offset = _half_toward_zero((sample.t2 - sample.t1) + (sample.t3 - sample.t4))
    delay = (sample.t4 - sample.t1) - (sample.t3 - sample.t2)
    if delay < 0:
        raise ClockSyncError(f"negative round-trip delay {delay} (clock stepped?)")
    return offset, delay


def best_estimate(samples: Iterable[SyncSample]) -> ClockEstimate:
    """Minimum-delay estimate over all accepted samples."""
    accepted: list[tuple[int, int]] = []
    for sample in samples:
        try:
            offset, delay = estimate(sample)
        except ClockSyncError:
            continue
        accepted.append((delay, offset))
    if not accepted:
        raise ClockSyncError("no accepted sync samples")
    delay, offset = min(accepted)
    return ClockEstimate(offset_ms=offset, delay_ms=delay, samples_used=len(accepted))


class Clock(Protocol):
    """Local time source; injected so schedules are testable."""

    def now_ms(self) -> int: ...

    def sleep_ms(self, duration_ms: int) -> None: ...


class SystemClock:
    """Wall-clock milliseconds backed by time.time/time.sleep."""

    def now_ms(self) -> int:
        return int(time.time() * 1000)

    def sleep_ms(self, duration_ms: int) -> None:
        if duration_ms > 0:
            time.sleep(duration_ms / 1000.0)


def wait_until(target_counter_ms: int, est: ClockEstimate, clock: Clock) -> None:
    """Block until the estimated counter clock reaches `target_counter_ms`.

    Never fires early relative to the estimate; a target in the past returns
    immediately.
    """
    while True:
        remaining = target_counter_ms - est.counter_now(clock.now_ms())
        if remaining <= 0:
            return
        clock.sleep_ms(remaining)
