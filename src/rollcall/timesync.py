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
        return tuple.__new__(cls, (t1, t2, t3, t4))


class ClockEstimate(_Checked, namedtuple("ClockEstimate", "offset_ms delay_ms samples_used")):
    """A clock-offset estimate: the offset to add to the local clock to get
    counter time, the round-trip delay of the sample it came from, and how
    many samples were accepted. A named tuple checked in `__new__`: the
    delay is non-negative and at least one sample was used. `best_estimate`
    guarantees both by its arithmetic and skips the checks."""

    __slots__ = ()

    def __new__(cls, offset_ms: int, delay_ms: int, samples_used: int) -> "ClockEstimate":
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        if samples_used < 1:
            raise ValueError("an estimate requires at least one sample")
        return tuple.__new__(cls, (offset_ms, delay_ms, samples_used))

    def counter_now(self, local_now_ms: int) -> int:
        return local_now_ms + self.offset_ms


def best_estimate(samples: Iterable[SyncSample]) -> ClockEstimate:
    """Minimum-delay estimate: the least (delay, offset) over the samples
    whose round-trip delay (t4-t1)-(t3-t2) is non-negative, where the offset
    ((t2-t1)+(t3-t4))/2 rounds toward zero, and how many such samples there are.

    A negative delay happens when a clock stepped mid-exchange; such a sample
    is skipped. Raises ClockSyncError when no sample is left.
    """
    best: tuple[int, int] | None = None
    used = 0
    for t1, t2, t3, t4 in samples:
        delay = (t4 - t1) - (t3 - t2)
        if delay < 0:
            continue
        used += 1
        twice = (t2 - t1) + (t3 - t4)
        candidate = delay, (twice // 2 if twice >= 0 else -(-twice // 2))
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise ClockSyncError("no sync sample with a non-negative round-trip delay (clock stepped?)")
    delay, offset = best
    # the delay is non-negative and a sample was used: `ClockEstimate`'s checks hold
    return tuple.__new__(ClockEstimate, (offset, delay, used))


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
