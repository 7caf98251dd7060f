"""Shared fakes: deterministic clock and in-process counter transport."""

from __future__ import annotations

import pytest

from rollcall.counter import CounterCore
from rollcall.client import TransportError
from rollcall.protocol import ExperimentConfig, Message, Report, decode_message, encode_message


class FakeClock:
    """Virtual local clock; sleeping advances time instantly."""

    def __init__(self, start_ms: int = 0) -> None:
        self.t = start_ms
        self.sleeps: list[int] = []

    def now_ms(self) -> int:
        return self.t

    def sleep_ms(self, duration_ms: int) -> None:
        self.sleeps.append(duration_ms)
        if duration_ms > 0:
            self.t += duration_ms


class LoopbackTransport:
    """Feeds lines straight into a CounterCore; arrival is the clock reading.

    `drop` gets each outgoing line and may return True to raise a transport
    error before the counter sees it (simulating a lost request).
    """

    def __init__(self, core: CounterCore, clock: FakeClock, drop=None) -> None:
        self.core = core
        self.clock = clock
        self.drop = drop
        self.requests: list[str] = []

    def request(self, line: str) -> str:
        self.requests.append(line)
        if self.drop is not None and self.drop(line):
            raise TransportError("injected network failure")
        return self.core.handle_line(line, self.clock.now_ms())


def submit(core: CounterCore, report: Report, arrival_ms: int) -> Message:
    """The answer `core` gives `report` on the wire, decoded."""
    return decode_message(core.handle_line(encode_message(report), arrival_ms))


def make_config(
    n_rounds: int = 3,
    epoch_ms: int = 1_000_000,
    delta_t_ms: int = 100_000,
    delta_tau_ms: int = 10_000,
    grace_ms: int = 5_000,
    secret: str = "test-secret",
) -> ExperimentConfig:
    return ExperimentConfig(
        experiment_id="unit",
        secret=secret,
        epoch_ms=epoch_ms,
        delta_t_ms=delta_t_ms,
        n_rounds=n_rounds,
        delta_tau_ms=delta_tau_ms,
        t_star_ms=epoch_ms + n_rounds * delta_t_ms,
        grace_ms=grace_ms,
    )


@pytest.fixture
def config() -> ExperimentConfig:
    return make_config()
