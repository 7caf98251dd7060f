"""Deterministic discrete-event simulation of a whole experiment.

A virtual millisecond clock drives M scripted clients, one in-process counter
(the real tally code), and a virtual network with uniform latency, optional
loss, per-direction asymmetry and fault injection. Clients synchronize their
clocks through real SYNC exchanges, derive real tokens, and judge every
answer with the live client's own functions (`report_step`, and
`sync_sample`, which takes an answer's line or its value), so the simulation
validates the end-to-end protocol and measures the decision rule. A traced
run is the text reference: every request and answer crosses the net as its
wire line and is decoded where it lands. An untraced run passes messages as
values wherever no output reads the text, and formats only the lines
something reads: its SYNC requests carry no text at all. Values whose fields
are known to be valid (a SYNC exchange's messages and sample, a REPORT cut
from a checked one) are built with `tuple.__new__`, skipping checks that
could not fail.

Coping is modeled purely as participation suppression: at the execution round
a COPING scenario multiplies the participation probability by (1 - delta).
Nothing else differs from DEFENSE, which makes delta the only observable the
statistics can see. Every run is reproducible bit for bit from (spec, seed):
per-client RNG substreams are derived from (seed, client index), so changing
M never reshuffles existing clients.
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import stats
from .client import UptimeRecord, certify_shutdown, report_step, sync_sample
from .counter import CounterCore
from .protocol import (
    ExperimentConfig,
    Report,
    RoundRef,
    SyncRequest,
    SyncResponse,
    derive_token,
    encode_message,
)
from .stats import COPING, DEFENSE
from .timesync import ClockSyncError, SyncSample, best_estimate

_NET_STREAM_TAG = 0x6E6574  # distinct substream domain for the network
# `report_step`'s process-wide answer cache, bound here so that it is still
# the one emptied when `report_step` is patched or wrapped
_clear_answer_cache = report_step.cache_clear
SHUTDOWN_SLACK_MS = 500  # simulated uptime records cover the shutdown window plus this each side


@dataclass(frozen=True)
class NetModel:
    min_latency_ms: int = 5
    max_latency_ms: int = 50
    loss_prob: float = 0.0
    asym_up_ms: int = 0  # extra one-way delay on the client-to-counter leg

    def __post_init__(self) -> None:
        if not 0 <= self.min_latency_ms <= self.max_latency_ms:
            raise ValueError("latency bounds must satisfy 0 <= min <= max")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must lie in [0, 1)")
        if self.asym_up_ms < 0:
            raise ValueError("asym_up_ms must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    duplicate_reports: bool = False
    loss_burst: tuple[int, int] | None = None  # drop every send in [start, end]
    clock_offsets: tuple[tuple[int, int], ...] = ()  # (client index, true offset ms)
    unsynced: frozenset[int] = frozenset()  # clients that skip sync and assume offset 0


@dataclass(frozen=True)
class ScenarioSpec:
    m_clients: int
    p_participate: float
    delta: float
    scenario: str
    seed: int
    config: ExperimentConfig
    net: NetModel = NetModel()
    faults: FaultPlan = FaultPlan()
    sync_samples: int = 2
    send_margin_ms: int = 30
    send_jitter_ms: int = 40
    retry_ms: int = 250

    def __post_init__(self) -> None:
        if self.m_clients < 1:
            raise ValueError("m_clients must be at least 1")
        if not 0.0 <= self.p_participate <= 1.0:
            raise ValueError("p_participate must lie in [0, 1]")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if self.scenario not in (DEFENSE, COPING):
            raise ValueError(f"scenario must be {DEFENSE} or {COPING}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.send_jitter_ms < 0:
            raise ValueError("send_jitter_ms must be non-negative")
        if self.retry_ms < 1:
            raise ValueError("retry_ms must be at least 1")

    @property
    def execution_probability(self) -> float:
        if self.scenario == COPING:
            return self.p_participate * (1.0 - self.delta)
        return self.p_participate


def default_sim_config(
    n_rounds: int = 10,
    delta_tau_ms: int = 2_000,
    delta_t_ms: int = 10_000,
    grace_ms: int = 2_000,
) -> ExperimentConfig:
    """Desk-scale schedule on the virtual clock (epoch 0, compressed windows)."""
    return ExperimentConfig(
        experiment_id="sim",
        secret="sim-secret",
        epoch_ms=0,
        delta_t_ms=delta_t_ms,
        n_rounds=n_rounds,
        delta_tau_ms=delta_tau_ms,
        t_star_ms=n_rounds * delta_t_ms,
        grace_ms=grace_ms,
    )


@dataclass
class SimOutcome:
    counts: list[int]
    n_star: int
    analysis: stats.AnalysisResult | None
    event_trace: list[str]
    counter_log: list[str]
    sync_offsets: dict[int, int] = field(default_factory=dict)


class EventLoop:
    """Time-ordered callback queue; ties break by insertion order.

    An event is a callable and its arguments, never a fresh closure. A heap
    holds each distinct virtual millisecond once, and a dict maps it to its
    events in insertion order: one heap push and pop per millisecond instead of
    one per event. An event at or before `now` joins the running millisecond.
    """

    def __init__(self) -> None:
        self.now = 0
        self._times: list[int] = []
        self._due: dict[int, list[tuple[Callable[..., None], tuple]]] = {}

    def schedule(self, at_ms: int, fn: Callable[..., None], *args: object) -> None:
        if at_ms < self.now:
            at_ms = self.now
        bucket = self._due.get(at_ms)
        if bucket is None:
            self._due[at_ms] = [(fn, args)]
            heapq.heappush(self._times, at_ms)
        else:
            bucket.append((fn, args))

    def run(self) -> None:
        while self._times:
            self.now = at = heapq.heappop(self._times)
            for fn, args in self._due[at]:  # also runs what the bucket's events append
                fn(*args)
            del self._due[at]


class VirtualNet:
    """Latency/loss model between all clients and the counter.

    Every request carries the message it encodes, and its line where
    anything reads it. A REPORT is known by its `Report`, and only REPORTs
    are duplicated. A hop costs only what the run asks of it: without a
    trace no trace line is formatted, a reply calls its client back
    directly, a REPORT reaches the counter with its `Report`, so the counter
    does not decode it again, and a SYNC, sent without a line, is answered
    by `CounterCore.answer_sync` with a `SyncResponse` value that its client
    reads without any text; with a trace the counter decodes every line and
    answers with a line, which the client decodes, and that run is the
    reference. A net that cannot drop (no loss probability, no loss burst)
    never asks `_lost`, the one drop decision, whose buffer holds loss draws
    already compared with the loss probability (all `False`, with nothing
    drawn, when it is 0).

    Each round has one chain of sends. On a net that gives each send exactly
    one answer (`one_answer`: it cannot drop and does not duplicate) the
    answer follows a send up and starts the retry; on any other net the
    send's poll does, and an answer only settles its round. One rule
    decides which REPORT answers become events:
    - An untraced run where every answer of a send lands before its poll
      (`hands_answers`): a one-answer net, which runs no poll, or one where
      even the worst round trip, `2 * max_latency_ms + asym_up_ms`, is
      shorter than the poll delay (`retry_ms` above `asym_up_ms`).
      `_deliver` judges each answer with `report_step`. On a one-answer net
      only one that settles nothing is an `_on_answer` event; elsewhere one
      that settles its round settles it at once and any other is ignored.
      Only the latest send's answers are in flight, and they all land
      before its poll reads the round.
    - Otherwise, and on every traced run, every answer is an event
      (`_reply` when traced).
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: np.random.Generator,
        net: NetModel,
        faults: FaultPlan,
        counter: CounterCore,
        trace: list[str] | None,
        poll_ms: int,
    ) -> None:
        self.loop = loop
        self.rng = rng
        self.net = net
        self.counter = counter
        self.trace = trace
        self.can_drop = net.loss_prob > 0.0 or faults.loss_burst is not None
        self.duplicates = faults.duplicate_reports
        self.one_answer = not (self.can_drop or self.duplicates)
        self.hands_answers = trace is None and (
            self.one_answer or 2 * net.max_latency_ms + net.asym_up_ms < poll_ms
        )
        self.asym_up_ms = net.asym_up_ms
        start, end = faults.loss_burst or (0, -1)
        self._burst = range(start, end + 1)  # the virtual times it drops every send
        self._lat_buf: list[int] = []
        self._loss_buf: list[bool] = []

    _BUF = 8192

    def _latencies(self) -> list[int]:
        """A full buffer of one-way latencies to pop from; a fixed latency draws nothing."""
        low, high = self.net.min_latency_ms, self.net.max_latency_ms
        if low == high:
            self._lat_buf = [low] * self._BUF
        else:
            self._lat_buf = self.rng.integers(low, high + 1, size=self._BUF).tolist()
        return self._lat_buf

    def _losses(self) -> list[bool]:
        """A full buffer of loss decisions to pop from; no loss probability draws nothing."""
        loss_prob = self.net.loss_prob
        if loss_prob == 0.0:
            self._loss_buf = [False] * self._BUF
        else:
            self._loss_buf = (self.rng.random(size=self._BUF) < loss_prob).tolist()
        return self._loss_buf

    def _lost(self, at_ms: int) -> bool:
        if at_ms in self._burst:
            return True
        return (self._loss_buf or self._losses()).pop()

    def request(
        self,
        line: str,
        client: "SimClient",
        on_response: Callable[..., None],
        *ctx: object,
        msg: Report | SyncRequest,
    ) -> None:
        """One exchange from `client` to the counter; `on_response(response, *ctx)`
        runs if answered.

        `msg` is `line` decoded; an untraced SYNC's line is empty, since only a
        trace would read it. An untraced delivery hands `msg` to the counter,
        and `response` is then the `SyncResponse` value for a SYNC and the
        answer line for anything else; a traced one lets the counter decode,
        and `response` is always the answer line.
        """
        now, trace = self.loop.now, self.trace
        if trace is not None:
            trace.append(f"{now} SEND {line}")
        copies = 2 if self.duplicates and type(msg) is Report else 1
        for _ in range(copies):
            if self.can_drop and self._lost(now):
                if trace is not None:
                    trace.append(f"{now} DROP {line}")
                continue
            up = (self._lat_buf or self._latencies()).pop() + self.asym_up_ms
            self.loop.schedule(now + up, self._deliver, line, client, on_response, ctx, msg)

    def _deliver(
        self,
        line: str,
        client: "SimClient",
        on_response: Callable[..., None],
        ctx: tuple,
        msg: Report | SyncRequest,
    ) -> None:
        now, trace = self.loop.now, self.trace
        response: str | SyncResponse
        if trace is not None:
            trace.append(f"{now} DELIVER {line}")
            response = self.counter.handle_line(line, now)
        elif type(msg) is SyncRequest:
            response = self.counter.answer_sync(msg, now)
        else:
            response = self.counter.handle_line(line, now, None, msg)
        if self.can_drop and self._lost(now):
            if trace is not None:
                trace.append(f"{now} DROP-REPLY {response}")
            return
        at = now + (self._lat_buf or self._latencies()).pop()
        if trace is not None:
            self.loop.schedule(at, self._reply, response, on_response, ctx)
        elif self.hands_answers and type(msg) is Report:
            if report_step(response) is not None:
                if not self.one_answer:
                    client._settled.add(ctx[0].column)
            elif self.one_answer:
                self.loop.schedule(at, on_response, response, *ctx)
        else:
            self.loop.schedule(at, on_response, response, *ctx)

    def _reply(self, response: str, on_response: Callable[..., None], ctx: tuple) -> None:
        self.trace.append(f"{self.loop.now} REPLY {response}")  # type: ignore[union-attr]
        on_response(response, *ctx)


# numpy's SeedSequence constants (O'Neill's seed_seq design, pool of 4 words)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words of a non-negative int, [0] for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _stream_words(seed: int, count: int, k: int) -> np.ndarray:
    """A (count, k) uint32 matrix whose row i equals
    `np.random.SeedSequence((seed, i)).generate_state(k, np.uint32)`.

    numpy's `hashmix`, `mix` and `generate_state` in uint32 arithmetic, one
    array operation for all clients at once. Each index below 2**32 is one
    entropy word after the words of `seed`, so every row hashes alike.
    """
    entropy = [np.full(count, word, np.uint32) for word in _uint32_words(seed)]
    entropy.append(np.arange(count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zeros = np.zeros(count, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    consts = [_INIT_B]
    for _ in range(k):
        consts.append(consts[-1] * _MULT_B & _MASK32)
    state = np.stack(pool, axis=1)[:, np.arange(k) % _POOL_SIZE]
    state ^= np.array(consts[:-1], np.uint32)
    state *= np.array(consts[1:], np.uint32)
    return state ^ (state >> 16)


def _client_draws(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every client's participation flags and send jitters, a row per client
    and a column per round with the execution round last, from hashed words
    of (seed, index): per-client substreams, so growing M never reshuffles
    the decisions of existing clients."""
    n = spec.config.n_rounds
    words = _stream_words(spec.seed, spec.m_clients, 2 * (n + 1))
    thresholds = np.full(n + 1, spec.p_participate)
    thresholds[n] = spec.execution_probability
    participates = words[:, : n + 1] * (1.0 / 2**32) < thresholds
    return participates, words[:, n + 1 :] % (spec.send_jitter_ms + 1)


class _RoundPlan(NamedTuple):
    """A round's draw column, window in counter time and REPORT line `head nonce token`."""

    round: RoundRef
    column: int
    window_open: int
    window_close: int
    head: str
    token: str


def _round_plans(config: ExperimentConfig) -> Iterator[_RoundPlan]:
    """Every round in draw-column order; REPORT parts are cut from a real Report."""
    for column, round in enumerate(config.rounds()):
        report = Report(round, "sim-nonce", derive_token(config.secret, round))
        head, _nonce, token = encode_message(report).rsplit(" ", 2)
        window = config.window_open(round), config.window_close(round)
        yield _RoundPlan(round, column, *window, head, token)


class SimClient:
    """One scripted participant walking the real round lifecycle."""

    def __init__(
        self, sim: "Simulation", index: int, participates: list[bool], send_at: list[int]
    ) -> None:
        self.sim = sim
        self.index = index
        self.nonce = f"sim-{index:08d}"
        spec = sim.spec
        # per round: whether it reports, and at what estimated counter time
        self.participates, self.send_at = participates, send_at
        self.true_offset = sim.clock_offsets.get(index, 0)  # add to local clock for counter time
        synced = index not in spec.faults.unsynced and spec.sync_samples > 0
        self.offset_est: int | None = None if synced else 0
        self._sync_samples: list[SyncSample] = []
        self._sync_attempts = 0
        self._settled: set[int] = set()  # columns of rounds acknowledged or given up
        # the true offset less the estimated one, once synced: the virtual time
        # at which the client thinks counter time t has come is t + skew
        self.skew = 0

    # sync -------------------------------------------------------------------

    def start(self) -> None:
        if self.offset_est is not None:
            self._schedule_rounds()
        else:
            self._sync_once()

    def _sync_once(self) -> None:
        self._sync_attempts += 1
        sim = self.sim
        t1 = sim.loop.now - self.true_offset  # on the local clock
        expected = len(self._sync_samples)
        # only a trace reads the line; `SyncRequest` has no checks to skip
        line = f"SYNC {t1}" if sim.trace is not None else ""
        request = tuple.__new__(SyncRequest, (t1,))
        sim.net.request(line, self, self._on_sync_answer, t1, expected, msg=request)
        if sim.net.can_drop:  # else the response always arrives and drives the next step
            sim.loop.schedule(sim.loop.now + sim.sync_timeout_ms, self._on_sync_timeout, expected)

    def _on_sync_answer(self, answer: str | SyncResponse, t1: int, expected: int) -> None:
        """Take the counter's answer: its line on a traced run, else its value."""
        if len(self._sync_samples) != expected or self.offset_est is not None:
            return  # a retry already completed this exchange
        sample = sync_sample(answer, t1, self.sim.loop.now - self.true_offset)
        if sample is None:
            return
        self._sync_samples.append(sample)
        if len(self._sync_samples) < self.sim.spec.sync_samples:
            self._sync_once()
        else:
            self._finish_sync()

    def _on_sync_timeout(self, expected: int) -> None:
        if self.offset_est is not None or len(self._sync_samples) != expected:
            return
        if self._sync_attempts < len(self._sync_samples) + 8:
            self._sync_once()
        else:
            self._finish_sync()  # give up on further exchanges

    def _finish_sync(self) -> None:
        """Estimate the offset from the samples in hand, or fly blind at 0."""
        try:
            self.offset_est = best_estimate(self._sync_samples).offset_ms
        except ClockSyncError:
            self.offset_est = 0  # fly blind rather than drop out
        self.sim.sync_offsets[self.index] = self.offset_est
        self._schedule_rounds()

    # rounds ------------------------------------------------------------------

    def _schedule_rounds(self) -> None:
        assert self.offset_est is not None
        self.skew = skew = self.true_offset - self.offset_est
        sim, participates = self.sim, self.participates
        # the execution round, last, is reported only by a client that certifies its shutdown
        if participates[-1] and not sim._shutdown_certified(skew):
            participates = participates[:-1]
        schedule, try_send = sim.loop.schedule, self._try_send
        for plan, send_at in compress(zip(sim.plans, self.send_at), participates):
            schedule(send_at + skew, try_send, plan)

    def _try_send(self, plan: _RoundPlan) -> None:
        if plan.column in self._settled:
            return
        if self.sim.loop.now - self.skew > plan.window_close:  # by its estimate of counter time
            self._settled.add(plan.column)
            return
        sim = self.sim
        # the nonce is valid by its format (8+ non-space characters) and the
        # token was cut from a real Report, so the message skips the checks,
        # as the decoder's do
        report = tuple.__new__(Report, (plan.round, self.nonce, plan.token))
        line = f"{plan.head} {self.nonce} {plan.token}"
        sim.net.request(line, self, self._on_answer, plan, msg=report)
        if not sim.net.one_answer:
            # a lost request or reply never answers, and a duplicate answers
            # twice: the poll is this send's only follow-up, until the window closes
            sim.loop.schedule(sim.loop.now + sim.poll_ms, self._try_send, plan)

    def _on_answer(self, response: str, plan: _RoundPlan) -> None:
        """Judge a REPORT answer as it lands: settle its round, or retry on a
        one-answer net. A polled send's poll is its only follow-up, so there
        an answer that settles nothing is ignored.

        Called for the answers that `VirtualNet`'s rule makes events: where
        it hands answers, on a one-answer net those that settle nothing and
        elsewhere none; otherwise every answer.
        """
        if report_step(response) is not None:
            self._settled.add(plan.column)
        elif self.sim.net.one_answer:
            self.sim.loop.schedule(self.sim.loop.now + self.sim.spec.retry_ms, self._try_send, plan)


class Simulation:
    def __init__(self, spec: ScenarioSpec, capture_trace: bool = True) -> None:
        self.spec = spec
        _clear_answer_cache()  # a run decodes its own answers, whatever ran before it
        self.loop = EventLoop()
        self.trace: list[str] | None = [] if capture_trace else None
        self.counter = CounterCore(spec.config)
        self.plans = list(_round_plans(spec.config))
        self.sync_offsets: dict[int, int] = {}
        # the client timers: on a net that drops or duplicates, a REPORT send
        # polls retry_ms after the longest round trip without asymmetry, and
        # on one that can drop a SYNC times out 50 ms later
        self.poll_ms = spec.retry_ms + 2 * spec.net.max_latency_ms
        self.sync_timeout_ms = self.poll_ms + 50
        self._certified: dict[int, bool] = {}  # `certify_shutdown` per clock skew
        # each client's true clock offset; reversed, so the first entry for an index wins
        self.clock_offsets = dict(reversed(spec.faults.clock_offsets))
        net_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((spec.seed, _NET_STREAM_TAG)))
        )
        self.net = VirtualNet(
            self.loop, net_rng, spec.net, spec.faults, self.counter, self.trace, self.poll_ms
        )
        # window closes strictly increase and each close event is the first of
        # its millisecond, so each closes its own round and only that one
        for plan in self.plans:
            close_at = plan.window_close + 1
            self.loop.schedule(close_at, self.counter.close_due, close_at)

    def _shutdown_certified(self, skew: int) -> bool:
        """Whether a client whose clock runs `skew` ms off certifies its shutdown.

        Its simulated uptime records cover the shutdown window, read on its
        own clock, plus SHUTDOWN_SLACK_MS each side; the answer depends only
        on the skew, so it is computed once per distinct skew.
        """
        certified = self._certified.get(skew)
        if certified is None:
            config = self.spec.config
            down_at = config.t_star_ms + skew - SHUTDOWN_SLACK_MS
            up_at = config.t_star_ms + config.delta_tau_ms + skew + SHUTDOWN_SLACK_MS
            records = [UptimeRecord("DOWN", down_at), UptimeRecord("UP", up_at)]
            certified = self._certified[skew] = certify_shutdown(records, config)
        return certified

    def run(self) -> tuple[list[int], int]:
        """Start every client and run the event loop to the end.

        The cyclic collector is paused meanwhile, and restored as it was found:
        a run makes no reference cycles, so each collection would only walk
        its live objects and free nothing.
        """
        participates, jitter = _client_draws(self.spec)
        margin = self.spec.send_margin_ms
        opens = np.array([plan.window_open + margin for plan in self.plans], np.int64)
        rows = zip(participates.tolist(), (jitter + opens).tolist())
        enabled = gc.isenabled()
        gc.disable()
        try:
            for index, row in enumerate(rows):
                SimClient(self, index, *row).start()
            self.loop.run()
        finally:
            if enabled:
                gc.enable()
        counts, n_star = self.counter.distribution()
        assert n_star is not None  # the close event for the execution round always ran
        return counts, n_star


def _analysis(counts: list[int], n_star: int, alpha: float) -> stats.AnalysisResult | None:
    try:
        return stats.analyze(stats.summarize(counts), n_star, alpha)
    except stats.DegenerateCalibrationError:
        return None  # no usable calibration spread; the verdict is undefined


def run_scenario(
    spec: ScenarioSpec, alpha: float = stats.DEFAULT_ALPHA, capture_trace: bool = True
) -> SimOutcome:
    """Simulate one full experiment and analyze it with the real decision rule."""
    stats._check_alpha(alpha)  # also when the counts leave no verdict to take
    sim = Simulation(spec, capture_trace=capture_trace)
    counts, n_star = sim.run()
    return SimOutcome(
        counts=counts,
        n_star=n_star,
        analysis=_analysis(counts, n_star, alpha),
        event_trace=sim.trace if sim.trace is not None else [],
        counter_log=sim.counter.log.lines,
        sync_offsets=sim.sync_offsets,
    )


@dataclass(frozen=True)
class BatchResult:
    runs: int
    detections: int
    detection_rate: float
    mean_z: float
    zs: tuple[float, ...]


def _child_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(2, np.uint64)[0]) for child in children]


def _counts_are_draws(spec: ScenarioSpec) -> bool:
    """Whether a run surely counts every drawn report, so that its counts are
    the column sums of the draws: nothing lost or faulted, one sync's worst
    offset error inside the shutdown slack, every first arrival inside its
    window, and every sync over before the first window opens and any send."""
    net, margin = spec.net, spec.send_margin_ms
    error = (net.max_latency_ms - net.min_latency_ms + net.asym_up_ms + 1) // 2
    earliest = margin - error + net.min_latency_ms + net.asym_up_ms  # from window open
    latest = margin + spec.send_jitter_ms + error + net.max_latency_ms + net.asym_up_ms
    synced_by = spec.sync_samples * (2 * net.max_latency_ms + net.asym_up_ms)
    first_send = spec.config.window_open(RoundRef.cal(0)) + min(0, margin - error)
    return (net.loss_prob == 0.0 and spec.faults == FaultPlan() and error <= SHUTDOWN_SLACK_MS
            and 0 <= earliest and latest <= spec.config.grace_ms and synced_by <= first_send)


def _draw_counts(spec: ScenarioSpec) -> tuple[list[int], int]:
    *counts, n_star = _client_draws(spec)[0].sum(axis=0).tolist()
    return counts, n_star


def monte_carlo(spec: ScenarioSpec, runs: int, alpha: float = stats.DEFAULT_ALPHA) -> BatchResult:
    """Independent replications of a scenario with derived per-run seeds.

    Where `_counts_are_draws` holds, each run's counts are summed from its
    clients' draws; elsewhere each run is simulated event by event.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    stats._check_alpha(alpha)
    drawn = _counts_are_draws(spec)
    detections = 0
    zs: list[float] = []
    for child in _child_seeds(spec.seed, runs):
        run = replace(spec, seed=child)
        counts, n_star = _draw_counts(run) if drawn else Simulation(run, capture_trace=False).run()
        analysis = _analysis(counts, n_star, alpha)
        if analysis is not None:
            zs.append(analysis.z)
            detections += analysis.verdict == stats.COPING_EVIDENCE
    mean_z = float(np.mean(zs)) if zs else float("nan")
    return BatchResult(
        runs=runs,
        detections=detections,
        detection_rate=detections / runs,
        mean_z=mean_z,
        zs=tuple(zs),
    )


@dataclass(frozen=True)
class PowerPoint:
    delta: float
    detection_rate: float
    mean_z: float


def power_curve(
    spec_base: ScenarioSpec,
    deltas: list[float],
    runs: int,
    alpha: float = stats.DEFAULT_ALPHA,
) -> list[PowerPoint]:
    """Detection rate of the coping verdict as a function of suppression delta."""
    if runs < 100:
        raise ValueError("power estimates need at least 100 runs per point")
    stats._check_alpha(alpha)
    points = []
    for delta, seed in zip(deltas, _child_seeds(spec_base.seed, len(deltas))):
        spec = replace(spec_base, scenario=COPING, delta=delta, seed=seed)
        batch = monte_carlo(spec, runs, alpha=alpha)
        points.append(PowerPoint(delta=delta, detection_rate=batch.detection_rate, mean_z=batch.mean_z))
    return points
