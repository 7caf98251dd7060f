"""Deterministic discrete-event simulation of a whole experiment.

A virtual millisecond clock drives M scripted clients, one in-process counter
(the real tally code), and a virtual network with uniform latency, optional
loss, per-direction asymmetry and fault injection. Clients synchronize their
clocks through real SYNC exchanges, derive real tokens, and judge every
answer with the live client's own functions (`report_step`, `sync_sample`),
so the simulation validates the end-to-end protocol and measures the
decision rule.

Coping is modeled purely as participation suppression: at the execution round
a COPING scenario multiplies the participation probability by (1 - delta).
Nothing else differs from DEFENSE, which makes delta the only observable the
statistics can see. Every run is reproducible bit for bit from (spec, seed):
per-client RNG substreams are derived from (seed, client index), so changing
M never reshuffles existing clients.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import stats
from .client import ReportStep, UptimeRecord, certify_shutdown, report_step, sync_sample
from .counter import CounterCore
from .protocol import ExperimentConfig, Report, RoundRef, derive_token, encode_message
from .timesync import ClockSyncError, SyncSample, best_estimate

DEFENSE = "DEFENSE"
COPING = "COPING"

_NET_STREAM_TAG = 0x6E6574  # distinct substream domain for the network


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

    def offset_of(self, index: int) -> int:
        for i, offset in self.clock_offsets:
            if i == index:
                return offset
        return 0


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
        if self.send_jitter_ms < 0:
            raise ValueError("send_jitter_ms must be non-negative")

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
    secret: str = "sim-secret",
    experiment_id: str = "sim",
) -> ExperimentConfig:
    """Desk-scale schedule on the virtual clock (epoch 0, compressed windows)."""
    return ExperimentConfig(
        experiment_id=experiment_id,
        secret=secret,
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
    """Minimal time-ordered callback queue; ties break by insertion order."""

    def __init__(self) -> None:
        self.now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []

    def schedule(self, at_ms: int, fn: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (max(at_ms, self.now), self._seq, fn))

    def run(self) -> None:
        while self._heap:
            at, _, fn = heapq.heappop(self._heap)
            self.now = at
            fn()


class VirtualNet:
    """Latency/loss model between all clients and the counter."""

    def __init__(
        self,
        loop: EventLoop,
        rng: np.random.Generator,
        net: NetModel,
        faults: FaultPlan,
        counter_handler: Callable[[str, int], str],
        trace: list[str] | None,
    ) -> None:
        self.loop = loop
        self.rng = rng
        self.net = net
        self.faults = faults
        self.counter_handler = counter_handler
        self.trace = trace
        self._lat_buf: list[int] = []
        self._loss_buf: list[float] = []

    _BUF = 8192

    def _latency(self) -> int:
        if self.net.min_latency_ms == self.net.max_latency_ms:
            return self.net.min_latency_ms
        if not self._lat_buf:
            self._lat_buf = self.rng.integers(
                self.net.min_latency_ms, self.net.max_latency_ms + 1, size=self._BUF
            ).tolist()
        return self._lat_buf.pop()

    def _lost(self, at_ms: int) -> bool:
        burst = self.faults.loss_burst
        if burst is not None and burst[0] <= at_ms <= burst[1]:
            return True
        if self.net.loss_prob <= 0.0:
            return False
        if not self._loss_buf:
            self._loss_buf = self.rng.random(size=self._BUF).tolist()
        return self._loss_buf.pop() < self.net.loss_prob

    def _note(self, kind: str, line: str) -> None:
        if self.trace is not None:
            self.trace.append(f"{self.loop.now} {kind} {line}")

    def request(self, line: str, on_response: Callable[[str], None]) -> None:
        """One client-to-counter exchange; the response may never arrive."""
        self._note("SEND", line)
        copies = 2 if self.faults.duplicate_reports and line.startswith("REPORT ") else 1
        for _ in range(copies):
            if self._lost(self.loop.now):
                self._note("DROP", line)
                continue
            up = self._latency() + self.net.asym_up_ms

            def deliver(line: str = line) -> None:
                self._note("DELIVER", line)
                response = self.counter_handler(line, self.loop.now)
                if self._lost(self.loop.now):
                    self._note("DROP-REPLY", response)
                    return
                down = self._latency()

                def reply(response: str = response) -> None:
                    self._note("REPLY", response)
                    on_response(response)

                self.loop.schedule(self.loop.now + down, reply)

            self.loop.schedule(self.loop.now + up, deliver)


class SimClient:
    """One scripted participant walking the real round lifecycle."""

    def __init__(self, sim: "Simulation", index: int) -> None:
        self.sim = sim
        self.index = index
        self.nonce = f"sim-{index:08d}"
        spec = sim.spec
        # per-client substream: hashed words from (seed, index), so growing M
        # never reshuffles the decisions of existing clients
        n = spec.config.n_rounds
        words = np.random.SeedSequence((spec.seed, index)).generate_state(
            2 * (n + 1), np.uint32
        )
        draws = words[: n + 1] * (1.0 / 2**32)
        self.participates = [bool(draws[i] < spec.p_participate) for i in range(n)]
        self.participates.append(bool(draws[n] < spec.execution_probability))
        self.jitter = (words[n + 1 :] % (spec.send_jitter_ms + 1)).tolist()
        self.true_offset = spec.faults.offset_of(index)  # add to local clock for counter time
        self.synced = index not in spec.faults.unsynced and spec.sync_samples > 0
        self.offset_est: int | None = None if self.synced else 0
        self._sync_samples: list[SyncSample] = []
        self._sync_attempts = 0
        self._settled: set[RoundRef] = set()  # acknowledged or given up

    # clock conversions ----------------------------------------------------

    def _local_now(self) -> int:
        return self.sim.loop.now - self.true_offset

    def _est_counter_now(self) -> int:
        assert self.offset_est is not None
        return self._local_now() + self.offset_est

    def _true_time_for(self, counter_target_ms: int) -> int:
        # act when the local clock says the (estimated) counter time arrived
        assert self.offset_est is not None
        return counter_target_ms - self.offset_est + self.true_offset

    # sync -------------------------------------------------------------------

    def start(self) -> None:
        if self.offset_est is not None:
            self._schedule_rounds()
        else:
            self._sync_once()

    def _sync_once(self) -> None:
        self._sync_attempts += 1
        t1 = self._local_now()
        expected = len(self._sync_samples)

        def on_response(line: str) -> None:
            if len(self._sync_samples) != expected or self.offset_est is not None:
                return  # a retry already completed this exchange
            sample = sync_sample(line, t1, self._local_now())
            if sample is None:
                return
            self._sync_samples.append(sample)
            self._sync_step()

        self.sim.net.request(f"SYNC {t1}", on_response)
        if not self.sim.net_can_drop:
            return  # the response always arrives and drives the next step

        timeout = self.sim.spec.retry_ms + 2 * self.sim.spec.net.max_latency_ms + 50

        def on_timeout(expected: int = expected) -> None:
            if self.offset_est is not None or len(self._sync_samples) != expected:
                return
            if self._sync_attempts >= len(self._sync_samples) + 8:
                self._sync_step(force=True)  # give up on further exchanges
            else:
                self._sync_once()

        self.sim.loop.schedule(self.sim.loop.now + timeout, on_timeout)

    def _sync_step(self, force: bool = False) -> None:
        if self.offset_est is not None:
            return
        if len(self._sync_samples) >= self.sim.spec.sync_samples or force:
            try:
                est = best_estimate(self._sync_samples)
                self.offset_est = est.offset_ms
            except ClockSyncError:
                self.offset_est = 0  # fly blind rather than drop out
            self.sim.sync_offsets[self.index] = self.offset_est
            self._schedule_rounds()
        else:
            self._sync_once()

    # rounds ------------------------------------------------------------------

    def _schedule_rounds(self) -> None:
        config = self.sim.spec.config
        for round, window_open in self.sim.round_windows:
            i = config.n_rounds if round.is_execution else round.index
            if not self.participates[i]:
                continue
            target = window_open + self.sim.spec.send_margin_ms + self.jitter[i]
            when = self._true_time_for(target)
            if round.is_execution:
                self.sim.loop.schedule(when, lambda r=round: self._attempt_execution(r))
            else:
                self.sim.loop.schedule(when, lambda r=round: self._try_send(r))

    def _attempt_execution(self, round: RoundRef) -> None:
        config = self.sim.spec.config
        skew = self.true_offset - (self.offset_est or 0)
        records = [
            UptimeRecord("DOWN", config.t_star_ms + skew - 500),
            UptimeRecord("UP", config.t_star_ms + config.delta_tau_ms + skew + 500),
        ]
        if certify_shutdown(records, config):
            self._try_send(round)

    def _try_send(self, round: RoundRef) -> None:
        if round in self._settled:
            return
        config = self.sim.spec.config
        if self._est_counter_now() > config.window_close(round):
            self._settled.add(round)
            return
        line = encode_message(
            Report(round, self.nonce, derive_token(config.secret, round))
        )

        def on_response(response: str) -> None:
            if round in self._settled:
                return
            step = report_step(response)
            if step is ReportStep.RETRY:
                self.sim.loop.schedule(
                    self.sim.loop.now + self.sim.spec.retry_ms, lambda: self._try_send(round)
                )
            else:
                self._settled.add(round)

        self.sim.net.request(line, on_response)
        if self.sim.net_can_drop:
            # a lost request or reply never answers; poll until the window closes
            retry_at = (
                self.sim.loop.now + self.sim.spec.retry_ms + 2 * self.sim.spec.net.max_latency_ms
            )
            self.sim.loop.schedule(retry_at, lambda: self._try_send(round))


class Simulation:
    def __init__(self, spec: ScenarioSpec, capture_trace: bool = True) -> None:
        self.spec = spec
        self.loop = EventLoop()
        self.trace: list[str] | None = [] if capture_trace else None
        self.counter = CounterCore(spec.config)
        self.round_windows = [(r, spec.config.window_open(r)) for r in spec.config.rounds()]
        self.net_can_drop = spec.net.loss_prob > 0.0 or spec.faults.loss_burst is not None
        self.sync_offsets: dict[int, int] = {}
        net_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((spec.seed, _NET_STREAM_TAG)))
        )
        self.net = VirtualNet(
            self.loop, net_rng, spec.net, spec.faults,
            lambda line, arrival: self.counter.handle_line(line, arrival),
            self.trace,
        )
        for round in spec.config.rounds():
            close_at = spec.config.window_close(round) + 1
            self.loop.schedule(close_at, lambda r=round, t=close_at: self.counter.close_round(r, t))

    def run(self) -> tuple[list[int], int]:
        for index in range(self.spec.m_clients):
            SimClient(self, index).start()
        self.loop.run()
        counts, n_star = self.counter.distribution()
        assert n_star is not None  # the close event for the execution round always ran
        return counts, n_star


def run_scenario(
    spec: ScenarioSpec, alpha: float = stats.DEFAULT_ALPHA, capture_trace: bool = True
) -> SimOutcome:
    """Simulate one full experiment and analyze it with the real decision rule."""
    sim = Simulation(spec, capture_trace=capture_trace)
    counts, n_star = sim.run()
    try:
        analysis = stats.analyze(stats.summarize(counts), n_star, alpha)
    except (ValueError, stats.DegenerateCalibrationError):
        analysis = None  # no usable calibration spread; the verdict is undefined
    return SimOutcome(
        counts=counts,
        n_star=n_star,
        analysis=analysis,
        event_trace=sim.trace if sim.trace is not None else [],
        counter_log=list(sim.counter.log.lines),
        sync_offsets=dict(sim.sync_offsets),
    )


def inject_faults(
    spec: ScenarioSpec, faults: FaultPlan, alpha: float = stats.DEFAULT_ALPHA
) -> SimOutcome:
    """Re-run a scenario with the given fault plan applied."""
    return run_scenario(replace(spec, faults=faults), alpha=alpha)


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


def _run_one(args: tuple[ScenarioSpec, int, float]) -> tuple[float, str] | None:
    spec, child, alpha = args
    outcome = run_scenario(replace(spec, seed=child), alpha=alpha, capture_trace=False)
    if outcome.analysis is None:
        return None
    return outcome.analysis.z, outcome.analysis.verdict


def monte_carlo(
    spec: ScenarioSpec, runs: int, alpha: float = stats.DEFAULT_ALPHA, workers: int = 1
) -> BatchResult:
    """Independent replications of a scenario with derived per-run seeds.

    Runs are isolated, so `workers > 1` fans them out over processes; the
    result is identical to the serial order either way.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    jobs = [(spec, child, alpha) for child in _child_seeds(spec.seed, runs)]
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_run_one, jobs, chunksize=max(1, runs // (workers * 8)))
    else:
        results = [_run_one(job) for job in jobs]
    detections = 0
    zs: list[float] = []
    for result in results:
        if result is None:
            continue
        z, verdict = result
        zs.append(z)
        if verdict == stats.COPING_EVIDENCE:
            detections += 1
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
    workers: int = 1,
) -> list[PowerPoint]:
    """Detection rate of the coping verdict as a function of suppression delta."""
    if runs < 100:
        raise ValueError("power estimates need at least 100 runs per point")
    points = []
    for di, delta in enumerate(deltas):
        spec = replace(
            spec_base,
            scenario=COPING,
            delta=delta,
            seed=_child_seeds(spec_base.seed, di + 1)[-1],
        )
        batch = monte_carlo(spec, runs, alpha=alpha, workers=workers)
        points.append(PowerPoint(delta=delta, detection_rate=batch.detection_rate, mean_z=batch.mean_z))
    return points
