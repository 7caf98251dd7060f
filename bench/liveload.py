"""The live-burst workload: a synchronized roll call against a real counter.

A `rollcall counter` process listens on loopback with fsync on and its log
in the run's work directory. The experiment config keeps all 11 rounds open
for the whole run. For each round a virtual population of volunteers reports
at once when the generator's schedule says the window opened: an open-loop
burst, pipelined over two connections from this one process. The burst mixes
fresh REPORTs, duplicate deliveries of them (answered DUP), bad tokens and
ASCII grammar violations (answered MALFORMED); a SYNC follows every tenth
request on a connection, sent only once that connection has drained, so its
round trip is the counter's answer time and not the queue ahead of it.

Halfway between two counter bursts the same report lines go to the
benchmark's reference line server (refserver.py) as a burst of their own;
the counter's rates are quoted relative to it, which cancels the host's
swings in speed.

Every response is compared with the one the generator expects. After the
last burst the counter is stopped and restarted on its own log, which is
timed; the replayed tallies and dedupe set must equal the ACKs the
generator saw, and the restarted counter must answer DUP to a sample of
them.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from ipaddress import ip_address
from pathlib import Path

import numpy as np

from rollcall.client import TcpTransport, TransportError, sync_clock
from rollcall.counter import read_log, replay_events
from rollcall.protocol import (
    Ack, ExperimentConfig, RoundRef, derive_token, encode_message, format_config,
)
from rollcall.timesync import SystemClock

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

SECRET = "bench-secret"
N_ROUNDS = 10
POPULATION = 1000  # volunteers reporting per round
DUP_SHARE = 0.10
BADTOKEN_SHARE = 0.01
MALFORMED_SHARE = 0.01
SYNC_EVERY = 10
CONNECTIONS = 2
SYNC_SAMPLES = 8
PROBES_PER_ROUND = 5
WAVES = 3  # passes over the 11 rounds, each with its own population
START_TIMEOUT_S = 60.0
ANSWER_TIMEOUT_S = 30.0
# The counter writes each answer as its own small segment without
# TCP_NODELAY, so with answers pipelined Nagle's algorithm holds each one
# until the previous is acknowledged. Acking every read at once keeps the
# generator's delayed ACKs (40 ms on Linux) out of the counter's numbers;
# a volunteer with one request per connection never meets that stall.
QUICKACK = getattr(socket, "TCP_QUICKACK", None)
REFERENCE_RATE = 5000.0  # lines/s of bench/refserver.py on the scale rates are quoted at


def make_config(now_ms: int) -> ExperimentConfig:
    """Every round's acceptance window opened before `now_ms` and stays open an hour."""
    epoch = now_ms - 60_000
    return ExperimentConfig(
        experiment_id="bench", secret=SECRET, epoch_ms=epoch, delta_t_ms=2,
        n_rounds=N_ROUNDS, delta_tau_ms=1, t_star_ms=epoch + 2 * N_ROUNDS,
        grace_ms=3_600_000,
    )


# --- the traffic plan ----------------------------------------------------------


@dataclass(eq=False)
class Request:
    kind: str  # fresh | dup | badtoken | malformed | sync | ref
    line: str  # a SYNC's t1 is stamped when it is sent
    expect: str  # the exact answer; a SYNC's is checked by shape
    key: tuple[RoundRef, str] | None = None  # what an ACK adds to the tallies
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    response: str | None = None

    def ok(self) -> bool:
        if self.response is None:
            return False
        if self.kind != "sync":
            return self.response == self.expect
        parts = self.response.split(" ")
        return (
            len(parts) == 4 and parts[0] == "SYNCR" and parts[1] == self.line[5:]
            and all(p.lstrip("-").isdigit() for p in parts[2:]) and int(parts[2]) <= int(parts[3])
        )


def _malformed(rng: np.random.Generator, round: RoundRef, nonce: str, token: str) -> str:
    forms = [
        f"REPORT {round.wire()} {nonce}",
        f"REPORT {round.kind} 0{round.index} {nonce} {token}",
        f"REPORT {round.wire()} short {token}",
        f"REPORT {round.wire()} {nonce} {token[:-1]}G",
        f"REPORT  {round.wire()} {nonce} {token}",
        f"REPORT XYZ 1 {nonce} {token}",
        f"HELLO {nonce}",
        "SYNC soon",
        f"ACK {round.wire()}",
        "",
    ]
    return forms[int(rng.integers(len(forms)))]


def plan_round(
    rng: np.random.Generator, prefix: str, round: RoundRef, population: int
) -> list[list[Request]]:
    """One round's burst, split over the connections in send order."""
    token = derive_token(SECRET, round)
    ack = encode_message(Ack(round))
    items: list[tuple[int, float, Request]] = []
    for k in range(population):
        nonce = f"{prefix}-{k:05d}"
        items.append((int(rng.integers(CONNECTIONS)), float(rng.random()), Request(
            "fresh", f"REPORT {round.wire()} {nonce} {token}", ack, (round, nonce))))
    for i in rng.choice(population, size=round_share(population, DUP_SHARE), replace=False):
        conn, key, original = items[int(i)]
        # same connection, later position: the counter sees the original first
        later = key + (1.0 - key) * float(rng.random())
        items.append((conn, later, Request("dup", original.line, "REJ DUP")))
    for j in range(round_share(population, BADTOKEN_SHARE)):
        bad = rng.bytes(16).hex()
        if bad == token:
            continue
        line = f"REPORT {round.wire()} {prefix}-bad{j:04d} {bad}"
        items.append((int(rng.integers(CONNECTIONS)), float(rng.random()),
                      Request("badtoken", line, "REJ BADTOKEN")))
    for j in range(round_share(population, MALFORMED_SHARE)):
        line = _malformed(rng, round, f"{prefix}-mal{j:04d}", token)
        items.append((int(rng.integers(CONNECTIONS)), float(rng.random()),
                      Request("malformed", line, "REJ MALFORMED")))
    per_conn: list[list[Request]] = []
    for conn in range(CONNECTIONS):
        ordered = [r for c, _key, r in sorted(
            (item for item in items if item[0] == conn), key=lambda item: item[1])]
        with_syncs: list[Request] = []
        for i, request in enumerate(ordered):
            if i % SYNC_EVERY == 0:
                with_syncs.append(Request("sync", "SYNC", ""))
            with_syncs.append(request)
        per_conn.append(with_syncs)
    return per_conn


def round_share(population: int, share: float) -> int:
    return max(1, round(population * share))


def reference_burst(per_conn: list[list[Request]]) -> list[list[Request]]:
    """A counter burst's report lines, for the reference server (no SYNCs)."""
    return [[Request("ref", r.line, "OK") for r in reqs if r.kind != "sync"] for reqs in per_conn]


def plan_run(seed: int, config: ExperimentConfig, population: int,
             waves: int) -> list[list[list[Request]]]:
    """Every round's burst, `waves` times over, each wave a new population."""
    rng = np.random.default_rng([seed, 0x11FE])
    return [plan_round(rng, f"v{seed}-w{wave}", r, population)
            for wave in range(waves) for r in config.rounds()]


# --- the open-loop generator -----------------------------------------------------


class Connection:
    """One pipelined connection: requests queued, in flight, and answered."""

    def __init__(self, index: int, sock: socket.socket, first_seq: int) -> None:
        self.index = index
        self.sock = sock
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.seq = first_seq  # requests already made on this connection
        self.queue: deque[Request] = deque()
        self.inflight: deque[Request] = deque()
        self.sent_seq: dict[int, Request] = {}
        self.buffer = b""
        self.open = True


def drive(conns: list[Connection], schedule: list[tuple[float, list[list[Request]]]]) -> None:
    """Release each burst at its due time and collect every answer.

    A request that gets no answer (connection closed, or nothing arrives for
    ANSWER_TIMEOUT_S while it is outstanding) is left with no response.
    """
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    pending = deque(sorted(schedule, key=lambda item: item[0]))
    last_progress = time.perf_counter()
    try:
        while pending or any(c.open and (c.queue or c.inflight) for c in conns):
            now = time.perf_counter()
            while pending and pending[0][0] <= now:
                due, per_conn = pending.popleft()
                for conn, requests in zip(conns, per_conn):
                    for request in requests:
                        request.due = due
                    conn.queue.extend(requests)
            for conn in conns:
                _send_ready(conn)
            busy = any(c.open and c.inflight for c in conns)
            wait = ANSWER_TIMEOUT_S if busy else 3600.0
            if pending:
                wait = min(wait, max(pending[0][0] - time.perf_counter(), 0.0))
            events = selector.select(wait)
            now = time.perf_counter()
            if events:
                last_progress = now
            elif busy and now - last_progress > ANSWER_TIMEOUT_S:
                break
            for key, _mask in events:
                _receive(key.data, selector)
    finally:
        selector.close()


def _send_ready(conn: Connection) -> None:
    if not conn.open:
        return
    batch: list[Request] = []
    while conn.queue:
        request = conn.queue[0]
        if request.kind == "sync":
            if conn.inflight or batch:
                break
            request.line = f"SYNC {int(time.time() * 1000)}"
        batch.append(conn.queue.popleft())
    if not batch:
        return
    payload = "".join(r.line + "\n" for r in batch).encode("ascii")
    stamp = time.perf_counter()
    for request in batch:
        request.sent = stamp
        conn.sent_seq[conn.seq] = request
        conn.seq += 1
    conn.inflight.extend(batch)
    try:
        conn.sock.sendall(payload)
    except OSError:
        conn.open = False


def _receive(conn: Connection, selector: selectors.BaseSelector) -> None:
    try:
        data = conn.sock.recv(1 << 16)
        if QUICKACK is not None:
            conn.sock.setsockopt(socket.IPPROTO_TCP, QUICKACK, 1)
    except OSError:
        data = b""
    if not data:
        conn.open = False
        selector.unregister(conn.sock)
        return
    stamp = time.perf_counter()
    conn.buffer += data
    *lines, conn.buffer = conn.buffer.split(b"\n")
    for raw in lines:
        if not conn.inflight:
            break  # an answer nobody asked for; the unanswered count shows it
        request = conn.inflight.popleft()
        request.done = stamp
        request.response = raw.decode("utf-8", "replace")


# --- the counter process ------------------------------------------------------------


def cpu_split() -> tuple[set[int], set[int]] | None:
    """A CPU for the generator and another for the counter, when there are two.

    This keeps the generator from taking CPU time the counter would use.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, {cpus[1]}) if len(cpus) >= 2 else None


@dataclass
class CounterProcess:
    proc: subprocess.Popen
    port: int
    start_s: float  # spawn to listening
    stderr_path: Path


def spawn_counter(workdir: Path, config_path: Path, log_path: Path,
                  trace_out: Path | None = None) -> CounterProcess:
    """Start a counter and wait until it listens.

    Untraced runs start the shipped `rollcall counter`; traced runs start the
    same entry point through the benchmark's launcher, which installs the
    span wrappers first and writes them to `trace_out` on exit.
    """
    args = ["counter", "--listen", "127.0.0.1:0", "--config", str(config_path),
            "--log", str(log_path)]
    if trace_out is None:
        cmd = [sys.executable, "-m", "rollcall.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "launcher.py"), str(trace_out), *args]
    return _spawn(cmd, workdir, f"counter-{log_path.stem}")


def spawn_reference(workdir: Path) -> CounterProcess:
    """Start the benchmark's reference line server (bench/refserver.py)."""
    cmd = [sys.executable, str(BENCH_DIR / "refserver.py"), str(workdir / "reference.log")]
    return _spawn(cmd, workdir, "reference")


def _spawn(cmd: list[str], workdir: Path, name: str) -> CounterProcess:
    """Start a server on the counter's CPU and wait for its `listening on` line."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    stderr_path = workdir / f"{name}-{time.monotonic_ns()}.err"
    started = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=workdir)
    split = cpu_split()
    if split is not None:
        # before the server starts a thread, so all of them inherit it
        os.sched_setaffinity(proc.pid, split[1])
    assert proc.stdout is not None
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    ready = selector.select(START_TIMEOUT_S)
    selector.close()
    line = proc.stdout.readline().decode("utf-8", "replace") if ready else ""
    start_s = time.perf_counter() - started
    if " listening on " not in line:
        stop_counter(CounterProcess(proc, 0, start_s, stderr_path))
        error = stderr_path.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{name} did not start: {error}")
    port = int(line.split()[3].rstrip(",").rpartition(":")[2])
    return CounterProcess(proc, port, start_s, stderr_path)


def stop_counter(counter: CounterProcess) -> tuple[int, float]:
    """SIGTERM the counter, reap it; returns (exit code, peak RSS in MB)."""
    proc = counter.proc
    if proc.stdout is not None:
        proc.stdout.close()
    if proc.poll() is not None:  # exited on its own and already reaped
        return proc.returncode, 0.0
    proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 30
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage.ru_maxrss / 1024.0


def connect_and_sync(port: int) -> tuple[list[TcpTransport], list[int]]:
    """Open the connections with the shipped client and sync each clock."""
    transports, offsets = [], []
    for _ in range(CONNECTIONS):
        transport = TcpTransport("127.0.0.1", port)
        transports.append(transport)
        offsets.append(sync_clock(transport, SystemClock(), SYNC_SAMPLES).offset_ms)
    return transports, offsets


def ask(port: int, lines: list[str]) -> list[str | None]:
    """One closed-loop exchange per line on a fresh connection."""
    transport = TcpTransport("127.0.0.1", port)
    try:
        answers: list[str | None] = []
        for line in lines:
            try:
                answers.append(transport.request(line))
            except TransportError:
                answers.append(None)
        return answers
    finally:
        transport.close()


# --- one live run -------------------------------------------------------------------


@dataclass
class Score:
    """What the generator saw of a set of bursts."""

    failed: int  # requests without the expected answer
    acked: set[tuple[RoundRef, str]]  # reports the counter acknowledged
    burst_rates: list[float]  # report-class answers per second, per burst
    report_latency_ms: list[float]  # answered reports, from their due time
    sync_rtt_ms: list[float]
    start_lag_ms: list[float]  # first send of each burst after its due time
    bursts: list[tuple[float, float]]  # (due, last answer), perf_counter seconds
    syncs: list[tuple[int, int, float]]  # (connection, sequence, round trip s)


def score(conns: list[Connection], schedule: list[tuple[float, list[list[Request]]]]) -> Score:
    requests = [r for _due, per_conn in schedule for reqs in per_conn for r in reqs]
    bursts, rates, lags = [], [], []
    for due, per_conn in schedule:
        answered = [r for reqs in per_conn for r in reqs if r.response is not None]
        sent = [r.sent for reqs in per_conn for r in reqs if r.sent]
        end = max((r.done for r in answered), default=due)
        bursts.append((due, end))
        reports = sum(1 for r in answered if r.kind != "sync")
        rates.append(reports / (end - due) if reports else 0.0)
        if sent:
            lags.append((min(sent) - due) * 1000.0)
    good = [r for r in requests if r.ok()]
    return Score(
        failed=len(requests) - len(good),
        acked={r.key for r in good if r.key is not None},
        burst_rates=rates,
        report_latency_ms=[(r.done - r.due) * 1000.0 for r in good if r.kind != "sync"],
        sync_rtt_ms=[(r.done - r.sent) * 1000.0 for r in good if r.kind == "sync"],
        start_lag_ms=lags,
        bursts=bursts,
        syncs=[(conn.index, seq, r.done - r.sent) for conn in conns
               for seq, r in conn.sent_seq.items() if r.kind == "sync" and r.ok()],
    )


@dataclass
class LiveResult:
    score: Score
    reference_rates: list[float]  # the reference server's bursts, one per counter burst
    setup_s: list[float]
    recovery_s: list[float]
    peak_rss_mb: float  # of the counter that served the bursts
    attempted: int
    failed: int
    problems: list[str]
    sync_offsets_ms: list[int]
    loopback: bool
    log_bytes: int
    logged_requests: int

    def rate_per_s(self) -> float:
        """Median burst rate, quoted at REFERENCE_RATE for the reference server.

        Each counter burst is scaled by the rate of the reference burst that
        follows it. The `calibrate` kernel's time and a raw fsync probe
        tracked the counter's burst rates too weakly to do this.
        """
        return statistics.median(
            rate * REFERENCE_RATE / ref if ref else 0.0
            for rate, ref in zip(self.score.burst_rates, self.reference_rates))


def run_live(workdir: Path, seed: int, seconds: float, *, population: int = POPULATION,
             waves: int = WAVES, setups: int = 3, restarts: int = 3,
             traced: bool = False) -> LiveResult:
    """Set up, burst every round across `seconds`, stop, restart and verify.

    `workdir` must not exist yet. With `traced` both counter processes run
    under the launcher and write their spans to `workdir`.
    """
    workdir.mkdir(parents=True)
    split = cpu_split()
    previous = os.sched_getaffinity(0)
    if split is not None:
        os.sched_setaffinity(0, split[0])
    try:
        return _run_live(workdir, seed, seconds, population, waves, setups, restarts, traced)
    finally:
        os.sched_setaffinity(0, previous)


def _run_live(workdir: Path, seed: int, seconds: float, population: int, waves: int,
              setups: int, restarts: int, traced: bool) -> LiveResult:
    config = make_config(int(time.time() * 1000))
    config_path = workdir / "bench.conf"
    config_path.write_text(format_config(config), encoding="utf-8")
    problems: list[str] = []
    setup_s: list[float] = []
    offsets: list[int] = []
    counter = transports = None
    for attempt in range(setups):
        log_path = workdir / f"counter-{attempt}.log"
        trace_out = workdir / "counter-trace.json" if traced else None
        started = time.perf_counter()
        counter = spawn_counter(workdir, config_path, log_path, trace_out)
        try:
            transports, synced = connect_and_sync(counter.port)
        except Exception:
            stop_counter(counter)
            raise
        setup_s.append(time.perf_counter() - started)
        offsets += synced
        if attempt < setups - 1:
            for transport in transports:
                transport.close()
            stop_counter(counter)
    assert counter is not None and transports is not None

    plan = plan_run(seed, config, population, waves)
    # the bursts reuse the synced connections of the shipped client
    conns = [Connection(i, t._sock, SYNC_SAMPLES) for i, t in enumerate(transports)]
    try:
        reference = spawn_reference(workdir)
    except Exception:
        for transport in transports:
            transport.close()
        stop_counter(counter)
        raise
    try:
        conns += [
            Connection(CONNECTIONS + i, socket.create_connection(("127.0.0.1", reference.port)), 0)
            for i in range(CONNECTIONS)
        ]
        loopback = all(ip_address(c.sock.getpeername()[0]).is_loopback for c in conns)
        # the reference server's bursts fall halfway between the counter's
        spacing = seconds / len(plan)
        first_due = time.perf_counter() + 0.05
        idle: list[list[Request]] = [[] for _ in range(CONNECTIONS)]
        schedule = [(first_due + i * spacing, per_conn + idle) for i, per_conn in enumerate(plan)]
        ref_schedule = [(due + spacing / 2, idle + reference_burst(per_conn[:CONNECTIONS]))
                        for due, per_conn in schedule]
        drive(conns, schedule + ref_schedule)
    finally:
        for conn in conns[CONNECTIONS:]:
            conn.sock.close()
        for transport in transports:
            transport.close()
        exit_code, peak_rss_mb = stop_counter(counter)
        stop_counter(reference)
    if exit_code != 0:
        problems.append(f"counter exited with code {exit_code}")
    seen = score(conns, schedule)
    ref_seen = score(conns, ref_schedule)
    if ref_seen.failed:
        problems.append(f"the reference server failed {ref_seen.failed} requests")
    requests = [r for per_conn in plan for reqs in per_conn for r in reqs]
    failed = seen.failed + _check_replay(config, log_path, seen.acked, problems)

    recovery_s: list[float] = []
    probes = _probe_lines(seed, seen.acked)
    for attempt in range(restarts):
        trace_out = workdir / f"restart-trace-{attempt}.json" if traced else None
        restarted = spawn_counter(workdir, config_path, log_path, trace_out)
        recovery_s.append(restarted.start_s)
        try:
            # a probe also proves the restarted counter serves before it is stopped
            lines = probes if attempt == restarts - 1 else ["SYNC 0"]
            answers = ask(restarted.port, lines)
        finally:
            code, _rss = stop_counter(restarted)
        if code != 0:
            problems.append(f"restarted counter exited with code {code}")
        if lines is probes:
            wrong = sum(1 for a in answers if a != "REJ DUP")
            if wrong:
                problems.append(
                    f"{wrong} of {len(probes)} acknowledged reports not DUP after restart")
            failed += wrong
    attempted = len(requests) + len(probes)
    if failed:
        problems.append(f"{failed} of {attempted} requests failed")
    return LiveResult(
        score=seen, reference_rates=ref_seen.burst_rates, setup_s=setup_s,
        recovery_s=recovery_s, peak_rss_mb=peak_rss_mb, attempted=attempted, failed=failed,
        problems=problems, sync_offsets_ms=offsets, loopback=loopback,
        log_bytes=log_path.stat().st_size,
        logged_requests=sum(1 for r in requests if r.kind != "sync") + len(probes),
    )


def _check_replay(config: ExperimentConfig, log_path: Path,
                  acked: set[tuple[RoundRef, str]], problems: list[str]) -> int:
    """ACKed reports the replayed log lacks (plus any it has that were not ACKed)."""
    core = replay_events(config, read_log(log_path))
    missing = len(acked - core.seen)
    extra = len(core.seen - acked)
    for round in config.rounds():
        expected = sum(1 for r, _n in acked if r == round)
        if core.tallies[round].count != expected:
            problems.append(f"replayed tally of {round.wire()} is "
                            f"{core.tallies[round].count}, {expected} were acknowledged")
    if missing or extra:
        problems.append(f"replayed dedupe set: {missing} acknowledged missing, {extra} extra")
    return missing + extra


def _probe_lines(seed: int, acked: set[tuple[RoundRef, str]]) -> list[str]:
    rng = np.random.default_rng([seed, 0x9B0B])
    lines = []
    by_round: dict[RoundRef, list[str]] = {}
    for round, nonce in sorted(acked, key=lambda k: (k[0].kind, k[0].index, k[1])):
        by_round.setdefault(round, []).append(nonce)
    for round, nonces in by_round.items():
        token = derive_token(SECRET, round)
        for i in rng.choice(len(nonces), size=min(PROBES_PER_ROUND, len(nonces)), replace=False):
            lines.append(f"REPORT {round.wire()} {nonces[int(i)]} {token}")
    return lines


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0-100), linear between closest ranks."""
    return float(np.percentile(values, q)) if values else float("nan")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")
