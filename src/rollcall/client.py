"""The distributed volunteer client.

Per round: prompt the user, wait until the no-interaction window has passed,
judge it from the activity events (at a calibration round) or the uptime
records (at the execution round), and report compliance to the counter; a
failed shutdown leads to the questionnaire.

Activity events and uptime records come from pluggable sources (plain-text
files in the shipped implementations; the simulator injects them), so the
decision logic stays deterministic and testable. Real OS input hooks and
actual power-off are deployment adapters, not part of this package.
"""

from __future__ import annotations

import secrets
import socket
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Protocol

from .protocol import (
    MAX_LINE_BYTES,
    Ack,
    ExperimentConfig,
    MalformedLine,
    Message,
    Reject,
    Report,
    RoundRef,
    Survey,
    SyncResponse,
    _parse_int,
    _parse_lines,
    decode_message,
    derive_token,
    encode_message,
)
from .timesync import (
    Clock,
    ClockEstimate,
    ClockSyncError,
    SyncSample,
    best_estimate,
    wait_until,
)

DEFAULT_PROMPT_LEAD_MS = 120_000
DEFAULT_START_TOL_MS = 60_000
SYNC_ATTEMPTS = 5
SURVEY_RETRIES = 3  # a lost survey is sent again this many times
REQUEST_TIMEOUT_S = 5.0


class ClientError(RuntimeError):
    """Unrecoverable client-side failure (e.g. the counter never answered)."""


class TransportError(RuntimeError):
    """A request could not be delivered or answered."""


class Transport(Protocol):
    def request(self, line: str) -> str: ...


class TcpTransport:
    """One-line-per-exchange client over a persistent TCP connection.

    The connection is opened when the transport is built, and again right
    after a request fails on it, so connection setup never lands inside a
    timed exchange such as a SYNC. If connecting fails, the next request
    connects again and reports the failure. An answer is a UTF-8 line of at
    most MAX_LINE_BYTES bytes ended by "\\n"; anything else fails the request.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._sock: socket.socket | None = None
        self._rfile = None
        self._try_connect()

    def _try_connect(self) -> None:
        try:
            self._connect()
        except OSError:
            pass

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=REQUEST_TIMEOUT_S)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def request(self, line: str) -> str:
        try:
            if self._sock is None:
                self._connect()
            assert self._sock is not None and self._rfile is not None
            self._sock.sendall(line.encode("utf-8") + b"\n")
            raw = self._rfile.readline(MAX_LINE_BYTES + 1)
            if not raw.endswith(b"\n"):
                raise ConnectionError(
                    f"answer line longer than {MAX_LINE_BYTES} bytes"
                    if len(raw) > MAX_LINE_BYTES else "counter closed the connection"
                )
            return raw.decode("utf-8").rstrip("\r\n")
        except (OSError, UnicodeDecodeError) as exc:
            connected = self._sock is not None
            self.close()
            if connected:
                self._try_connect()
            raise TransportError(str(exc)) from exc

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


# --- domain types and pure decision core -------------------------------------


@dataclass(frozen=True)
class ActivityEvent:
    """One mechanical input event (keyboard/pointer), in counter time."""

    timestamp_ms: int


@dataclass(frozen=True)
class UptimeRecord:
    kind: str  # DOWN or UP
    timestamp_ms: int

    def __post_init__(self) -> None:
        if self.kind not in ("DOWN", "UP"):
            raise ValueError(f"uptime record kind must be DOWN or UP, got {self.kind!r}")


class RoundOutcome(Enum):
    """How one round ended for the client.

    FAILED means that no final answer was heard before the estimated window
    close, so a FAILED round may still have been counted: the counter may
    have accepted a REPORT whose answer was lost.
    """

    REPORTED = "REPORTED"
    DECLINED = "DECLINED"
    VIOLATED = "VIOLATED"
    FAILED = "FAILED"
    SKIPPED = "SKIPPED"  # the client came too late to take part


def first_violation(
    events: Iterable[ActivityEvent], start_ms: int, end_ms: int
) -> int | None:
    """Timestamp of the first input event inside [start_ms, end_ms], if any."""
    hits = [e.timestamp_ms for e in events if start_ms <= e.timestamp_ms <= end_ms]
    return min(hits) if hits else None


def records_well_formed(records: Iterable[UptimeRecord]) -> bool:
    """True when kinds alternate DOWN/UP and timestamps never decrease."""
    last_kind: str | None = None
    last_ts: int | None = None
    for record in records:
        if record.kind == last_kind:
            return False
        if last_ts is not None and record.timestamp_ms < last_ts:
            return False
        last_kind = record.kind
        last_ts = record.timestamp_ms
    return True


def certify_shutdown(records: Iterable[UptimeRecord], config: ExperimentConfig) -> bool:
    """Whether the records show the host off for the whole shutdown window.

    Compliant when some DOWN at time d with its matching UP at time u
    satisfies d <= t* + DEFAULT_START_TOL_MS and u >= t* + delta_tau. The
    tolerance is one constant, so compliance means the same for every
    volunteer. A malformed record stream is simply not compliant.
    """
    records = list(records)
    if not records_well_formed(records):
        return False
    need_from = config.t_star_ms + DEFAULT_START_TOL_MS
    need_until = config.t_star_ms + config.delta_tau_ms
    down_at: int | None = None
    for record in records:
        if record.kind == "DOWN":
            down_at = record.timestamp_ms
        elif down_at is not None:
            if down_at <= need_from and record.timestamp_ms >= need_until:
                return True
            down_at = None
    return False


# --- file-backed sources ------------------------------------------------------


def parse_activity_text(text: str) -> list[ActivityEvent]:
    """One integer millisecond timestamp per line; blanks and # comments skipped."""
    return _parse_lines(
        text, lambda line: ActivityEvent(_parse_int(line)), ValueError, "activity file"
    )


def _uptime_record(line: str) -> UptimeRecord:
    kind, timestamp = line.split()
    return UptimeRecord(kind, _parse_int(timestamp))


def parse_uptime_text(text: str) -> list[UptimeRecord]:
    """Lines of `DOWN <ms>` / `UP <ms>`; blanks and # comments skipped."""
    return _parse_lines(text, _uptime_record, ValueError, "uptime file")


def activity_from_file(path: str | Path) -> Callable[[int, int], list[ActivityEvent]]:
    """A source that reads the file on every query, so appended events count."""
    path = Path(path)

    def events_between(start_ms: int, end_ms: int) -> list[ActivityEvent]:
        events = parse_activity_text(path.read_text(encoding="utf-8"))
        return [e for e in events if start_ms <= e.timestamp_ms <= end_ms]

    return events_between


def uptime_from_file(path: str | Path) -> Callable[[], list[UptimeRecord]]:
    path = Path(path)

    def read() -> list[UptimeRecord]:
        if not path.exists():
            return []
        return parse_uptime_text(path.read_text(encoding="utf-8"))

    return read


# --- sans-I/O exchange policy, shared with the simulator -----------------------


class ReportStep(Enum):
    DONE = "DONE"
    RETRY = "RETRY"
    GIVE_UP = "GIVE_UP"


@lru_cache(maxsize=64)
def report_step(response: str) -> ReportStep:
    """What the sender of a REPORT does with the counter's answer.

    ACK is done, and so is DUP: an earlier attempt landed. EARLY, or a line
    that does not decode, is worth another attempt while the report window
    is open; any other answer is final. Answers take few distinct values,
    so each is decoded once while it stays in the bounded cache.
    """
    try:
        msg = decode_message(response)
    except MalformedLine:
        return ReportStep.RETRY
    if isinstance(msg, Ack):
        return ReportStep.DONE
    reason = msg.reason if isinstance(msg, Reject) else None
    if reason == "DUP":
        return ReportStep.DONE
    if reason == "EARLY":
        return ReportStep.RETRY
    return ReportStep.GIVE_UP


def sync_sample(response: str, t1: int, t4: int) -> SyncSample | None:
    """The sample a counter's answer line to `SYNC t1` yields, or None if unusable."""
    try:
        msg = decode_message(response)
    except MalformedLine:
        return None
    return sync_sample_of(msg, t1, t4)


def sync_sample_of(msg: Message, t1: int, t4: int) -> SyncSample | None:
    """The sample a counter's decoded answer to `SYNC t1` yields, or None if unusable."""
    if not isinstance(msg, SyncResponse) or msg.t1 != t1:
        return None
    try:
        return SyncSample(t1=t1, t2=msg.t2, t3=msg.t3, t4=t4)
    except ValueError:  # timestamps out of order
        return None


# --- sync and survey over a transport ----------------------------------------


def sync_clock(transport: Transport, clock: Clock, samples: int) -> ClockEstimate:
    """Run `samples` four-timestamp exchanges and keep the lowest-delay one."""
    collected: list[SyncSample] = []
    last_failure = "no exchange ran"
    for _ in range(samples):
        t1 = clock.now_ms()
        try:
            response = transport.request(f"SYNC {t1}")
        except TransportError as exc:
            last_failure = str(exc)
            continue
        sample = sync_sample(response, t1, clock.now_ms())
        if sample is None:
            last_failure = f"unusable answer {response!r}"
        else:
            collected.append(sample)
    if not collected:
        raise ClockSyncError(f"no usable sync exchange (last: {last_failure})")
    return best_estimate(collected)


def run_survey(transport: Transport, nonce: str, code: str, text: str) -> bool:
    """Send one questionnaire answer; invalid codes are rejected locally."""
    line = encode_message(Survey(nonce, code, text))  # raises ValueError on a bad code
    for _ in range(SURVEY_RETRIES + 1):
        try:
            response = transport.request(line)
        except TransportError:
            continue
        try:
            return isinstance(decode_message(response), Ack)
        except MalformedLine:
            return False
    return False


# --- blocking lifecycle runner -------------------------------------------------

ConsentFn = Callable[[RoundRef, int], bool]  # (round, local deadline ms) -> yes/no
ActivityFn = Callable[[int, int], list[ActivityEvent]]
UptimeFn = Callable[[], list[UptimeRecord]]
SurveyFn = Callable[[], "tuple[str, str] | None"]


@dataclass
class ClientOptions:
    nonce: str = field(default_factory=lambda: secrets.token_hex(8))
    prompt_lead_ms: int = DEFAULT_PROMPT_LEAD_MS
    sync_samples: int = 8
    retry_ms: int = 500
    send_margin_ms: int = 50


class ClientRunner:
    """Drives one client through every scheduled round against a live counter.

    All timing flows through the injected clock and every exchange through the
    injected transport, so the produced message sequence is a deterministic
    function of config, consent script, activity events and uptime records.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        transport: Transport,
        clock: Clock,
        consent: ConsentFn,
        activity: ActivityFn,
        uptime: UptimeFn,
        options: ClientOptions | None = None,
        survey: SurveyFn | None = None,
        notify: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config
        self.transport = transport
        self.clock = clock
        self.consent = consent
        self.activity = activity
        self.uptime = uptime
        self.options = options if options is not None else ClientOptions()
        self.survey = survey
        self.notify = notify if notify is not None else lambda _line: None
        self.outcomes: dict[RoundRef, RoundOutcome] = {}
        self._estimate: ClockEstimate | None = None

    # -- plumbing ---------------------------------------------------------

    def _counter_now(self) -> int:
        assert self._estimate is not None
        return self._estimate.counter_now(self.clock.now_ms())

    def _wait_counter(self, target_ms: int) -> None:
        assert self._estimate is not None
        wait_until(target_ms, self._estimate, self.clock)

    def _sync(self) -> bool:
        try:
            self._estimate = sync_clock(self.transport, self.clock, self.options.sync_samples)
            return True
        except ClockSyncError:
            return False

    def _ensure_synced(self) -> None:
        for _ in range(SYNC_ATTEMPTS):
            if self._sync():
                assert self._estimate is not None
                self.notify(f"clock offset {self._estimate.offset_ms} ms")
                return
            self.clock.sleep_ms(self.options.retry_ms)
        raise ClientError("could not synchronize with the counter")

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> dict[RoundRef, RoundOutcome]:
        """Visit every scheduled round once, in order; one outcome per round."""
        self._ensure_synced()
        for round in self.config.rounds():
            outcome = self._run_round(round)
            self.outcomes[round] = outcome
            self.notify(f"round {round.wire()}: {outcome.value}")
        self.notify("experiment complete")
        return self.outcomes

    def _run_round(self, round: RoundRef) -> RoundOutcome:
        # a calibration round needs the client present from its start; the
        # execution round is certified from uptime records after reconnection
        # and stays open until its report window closes
        start = self.config.round_start(round)
        last_chance = self.config.window_close(round) if round.is_execution else start
        if self._counter_now() > last_chance:
            return RoundOutcome.SKIPPED
        self._wait_counter(start - self.options.prompt_lead_ms)
        self._sync()  # best-effort refresh; the previous estimate stays valid
        assert self._estimate is not None
        if not self.consent(round, start - self._estimate.offset_ms):
            return RoundOutcome.DECLINED
        window_open = self.config.window_open(round)
        self._wait_counter(window_open)
        # the window has passed: judge it from the sources as they read now;
        # a source that cannot be read or parsed counts as a violation
        records: list[UptimeRecord] | None = None
        try:
            if round.is_execution:
                records = self.uptime()
                complied = certify_shutdown(records, self.config)
            else:
                events = self.activity(start, window_open)
                complied = first_violation(events, start, window_open) is None
        except (OSError, ValueError) as exc:
            self.notify(f"round {round.wire()}: unreadable source: {exc}")
            complied = False
        if complied:
            return self._send_report(round)
        if round.is_execution:
            self._offer_survey(forced_obstacle=records is None or not records_well_formed(records))
        return RoundOutcome.VIOLATED

    def _send_report(self, round: RoundRef) -> RoundOutcome:
        line = encode_message(
            Report(round, self.options.nonce, derive_token(self.config.secret, round))
        )
        self._wait_counter(self.config.window_open(round) + self.options.send_margin_ms)
        while self._counter_now() <= self.config.window_close(round):
            try:
                step = report_step(self.transport.request(line))
            except TransportError:
                step = ReportStep.RETRY
            if step is ReportStep.DONE:
                return RoundOutcome.REPORTED
            if step is ReportStep.GIVE_UP:
                return RoundOutcome.FAILED
            self.clock.sleep_ms(self.options.retry_ms)
        return RoundOutcome.FAILED

    def _offer_survey(self, forced_obstacle: bool) -> None:
        if forced_obstacle:
            answer: tuple[str, str] | None = ("OBSTACLE", "")
        else:
            answer = self.survey() if self.survey is not None else None
        if answer is None:
            return
        code, text = answer
        sent = run_survey(self.transport, self.options.nonce, code, text)
        self.notify(f"survey {code}: {'sent' if sent else 'dropped'}")
