"""The central tally service.

The counter accepts one wire line per exchange, enforces the per-round
acceptance window and token, counts each (round, nonce) pair at most once,
and appends every tally-relevant event to an append-only text log, so
replaying the log always reconstructs the exact state:

    <arrival_ms> ACCEPT <report line>
    <arrival_ms> REJECT <offending line>
    <arrival_ms> SURVEY <survey line>
    <arrival_ms> CLOSE <kind> <index>

An answer goes out only after an fsync that covers its event; requests
logged while an fsync is due share it (group commit). Sync exchanges are
answered at once and not logged; they carry no tally state. Over TCP,
`CounterService.handle` is the one entry for a request line, and a round
closes only through `CounterCore.close_due`, which the serving loop calls.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .protocol import (
    MAX_LINE_BYTES,
    REJECT_REASONS,
    Ack,
    ExperimentConfig,
    MalformedLine,
    Message,
    Reject,
    Report,
    RoundRef,
    Survey,
    SyncRequest,
    SyncResponse,
    _parse_int,
    _round_ref,
    decode_message,
    derive_token,
    encode_message,
)
from .timesync import Clock, SystemClock

READ_BYTES = 8192  # most bytes one read of a connection takes
STOP_POLL_S = 0.1  # how long the serving loop may take to see a stop or a due round

TAG_ACCEPT = "ACCEPT"
TAG_REJECT = "REJECT"
TAG_SURVEY = "SURVEY"
TAG_CLOSE = "CLOSE"
_TAGS = frozenset({TAG_ACCEPT, TAG_REJECT, TAG_SURVEY, TAG_CLOSE})


class CounterError(RuntimeError):
    """Invalid counter operation or a corrupt event log."""


@dataclass
class RoundTally:
    """Per-round result; `CounterCore.close_due` closes it, and then it is frozen."""

    round: RoundRef
    count: int
    window_open_ms: int
    window_close_ms: int
    closed: bool = False


@dataclass(frozen=True)
class LogEvent:
    arrival_ms: int
    tag: str
    raw: str


def parse_log_line(line: str) -> LogEvent:
    parts = line.split(" ", 2)
    if len(parts) == 3 and parts[1] in _TAGS:
        try:
            return LogEvent(_parse_int(parts[0]), parts[1], parts[2])
        except ValueError:
            pass
    raise CounterError(f"corrupt log line: {line!r}")


def read_log(path: str | Path) -> list[LogEvent]:
    """Read a counter log, discarding a torn trailing line from a crash.

    Lines end at "\n" only: a logged REJECT keeps whatever other line breaks
    (U+2028, \x85, \r, ...) the offending request carried.
    """
    data = Path(path).read_bytes()
    # bytes after the final newline were never acknowledged; drop them
    complete = data[: data.rfind(b"\n") + 1]
    try:
        text = complete.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CounterError(f"log is not UTF-8: {exc}") from exc
    return [parse_log_line(line) for line in text.split("\n")[:-1]]


class EventLog:
    """Append-only sink; `sync` makes what was appended durable.

    With a path, each line goes to that file in one write on an append-only
    fd, and `sync` always fsyncs the file; the service answers no event
    before that. Without a path (the simulator's in-memory log) lines are
    kept in `lines` and `sync` has nothing to do. Appends are serialized by
    the caller; `sync` may run concurrently with them and with other syncs.

    The file log is fail-stop, so no answer goes out for an event not logged
    whole and durable: a failed or short write is cut back to the last whole
    line (best effort), and after it or a failed fsync, which a retry may
    falsely report done (Rebello et al., ATC 2020), appends and uncovered
    syncs raise CounterError, also once the log is closed.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.lines: list[str] = []
        self._fd: int | None = None
        self._stopped: str | None = None  # why appends raise, once they do
        # the end of the last whole line, and the end a finished fsync covers;
        # a flag instead would lose an append that races an fsync in progress
        self._end = self._synced = 0
        self._sync_lock = threading.Lock()
        if path is not None:
            with open(path, "a+b") as fh:  # cut the torn tail that `read_log` skips
                fh.seek(0)
                data = fh.read()
                fh.truncate(data.rfind(b"\n") + 1)
            self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
            self._end = self._synced = os.lseek(self._fd, 0, os.SEEK_END)

    def append(self, arrival_ms: int, tag: str, raw: str) -> None:
        line = f"{arrival_ms} {tag} {raw}"
        if self._stopped is not None:
            raise CounterError(self._stopped)
        if self._fd is None:
            self.lines.append(line)
            return
        data = f"{line}\n".encode("utf-8")
        try:
            if os.write(self._fd, data) != len(data):
                raise OSError("short write")
        except OSError as exc:
            with suppress(OSError):
                os.ftruncate(self._fd, self._end)
            self._stopped = f"the log stopped after a failed append: {exc}"
            raise CounterError(self._stopped) from exc
        self._end += len(data)

    def sync(self) -> None:
        """Return once every line appended before the call is durable.

        Concurrent callers queue on one lock; an fsync covers every line
        written before it starts, so a caller whose lines an earlier fsync
        covered returns without one.
        """
        target = self._end
        with self._sync_lock:
            if self._synced >= target:
                return
            if self._stopped is not None:
                raise CounterError(self._stopped)
            covered = self._end
            try:
                os.fsync(self._fd)
            except OSError as exc:
                self._stopped = f"the log stopped after a failed fsync: {exc}"
                raise CounterError(self._stopped) from exc
            self._synced = covered

    def close(self) -> None:
        """Make every line durable, then close; the fd closes even if that fails."""
        try:
            if self._stopped is None:
                self.sync()
        finally:
            with self._sync_lock:
                self._stopped = self._stopped or "the log is closed"
                if self._fd is not None:
                    os.close(self._fd)
                    self._fd = None


class CounterCore:
    """Tally state machine; callers serialize access (see CounterService)."""

    def __init__(self, config: ExperimentConfig, log: EventLog | None = None) -> None:
        self.config = config
        self.log = log if log is not None else EventLog()
        rounds = config.rounds()
        self.tallies: dict[RoundRef, RoundTally] = {
            r: RoundTally(r, 0, config.window_open(r), config.window_close(r)) for r in rounds
        }
        self.seen: set[tuple[RoundRef, str]] = set()
        self.surveys: list[Survey] = []
        # the token of each scheduled round, and every answer a report or
        # survey can get, each formatted once
        self._tokens = {r: derive_token(config.secret, r) for r in rounds}
        self._ack_lines = {r: encode_message(Ack(r)) for r in rounds}
        self._reject_lines = {why: encode_message(Reject(why)) for why in REJECT_REASONS}

    # -- ingest ---------------------------------------------------------

    def handle_line(
        self, line: str, arrival_ms: int, send_ms: int | None = None, msg: Message | None = None
    ) -> str:
        """Decode and dispatch one inbound line; always returns a response line.

        A caller that built `line` from a message may pass it as `msg`, which
        must equal `decode_message(line)`; the line is then not decoded again,
        and the answer, the log and the state are the same.
        """
        if msg is None:
            try:
                msg = decode_message(line)
            except MalformedLine:
                return self._reject_malformed(line, arrival_ms)
        # a report or survey is logged as received, not encoded again
        if isinstance(msg, Report):  # the most frequent line, so tested first
            round, nonce, token = msg
            tally = self.tallies.get(round)
            key = (round, nonce)
            if token != (self._tokens.get(round) or derive_token(self.config.secret, round)):
                reason = "BADTOKEN"
            elif tally is None:
                reason = "BADROUND"
            elif arrival_ms < tally.window_open_ms:
                reason = "EARLY"
            elif arrival_ms > tally.window_close_ms or tally.closed:
                reason = "LATE"
            elif key in self.seen:
                reason = "DUP"
            else:
                self.log.append(arrival_ms, TAG_ACCEPT, line)
                self.seen.add(key)
                tally.count += 1
                return self._ack_lines[round]
            self.log.append(arrival_ms, TAG_REJECT, line)
            return self._reject_lines[reason]
        if isinstance(msg, SyncRequest):
            return encode_message(self.answer_sync(msg, arrival_ms, send_ms))
        if isinstance(msg, Survey):  # never gated on participation; all are kept
            self.log.append(arrival_ms, TAG_SURVEY, line)
            self.surveys.append(msg)
            return self._ack_lines[RoundRef.exe()]
        # a syntactically valid line that is not a client-to-counter message
        return self._reject_malformed(line, arrival_ms)

    def answer_sync(
        self, msg: SyncRequest, arrival_ms: int, send_ms: int | None = None
    ) -> SyncResponse:
        """The answer to a SYNC received at `arrival_ms` and answered at
        `send_ms`, or at once if that is None; a SYNC changes no state."""
        t3 = arrival_ms if send_ms is None else send_ms
        return tuple.__new__(SyncResponse, (msg.t1, arrival_ms, t3))  # the type has no checks

    def _reject_malformed(self, line: str, arrival_ms: int) -> str:
        self.log.append(arrival_ms, TAG_REJECT, line)
        return self._reject_lines["MALFORMED"]

    # -- round lifecycle --------------------------------------------------

    def close_due(self, now_ms: int) -> list[RoundTally]:
        """Close every open round whose acceptance window has passed.

        The one way a round closes. Each CLOSE is logged before its tally is
        marked closed, so a failed append leaves memory matching the log.
        """
        due = [t for t in self.tallies.values() if not t.closed and now_ms > t.window_close_ms]
        for tally in due:
            self.log.append(now_ms, TAG_CLOSE, tally.round.wire())
            tally.closed = True
        return due

    def all_closed(self) -> bool:
        return all(t.closed for t in self.tallies.values())

    # -- reads -----------------------------------------------------------

    def distribution(self) -> tuple[list[int], int | None]:
        """Calibration counts in round order, plus the execution count if closed."""
        counts = []
        for i in range(self.config.n_rounds):
            tally = self.tallies[RoundRef.cal(i)]
            if not tally.closed:
                raise CounterError(f"calibration round {i} is still open")
            counts.append(tally.count)
        exe = self.tallies[RoundRef.exe()]
        return counts, exe.count if exe.closed else None


@dataclass
class _LogContent:
    """What a log records, before any config or completeness check."""

    seen: set[tuple[RoundRef, str]] = field(default_factory=set)
    counts: dict[RoundRef, int] = field(default_factory=dict)
    closed: set[RoundRef] = field(default_factory=set)
    surveys: list[Survey] = field(default_factory=list)


def _interpret_log(events: Iterable[LogEvent]) -> _LogContent:
    """The one reading of a counter log, shared by restart and `analyze`.

    An ACCEPT must hold a report and no (round, nonce) pair may be accepted
    twice; a SURVEY must hold a survey; a CLOSE must name a round in the wire
    grammar; a REJECT never changed state and is skipped. Anything else makes
    the log corrupt and raises CounterError.
    """
    content = _LogContent()
    for event in events:
        if event.tag == TAG_REJECT:
            continue
        try:
            if event.tag == TAG_CLOSE:
                content.closed.add(_round_ref(event.raw))
                continue
            msg = decode_message(event.raw)
        except ValueError as exc:
            raise CounterError(f"corrupt {event.tag} event: {event.raw!r}") from exc
        if event.tag == TAG_ACCEPT and isinstance(msg, Report):
            key = (msg.round, msg.nonce)
            if key in content.seen:
                raise CounterError(f"log accepts {key} twice")
            content.seen.add(key)
            content.counts[msg.round] = content.counts.get(msg.round, 0) + 1
        elif event.tag == TAG_SURVEY and isinstance(msg, Survey):
            content.surveys.append(msg)
        else:
            raise CounterError(f"corrupt {event.tag} event: {event.raw!r}")
    return content


def replay_events(config: ExperimentConfig, events: Iterable[LogEvent]) -> CounterCore:
    """Rebuild counter state from logged events.

    The log is authoritative: recorded outcomes are applied, not re-decided.
    A corrupt log, or one naming a round this config does not schedule, does
    not belong to this config and raises CounterError.
    """
    content = _interpret_log(events)
    core = CounterCore(config)
    for round in (*content.counts, *content.closed):
        if round not in core.tallies:
            raise CounterError(f"log names round {round.wire()}, which the config lacks")
    core.seen = content.seen
    core.surveys = content.surveys
    for round, count in content.counts.items():
        core.tallies[round].count = count
    for round in content.closed:
        core.tallies[round].closed = True
    return core


def replay_log_file(config: ExperimentConfig, path: str | Path) -> CounterCore:
    """Recover state from a log file and keep appending to it once it replays."""
    events = read_log(path) if Path(path).exists() else []
    core = replay_events(config, events)
    core.log = EventLog(path)
    return core


def log_distribution(events: Iterable[LogEvent]) -> tuple[list[int], int]:
    """Counts per closed round from a finished log, without needing the config.

    Requires every calibration round 0..n-1 and the execution round closed;
    n is inferred from the CLOSE events.
    """
    content = _interpret_log(events)
    closed = content.closed
    cal_indices = sorted(r.index for r in closed if not r.is_execution)
    if not cal_indices or cal_indices != list(range(cal_indices[-1] + 1)):
        raise CounterError("log is incomplete: not every calibration round is closed")
    if RoundRef.exe() not in closed:
        raise CounterError("log is incomplete: the execution round is not closed")
    if any(r not in closed for r in content.counts):
        raise CounterError("log accepts reports for a round that never closed")
    cal_counts = [content.counts.get(RoundRef.cal(i), 0) for i in cal_indices]
    return cal_counts, content.counts.get(RoundRef.exe(), 0)


# --- TCP service -------------------------------------------------------------


class CounterService:
    """TCP front end: one entry per request line, durable log, rounds closed on time.

    The service always has a log file, replayed at start and fsynced before
    any answer to its events. The serving loop accepts connections and
    serves each on its own thread. `handle` answers a request line under the
    service lock, on the thread that serves its connection; it never closes
    a round. Between accepts, at least every STOP_POLL_S, the serving loop
    closes the rounds that are due and fsyncs their CLOSEs: it is the only
    service code that closes one.

    `stop` ends the service from any thread or a signal handler; the serving
    loop then closes the socket and the log. `shutdown` stops and closes them
    itself, and may be called more than once. A log that stops under the
    service (a failed write or fsync) stops it too, with the reason kept in
    `error`. With `until_complete` the service stops itself once every round
    is closed, which keeps scripted runs and tests from hanging.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        address: tuple[str, int],
        log_path: str | Path,
        *,
        clock: Clock | None = None,
        until_complete: bool = False,
    ) -> None:
        self.clock = clock if clock is not None else SystemClock()
        self._lock = threading.Lock()
        self._until_complete = until_complete
        try:
            self.core = replay_log_file(config, log_path)
        except OSError as exc:
            raise CounterError(f"cannot open log {log_path}: {exc}") from exc
        self._listener = socket.socket()  # not create_server, which rewords bind errors
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(address)
            # a small backlog overflows when a roll call's clients connect at
            # once; the kernel then completes the handshake only on a
            # retransmission 0.2-1 s later, and that wait lands on the up leg
            # of each such client's first SYNC
            self._listener.listen(socket.SOMAXCONN)
        except OSError:
            self._listener.close()
            self.core.log.close()
            raise
        self._listener.settimeout(STOP_POLL_S)  # of one accept
        self.address: tuple[str, int] = self._listener.getsockname()
        self.error: str | None = None  # why the log stopped the service
        # a plain flag, so a signal handler sets it without taking a lock
        self._stop_requested = False

    def handle(self, raw: bytes) -> str:
        """Answer one request line, given without its "\\n".

        Every byte-level rule of a request line is here: a line longer than
        MAX_LINE_BYTES is malformed and never decoded, and the REJECT logs its
        first MAX_LINE_BYTES bytes, dropping a character they cut; a line that
        is not UTF-8 is malformed and logged as empty text; one trailing "\\r"
        is dropped, and any other is part of the line.
        """
        arrival = self.clock.now_ms()
        overlong = len(raw) > MAX_LINE_BYTES
        if overlong:
            line = raw[:MAX_LINE_BYTES].decode("utf-8", "ignore")
        else:
            try:
                line = raw.decode("utf-8").removesuffix("\r")
            except UnicodeDecodeError:
                line = ""
        with self._lock:
            # a stopping service answers nothing more, not even a sync exchange
            if self._stop_requested:
                raise CounterError(self.error or "the counter is stopping")
            if overlong:  # one answer per line, and a prefix is never decoded
                return self.core._reject_malformed(line, arrival)
            return self.core.handle_line(line, arrival, send_ms=self.clock.now_ms())

    def _serve(self, conn: socket.socket) -> None:
        """Frame request lines and answer them in batches (group commit).

        Each read takes what the connection has ready. Its complete lines go to
        `handle` in order; an over-long line goes once, as soon as it is known
        to be over-long, and its rest is skipped. Then one `EventLog.sync`
        covers the events they logged, and one write sends their answers. A
        SYNC is answered on its own: the answers ahead of it are committed
        first, and its SYNCR, which logs nothing, is written as soon as it is
        made, without waiting for any fsync.
        """
        answers: list[bytes] = []  # each answers a logged request

        def commit() -> None:
            """Make the pending answers' events durable, then send the answers."""
            if answers:
                self.core.log.sync()
                conn.sendall(b"".join(answers))
                answers.clear()

        def request(raw: bytes) -> None:
            if raw.startswith(b"SYNC"):  # stamp a sync only once the answers ahead are sent
                commit()
            answer = self.handle(raw).encode("utf-8") + b"\n"
            if answer.startswith(b"SYNCR "):
                conn.sendall(answer)
            else:
                answers.append(answer)

        pending = b""  # a line whose "\n" has not arrived yet
        skipping = False  # inside an over-long line, discarding up to its "\n"
        try:
            while chunk := conn.recv(READ_BYTES):
                lines = (pending + chunk).split(b"\n")
                pending = lines.pop()
                for line in lines:
                    if skipping:
                        skipping = False
                    else:
                        request(line)
                if skipping:
                    pending = b""
                elif len(pending) > MAX_LINE_BYTES:
                    request(pending)
                    pending, skipping = b"", True
                commit()
            if pending:  # a last line without "\n", then end of stream
                request(pending)
                commit()
        except (BrokenPipeError, ConnectionResetError):
            pass
        except CounterError as exc:
            # the log stopped, or the service is stopping: no answer, and a
            # log that stopped under a running service stops the service
            self.stop(str(exc))
        finally:
            with suppress(OSError):  # so the peer reads a clean end of stream
                conn.shutdown(socket.SHUT_WR)
            conn.close()

    def _close_due(self) -> None:
        """Close and fsync the rounds that are due; stop once all are, if asked to."""
        try:
            with self._lock:
                closed = self.core.close_due(self.clock.now_ms())
                done = self.core.all_closed()
            if closed:
                self.core.log.sync()
        except CounterError as exc:
            self.stop(str(exc))
            return
        if done and self._until_complete:
            self.stop()

    def stop(self, error: str | None = None) -> None:
        """Ask the service to stop and return at once; safe in a signal handler.

        `error` says why the log stopped; it is kept only if no stop was asked
        for before, so a request that finds the log closed by an orderly stop
        records nothing.
        """
        if not self._stop_requested:
            self.error = error
        self._stop_requested = True

    def serve_forever(self) -> None:
        """Serve until `stop`, then close the socket and the log.

        Returns at once if the service was shut down before it served.
        """
        try:
            while not self._stop_requested:
                try:
                    conn = self._listener.accept()[0]
                except TimeoutError:
                    pass
                except OSError:  # such as EMFILE, which an accept at once would meet again
                    time.sleep(STOP_POLL_S)
                else:
                    try:
                        threading.Thread(target=self._serve, args=(conn,), daemon=True).start()
                    except RuntimeError:  # no thread left to serve it
                        conn.close()
                self._close_due()
        finally:
            self._close()

    def _close(self) -> None:
        """Close the socket and the log; a second call finds both closed."""
        self._listener.close()
        try:
            # a connection still open gets no answer once a stop is asked for,
            # and under the lock no request is logged after the final fsync
            with self._lock:
                self.core.log.close()
        except CounterError as exc:  # the final fsync failed
            self.error = self.error or str(exc)

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop and return once the socket and the log are closed."""
        self.stop()
        self._close()
