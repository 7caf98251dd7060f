import errno
import os
import resource
import signal
import socket
import sys
import tempfile
import threading
import time
import tracemalloc
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rollcall.counter import (
    MAX_LINE_BYTES,
    CounterCore,
    CounterError,
    CounterService,
    EventLog,
    log_distribution,
    parse_log_line,
    read_log,
    replay_events,
    replay_log_file,
)
from rollcall.protocol import (
    _INT_RE,
    Ack,
    Reject,
    Report,
    SURVEY_CODES,
    RoundRef,
    Survey,
    SyncRequest,
    decode_message,
    derive_token,
    encode_message,
)

from conftest import FakeClock, make_config, submit


def report_for(config, round, nonce):
    return Report(round, nonce, derive_token(config.secret, round))


class TestAcceptReport:
    def test_accept_then_dup(self, config):
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        inside = config.window_open(r0) + 1
        assert submit(core, report_for(config, r0, "nonce-01"), inside) == Ack(r0)
        assert core.tallies[r0].count == 1
        assert submit(core, report_for(config, r0, "nonce-01"), inside + 1) == Reject("DUP")
        assert core.tallies[r0].count == 1

    def test_window_boundaries(self, config):
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        open_, close = config.window_open(r0), config.window_close(r0)
        assert submit(core, report_for(config, r0, "early-000"), open_ - 1) == Reject("EARLY")
        assert submit(core, report_for(config, r0, "edge-open"), open_) == Ack(r0)
        assert submit(core, report_for(config, r0, "edge-close"), close) == Ack(r0)
        assert submit(core, report_for(config, r0, "late-0000"), close + 1) == Reject("LATE")
        assert core.tallies[r0].count == 2

    def test_bad_token(self, config):
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        bad = Report(r0, "nonce-01", "0" * 32)
        assert submit(core, bad, config.window_open(r0)) == Reject("BADTOKEN")
        assert core.tallies[r0].count == 0

    def test_bad_round_with_valid_token(self, config):
        # the token check is keyed to the claimed round, so an out-of-schedule
        # round with its own correctly derived token is BADROUND, not BADTOKEN
        core = CounterCore(config)
        ghost = RoundRef.cal(99)
        report = Report(ghost, "nonce-01", derive_token(config.secret, ghost))
        assert submit(core, report, config.window_open(RoundRef.cal(0))) == Reject("BADROUND")

    def test_distinct_nonces_counted(self, config):
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        at = config.window_open(r0)
        for i in range(5):
            submit(core, report_for(config, r0, f"nonce-{i:03d}"), at + i)
        assert core.tallies[r0].count == 5

    def test_rejections_never_mutate(self, config):
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        submit(core, Report(r0, "nonce-01", "f" * 32), config.window_open(r0))
        submit(core, report_for(config, r0, "nonce-02"), config.window_open(r0) - 5)
        assert core.tallies[r0].count == 0
        assert core.seen == set()

    def test_off_schedule_rounds_leave_nothing_held(self, config):
        # each line makes the core derive the token of a round that is not in
        # the schedule; once the logged lines are dropped, nothing of the
        # hostile indices may stay behind
        core = CounterCore(config)
        at = config.window_open(RoundRef.cal(0))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(4096):
                index = str(i + 1) + "7" * 4200
                line = f"REPORT CAL {index} nonce-001 {'0' * 32}"
                assert core.handle_line(line, at) == "REJ BADTOKEN"
            core.log.lines.clear()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - before < 2_000_000


class TestRoundLifecycle:
    def test_close_before_window_end_fails(self, config):
        # the window's last millisecond still accepts reports: nothing closes
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        assert core.close_due(config.window_close(r0)) == []
        assert not core.tallies[r0].closed
        assert core.log.lines == []

    def test_close_freezes_and_is_idempotent(self, config):
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        at = config.window_open(r0)
        for i in range(3):
            submit(core, report_for(config, r0, f"nonce-{i:03d}"), at)
        after = config.window_close(r0) + 1
        assert core.close_due(after) == [core.tallies[r0]]
        assert core.tallies[r0].closed and core.tallies[r0].count == 3
        assert core.close_due(after + 5) == []
        assert submit(core, report_for(config, r0, "nonce-xyz"), at) == Reject("LATE")
        assert core.tallies[r0].count == 3
        assert [l for l in core.log.lines if " CLOSE " in l] == [f"{after} CLOSE CAL 0"]

    def test_distribution_requires_closed_calibration(self, config):
        core = CounterCore(config)
        with pytest.raises(CounterError):
            core.distribution()
        core.close_due(config.window_close(RoundRef.cal(0)) + 1)
        with pytest.raises(CounterError, match="calibration round 1 is still open"):
            core.distribution()
        last_cal = RoundRef.cal(config.n_rounds - 1)
        core.close_due(config.window_close(last_cal) + 1)
        counts, n_star = core.distribution()
        assert counts == [0, 0, 0]
        assert n_star is None  # execution round still open
        core.close_due(config.window_close(RoundRef.exe()) + 1)
        assert core.distribution() == ([0, 0, 0], 0)

    def test_close_due_closes_everything_past(self, config):
        core = CounterCore(config)
        done = core.close_due(config.window_close(RoundRef.exe()) + 1)
        assert len(done) == config.n_rounds + 1
        assert core.all_closed()


@st.composite
def counter_steps(draw):
    """Reports (off-schedule rounds, bad tokens, repeated nonces, arrivals on
    both edges of each window), surveys and round closes, for `make_config()`."""
    config = make_config()
    length = config.window_close(RoundRef.cal(0)) - config.window_open(RoundRef.cal(0))
    nonces = st.sampled_from(["nonce-01", "nonce-02", "stranger"])
    steps = []
    for kind in draw(st.lists(st.sampled_from(["report", "survey", "close"]), max_size=30)):
        index = draw(st.integers(0, 5))  # 3 = the execution round, 4 and 5 off-schedule
        round = RoundRef.exe() if index == 3 else RoundRef.cal(index)
        edge = draw(st.sampled_from([-1, 0, length, length + 1]))
        at = config.window_open(round) + draw(st.just(edge) | st.integers(-20_000, 120_000))
        if kind == "report":
            token = derive_token(config.secret, round) if draw(st.booleans()) else "0" * 32
            steps.append(("line", encode_message(Report(round, draw(nonces), token)), at))
        elif kind == "survey":
            survey = Survey(draw(nonces), draw(st.sampled_from(sorted(SURVEY_CODES))),
                            draw(st.text(max_size=8)))
            steps.append(("line", encode_message(survey), at))
        else:
            steps.append(("close", None, at))
    return steps


class TestHandleLine:
    def test_sync_answered_not_logged(self, config):
        core = CounterCore(config)
        assert core.handle_line("SYNC 123", 500, send_ms=502) == "SYNCR 123 500 502"
        assert core.log.lines == []

    @settings(deadline=None, max_examples=200)
    @given(
        st.from_regex(_INT_RE, fullmatch=True),
        st.integers(-(2**63), 2**63),
        st.one_of(st.none(), st.integers(0, 2**31)),
    )
    def test_a_sync_line_is_answered_by_the_value_rule(self, t1, arrival, wait):
        """`handle_line` answers a SYNC line with `answer_sync` encoded, and
        neither changes the log, the dedupe set or the tallies."""
        assume(len(t1) < 4000)  # int() takes no more digits
        config = make_config()
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        submit(core, report_for(config, r0, "nonce-01"), config.window_open(r0))
        before = list(core.log.lines), set(core.seen), _tally_values(core)
        send = None if wait is None else arrival + wait
        answer = core.answer_sync(SyncRequest(int(t1)), arrival, send)
        assert core.handle_line(f"SYNC {t1}", arrival, send_ms=send) == encode_message(answer)
        assert answer == (int(t1), arrival, arrival if send is None else send)
        assert (core.log.lines, core.seen, _tally_values(core)) == before

    def test_malformed_logged_and_rejected(self, config):
        core = CounterCore(config)
        assert core.handle_line("REPORT CAL two x y", 500) == "REJ MALFORMED"
        assert core.log.lines == ["500 REJECT REPORT CAL two x y"]

    def test_wrong_direction_message_rejected(self, config):
        core = CounterCore(config)
        assert core.handle_line("ACK CAL 0", 500) == "REJ MALFORMED"

    def test_report_dispatch(self, config):
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        line = encode_message(report_for(config, r0, "nonce-01"))
        assert core.handle_line(line, config.window_open(r0)) == "ACK CAL 0"

    @settings(deadline=None, max_examples=150)
    @given(counter_steps())
    def test_a_decoded_message_changes_nothing(self, steps):
        """Passing `decode_message(line)` along skips the decode, not a decision."""
        config = make_config()
        given_msg, decoding = CounterCore(config), CounterCore(config)
        for kind, line, at in steps:
            if kind == "close":
                assert given_msg.close_due(at) == decoding.close_due(at)
            else:
                answer = given_msg.handle_line(line, at, msg=decode_message(line))
                assert answer == decoding.handle_line(line, at)
        assert given_msg.log.lines == decoding.log.lines
        assert _state(given_msg) == _state(decoding)


class TestSurveys:
    def test_survey_accepted_and_kept(self, config):
        core = CounterCore(config)
        line = encode_message(Survey("stranger1", "INTERFERENCE", "screen flickered"))
        assert core.handle_line(line, config.t_star_ms + 1000) == "ACK EXE 0"
        assert len(core.surveys) == 1
        assert core.surveys[0].text == "screen flickered"

    def test_surveys_are_append_only(self, config):
        core = CounterCore(config)
        at = config.t_star_ms + 1000
        core.handle_line(encode_message(Survey("aaaaaaaa", "FORGOT", "")), at)
        core.handle_line(encode_message(Survey("aaaaaaaa", "FORGOT", "second answer")), at + 1)
        assert [s.text for s in core.surveys] == ["", "second answer"]


nonce_st = st.text(st.sampled_from("abcdefghij0123456789"), min_size=8, max_size=12)


class TestReplay:
    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # round index; 3 = execution
                nonce_st,
                st.integers(-20_000, 120_000),  # arrival relative to window open
                st.booleans(),  # corrupt the token?
            ),
            max_size=40,
        )
    )
    def test_log_replay_reconstructs_state(self, entries):
        config = make_config()
        core = CounterCore(config)
        for idx, nonce, rel, corrupt in entries:
            round = RoundRef.exe() if idx == 3 else RoundRef.cal(idx)
            token = "0" * 32 if corrupt else derive_token(config.secret, round)
            submit(core, Report(round, nonce, token), config.window_open(round) + rel)
        core.close_due(config.window_close(RoundRef.exe()) + 1)
        events = [parse_log_line(line) for line in core.log.lines]
        replayed = replay_events(config, events)
        assert replayed.seen == core.seen
        assert {r: t.count for r, t in replayed.tallies.items()} == {
            r: t.count for r, t in core.tallies.items()
        }
        assert all(replayed.tallies[r].closed for r in replayed.tallies)

    @settings(deadline=None, max_examples=30)
    @given(st.permutations([f"nonce-{i:03d}" for i in range(8)]))
    def test_arrival_order_does_not_change_count(self, nonces):
        config = make_config()
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        for i, nonce in enumerate(nonces):
            submit(core, report_for(config, r0, nonce), config.window_open(r0) + i)
        assert core.tallies[r0].count == 8

    def test_conservation_against_log(self, config):
        core = CounterCore(config)
        r0, r1 = RoundRef.cal(0), RoundRef.cal(1)
        at0, at1 = config.window_open(r0), config.window_open(r1)
        submit(core, report_for(config, r0, "nonce-01"), at0)
        submit(core, report_for(config, r0, "nonce-01"), at0)  # DUP
        submit(core, report_for(config, r0, "nonce-02"), at0)
        submit(core, report_for(config, r1, "nonce-01"), at1)  # same nonce, new round
        accepts = [l for l in core.log.lines if " ACCEPT " in l]
        assert len(accepts) == 3
        assert core.tallies[r0].count == 2
        assert core.tallies[r1].count == 1

    def test_corrupt_log_detected(self, config):
        line = "100 ACCEPT REPORT CAL 0 nonce-01 " + derive_token(config.secret, RoundRef.cal(0))
        events = [parse_log_line(line), parse_log_line(line)]
        with pytest.raises(CounterError, match="twice"):
            replay_events(config, events)


class TestLogFiles:
    def test_torn_trailing_line_dropped(self, tmp_path, config):
        path = tmp_path / "counter.log"
        token = derive_token(config.secret, RoundRef.cal(0))
        path.write_bytes(
            f"100 ACCEPT REPORT CAL 0 nonce-01 {token}\n"
            f"101 ACCEPT REPORT CAL 0 nonce-02 {token}\n"
            f"102 ACCEPT REPORT CAL 0 non".encode()  # crash mid-write
        )
        events = read_log(path)
        assert len(events) == 2

    def test_replay_file_then_continue_appending(self, tmp_path, config):
        path = tmp_path / "counter.log"
        r0 = RoundRef.cal(0)
        first = CounterCore(config, EventLog(path))
        submit(first, report_for(config, r0, "nonce-01"), config.window_open(r0))
        first.log.close()

        core = replay_log_file(config, path)
        assert core.tallies[r0].count == 1
        assert submit(
            core, report_for(config, r0, "nonce-01"), config.window_open(r0) + 1
        ) == Reject("DUP")
        submit(core, report_for(config, r0, "nonce-02"), config.window_open(r0) + 2)
        core.log.close()
        assert len(read_log(path)) == 3  # 1 old accept + dup reject + new accept

    def test_log_distribution(self, config):
        core = CounterCore(config)
        r0 = RoundRef.cal(0)
        exe = RoundRef.exe()
        submit(core, report_for(config, r0, "nonce-01"), config.window_open(r0))
        submit(core, report_for(config, exe, "nonce-01"), config.window_open(exe))
        core.close_due(config.window_close(exe) + 1)
        events = [parse_log_line(line) for line in core.log.lines]
        assert log_distribution(events) == ([1, 0, 0], 1)

    def test_log_distribution_rejects_incomplete(self, config):
        core = CounterCore(config)
        core.close_due(config.window_close(RoundRef.cal(0)) + 1)  # closes CAL 0 alone
        events = [parse_log_line(line) for line in core.log.lines]
        with pytest.raises(CounterError, match="incomplete"):
            log_distribution(events)


def finished_log_lines(config, accepts):
    """A finished log: ACCEPTs for (round, nonce) pairs, then every CLOSE."""
    lines = [
        f"{t} ACCEPT {encode_message(report_for(config, round, nonce))}"
        for t, (round, nonce) in enumerate(accepts)
    ]
    end = config.window_close(RoundRef.exe()) + 1
    return lines + [f"{end} CLOSE {r.wire()}" for r in config.rounds()]


def write_lines(path, lines):
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


def interpretations(config, path):
    """What restart and `analyze` each make of a log file: counts or an error."""

    def outcome(read):
        try:
            return read()
        except CounterError:
            return CounterError

    restarted = outcome(lambda: replay_events(config, read_log(path)).distribution())
    analyzed = outcome(lambda: log_distribution(read_log(path)))
    return restarted, analyzed


# events that make a log corrupt, each as "<TAG> <payload>"
CORRUPT_EVENTS = [
    "CLOSE CAL x",
    "CLOSE EXE 5",
    "CLOSE EXE 1",
    "CLOSE CAL -0",
    "CLOSE CAL 01",
    "CLOSE CAL  1",
    "CLOSE CAL +1",
    "CLOSE CAL 1_0",
    "CLOSE CAL 1 extra",
    pytest.param("CLOSE CAL " + "9" * 5000, id="CLOSE CAL <5000 digits>"),
    "SURVEY garbage",
    "SURVEY ACK CAL 0",
    "ACCEPT garbage",
    "ACCEPT SURVEY nonce-01 FORGOT -",
]
CORRUPT_EVENT_TEXTS = [e if isinstance(e, str) else e.values[0] for e in CORRUPT_EVENTS]
# REJECT payloads holding line breaks other than "\n"
HOSTILE_PAYLOADS = ["abc\u2028def", "abc\x85def", "abc\x1cdef", "abc\x1ddef", "abc\x1edef",
                    "abc\rdef", "abc\u2029def"]


class TestLogInterpreter:
    @pytest.mark.parametrize("event", CORRUPT_EVENTS)
    def test_corrupt_event_rejected_by_restart_and_analyze(self, tmp_path, config, event):
        path = tmp_path / "counter.log"
        lines = finished_log_lines(config, [(RoundRef.cal(0), "nonce-01")])
        write_lines(path, [lines[0], f"7 {event}", *lines[1:]])
        assert interpretations(config, path) == (CounterError, CounterError)

    @pytest.mark.parametrize("line", ["", "7 ACCEPT", "x CLOSE CAL 0", "-- CLOSE CAL 0",
                                      "\u00b2 CLOSE CAL 0", "07 CLOSE CAL 0", "7 OPEN CAL 0"])
    def test_corrupt_line_rejected(self, line):
        with pytest.raises(CounterError, match="corrupt log line"):
            parse_log_line(line)

    def test_log_that_is_not_utf8(self, tmp_path, config):
        path = tmp_path / "counter.log"
        path.write_bytes(b"7 REJECT \xff\n")
        assert interpretations(config, path) == (CounterError, CounterError)

    def test_round_outside_config_fails_restart_only(self, tmp_path, config):
        # the one check that needs the config; the log itself is well formed
        path = tmp_path / "counter.log"
        bigger = make_config(n_rounds=config.n_rounds + 1)
        write_lines(path, finished_log_lines(bigger, [(RoundRef.cal(3), "nonce-01")]))
        with pytest.raises(CounterError, match="CAL 3"):
            replay_events(config, read_log(path))
        assert log_distribution(read_log(path)) == ([0, 0, 0, 1], 0)

    @pytest.mark.parametrize("payload", HOSTILE_PAYLOADS)
    def test_hostile_request_does_not_poison_restarts(self, tmp_path, config, payload):
        path = tmp_path / "counter.log"
        r0 = RoundRef.cal(0)
        at = config.window_open(r0)
        core = replay_log_file(config, path)
        assert core.handle_line(f"REPORT CAL 0 {payload}", at) == "REJ MALFORMED"
        submit(core, report_for(config, r0, "nonce-01"), at)
        core.log.close()
        for _ in range(2):
            core = replay_log_file(config, path)
            submit(core, report_for(config, r0, "nonce-02"), at)
            core.log.close()
        events = read_log(path)
        assert [e.raw for e in events if e.tag == "REJECT"][0] == f"REPORT CAL 0 {payload}"
        assert core.tallies[r0].count == 2

    def test_torn_tail_is_truncated_before_appending(self, tmp_path, config):
        path = tmp_path / "counter.log"
        r0 = RoundRef.cal(0)
        at = config.window_open(r0)
        write_lines(path, finished_log_lines(config, [(r0, "nonce-01")])[:1])
        with path.open("ab") as fh:
            fh.write(b"101 ACCEPT REPORT CAL 0 non")  # crash mid-write
        core = replay_log_file(config, path)
        assert submit(core, report_for(config, r0, "nonce-02"), at) == Ack(r0)
        core.log.close()
        assert path.read_bytes().count(b"non") == 2  # the torn bytes are gone
        again = replay_log_file(config, path)
        again.log.close()
        assert again.seen == {(r0, "nonce-01"), (r0, "nonce-02")}

    def test_log_without_any_newline_is_all_torn(self, tmp_path, config):
        path = tmp_path / "counter.log"
        path.write_bytes(b"x" * (3 * 8192 + 5))
        assert read_log(path) == []
        core = replay_log_file(config, path)
        core.handle_line("garbage", 5)
        core.log.close()
        assert path.read_bytes() == b"5 REJECT garbage\n"

    @settings(deadline=None, max_examples=100)
    @given(st.binary())
    @example(b"")
    @example(b"no newline at all")
    @example(b"1 CLOSE CAL 0\n" + b"\xff" * (2 * MAX_LINE_BYTES + 1))
    def test_the_log_cuts_exactly_the_tail_reading_skips(self, data):
        whole = data[: data.rfind(b"\n") + 1]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counter.log"
            path.write_bytes(data)
            log = EventLog(path)
            assert path.read_bytes() == whole
            log.append(5, "REJECT", "garbage")
            log.close()
            assert path.read_bytes() == whole + b"5 REJECT garbage\n"

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, 4), nonce_st).map(lambda a: ("accept", *a)),
                st.sampled_from(CORRUPT_EVENT_TEXTS).map(lambda e: ("event", e)),
                st.sampled_from(HOSTILE_PAYLOADS).map(lambda p: ("event", f"REJECT {p}")),
                st.text(max_size=30).map(lambda t: ("event", f"REJECT {t}")),
                st.text(max_size=30).map(lambda t: ("line", t)),
            ),
            max_size=12,
        )
    )
    def test_restart_and_analyze_agree(self, entries):
        # round index 4 lies outside the 3-round config: both must refuse it
        config = make_config()
        lines = []
        for entry in entries:
            if entry[0] == "accept":
                _, idx, nonce = entry
                round = RoundRef.exe() if idx == 3 else RoundRef.cal(idx)
                lines.append(f"1 ACCEPT {encode_message(report_for(config, round, nonce))}")
            elif entry[0] == "event":
                lines.append(f"1 {entry[1]}")
            else:
                lines.append(entry[1].replace("\n", " "))
        lines += finished_log_lines(config, [])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counter.log"
            write_lines(path, lines)
            restarted, analyzed = interpretations(config, path)
        assert restarted == analyzed

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.text(max_size=40).map(lambda t: t.replace("\n", "")), max_size=10))
    def test_any_request_lines_replay_to_identical_state(self, requests):
        config = make_config()
        r0 = RoundRef.cal(0)
        at = config.window_open(r0)
        token = derive_token(config.secret, r0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counter.log"
            core = CounterCore(config, EventLog(path))
            for i, line in enumerate(requests):
                core.handle_line(line, at)
                core.handle_line(f"REPORT CAL 0 nonce-{i:03d} {token}", at)
            core.log.close()
            replayed = replay_events(config, read_log(path))
        assert replayed.seen == core.seen
        assert replayed.surveys == core.surveys
        assert {r: t.count for r, t in replayed.tallies.items()} == {
            r: t.count for r, t in core.tallies.items()
        }


class TestFailStopLog:
    """A log write or fsync that fails stops the log: no answer goes out for
    the event, nothing after it is logged, and restarts replay cleanly."""

    @staticmethod
    def _started(config, path):
        core = replay_log_file(config, path)
        r0 = RoundRef.cal(0)
        assert submit(core, report_for(config, r0, "nonce-001"), config.window_open(r0)) == Ack(r0)
        return core

    @staticmethod
    def _assert_restarts_replay(config, path, counted):
        r0 = RoundRef.cal(0)
        core = replay_log_file(config, path)
        assert core.seen == {(r0, nonce) for nonce in counted}
        assert submit(core, report_for(config, r0, "nonce-002"), config.window_open(r0)) == Ack(r0)
        core.log.close()
        again = replay_log_file(config, path)
        again.log.close()
        assert again.tallies[r0].count == len(counted | {"nonce-002"})

    def test_append_past_the_file_size_limit(self, tmp_path, config):
        # the limit and the ignored SIGXFSZ act on this process only, and only here
        path = tmp_path / "counter.log"
        core = self._started(config, path)
        line = encode_message(report_for(config, RoundRef.cal(0), "nonce-002"))
        at = config.window_open(RoundRef.cal(0))
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        try:
            resource.setrlimit(resource.RLIMIT_FSIZE, (path.stat().st_size + 20, limits[1]))
            with pytest.raises(CounterError):
                core.handle_line(line, at)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        with pytest.raises(CounterError):  # the client's retry is not answered either
            core.handle_line(line, at)
        assert core.tallies[RoundRef.cal(0)].count == 1
        core.log.close()
        self._assert_restarts_replay(config, path, {"nonce-001"})

    @pytest.mark.parametrize("short", [False, True], ids=["raises", "returns-short"])
    def test_a_write_cut_at_any_byte(self, tmp_path, config, monkeypatch, short):
        at = config.window_open(RoundRef.cal(0))
        line = encode_message(report_for(config, RoundRef.cal(0), "nonce-002"))
        real_write = os.write
        for k in range(len(f"{at} ACCEPT {line}\n") + (not short)):
            path = tmp_path / f"cut-{k}.log"
            core = self._started(config, path)
            before = path.read_bytes()

            def cut(fd, data):
                kept = real_write(fd, data[:k])
                if short:
                    return kept
                raise OSError(errno.EIO, "injected")

            with monkeypatch.context() as patched:
                patched.setattr(os, "write", cut)
                with pytest.raises(CounterError):
                    core.handle_line(line, at)
            assert path.read_bytes() == before
            with pytest.raises(CounterError):
                core.handle_line(line, at)
            core.log.close()
            self._assert_restarts_replay(config, path, {"nonce-001"})

    def test_a_failed_fsync(self, tmp_path, config, monkeypatch):
        path = tmp_path / "counter.log"
        core = self._started(config, path)
        core.log.sync()
        at = config.window_open(RoundRef.cal(0))

        def failing_fsync(fd):
            raise OSError(errno.EIO, "injected")

        with monkeypatch.context() as patched:
            patched.setattr(os, "fsync", failing_fsync)
            logged = encode_message(report_for(config, RoundRef.cal(0), "nonce-003"))
            assert core.handle_line(logged, at) == "ACK CAL 0"  # the service waits for a sync
            with pytest.raises(CounterError):
                core.log.sync()
        with pytest.raises(CounterError):  # a retried fsync may report lost data as durable
            core.log.sync()
        with pytest.raises(CounterError):
            core.handle_line(encode_message(report_for(config, RoundRef.cal(0), "nonce-004")), at)
        core.log.close()
        # the logged, never answered nonce-003 counts: logged before acked
        self._assert_restarts_replay(config, path, {"nonce-001", "nonce-003"})

    def test_sync_after_a_failed_fsync_and_close_still_raises(self, tmp_path, config,
                                                             monkeypatch):
        core = self._started(config, tmp_path / "counter.log")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "injected")

        with monkeypatch.context() as patched:
            patched.setattr(os, "fsync", failing_fsync)
            with pytest.raises(CounterError):
                core.log.sync()
        core.log.close()
        # no fsync covers nonce-001, so no caller may take it as durable
        with pytest.raises(CounterError, match="failed fsync"):
            core.log.sync()


def _tally_values(core):
    return {r: (t.count, t.closed) for r, t in core.tallies.items()}


def _state(core):
    """Everything replay rebuilds: the dedupe set, the tallies and the surveys."""
    return core.seen, _tally_values(core), core.surveys


# a program for the durable-log model: requests, fsyncs, crashes and restarts
LOG_STEPS = st.lists(
    st.one_of(
        st.just(("valid",)),
        st.integers(0, 1 << 16).map(lambda i: ("resend", i)),
        st.sampled_from(["", "garbage", "REPORT CAL 0 x", "SYNC 1\r", "SYNCR 1 2 3"]
                        + [f"REPORT CAL 0 {p}" for p in HOSTILE_PAYLOADS]).map(
            lambda line: ("hostile", line)),
        st.just(("overlong",)),
        st.just(("sync",)),
        # keep this many of the bytes written since the last fsync, then a NUL tail
        st.tuples(st.just("crash"), st.integers(0, 1 << 16), st.integers(0, 64)),
        st.just(("restart",)),
    ),
    max_size=40,
)


class TestDurableLogModel:
    """A model of the durable log run against the file log in-process.

    An answer is delivered only at an fsync that covers its event, as the
    service delivers it. A crash keeps any prefix of the file at or beyond
    the size the last fsync covered, then maybe a tail of NULs. After every
    restart: the restart does not raise, every delivered ACK or DUP names a
    (round, nonce) pair replay counts, a second replay rebuilds the same
    state, and a clean restart rebuilds exactly the state before it.
    """

    @settings(deadline=None, max_examples=600)
    @given(LOG_STEPS)
    def test_acked_reports_survive_crashes_and_restarts(self, steps):
        config = make_config()
        r0 = RoundRef.cal(0)
        at = config.window_open(r0)
        token = derive_token(config.secret, r0)
        overlong = f"REPORT CAL 0 {'x' * MAX_LINE_BYTES} {token}"
        sent: list[str] = []  # every valid report, in order
        acked: set[tuple[RoundRef, str]] = set()  # pairs whose answer was delivered
        pending: list[tuple[RoundRef, str]] = []  # ... and those still waiting for an fsync
        with tempfile.TemporaryDirectory() as tmp, \
                unittest.mock.patch.object(os, "fsync", lambda fd: None):
            path = Path(tmp) / "counter.log"
            core = replay_log_file(config, path)
            durable, appended = 0, False

            def restart():
                nonlocal core
                core = replay_log_file(config, path)
                assert acked <= core.seen
                assert _state(replay_events(config, read_log(path))) == _state(core)

            for step in steps:
                if step[0] in ("valid", "resend"):
                    if step[0] == "valid":
                        sent.append(f"REPORT CAL 0 nonce-{len(sent):04d} {token}")
                        line = sent[-1]
                    elif not sent:
                        continue
                    else:
                        line = sent[step[1] % len(sent)]
                    key = (r0, line.split(" ")[3])
                    known = key in core.seen
                    assert core.handle_line(line, at) == ("REJ DUP" if known else "ACK CAL 0")
                    assert known or key not in acked
                    pending.append(key)  # a delivered DUP counts as reported too
                    appended = True
                elif step[0] in ("hostile", "overlong"):
                    line = step[1] if step[0] == "hostile" else overlong
                    assert core.handle_line(line, at).startswith("REJ ")
                    appended = True
                elif step[0] == "sync":
                    core.log.sync()
                    if appended:  # an fsync covers the whole file
                        durable, appended = path.stat().st_size, False
                    acked.update(pending)
                    pending.clear()
                elif step[0] == "crash":
                    core.log.close()  # with fsync a no-op, this leaves the file as is
                    size = path.stat().st_size
                    with open(path, "r+b") as fh:
                        fh.truncate(durable + step[1] % (size - durable + 1))
                        fh.seek(0, os.SEEK_END)
                        fh.write(b"\0" * step[2])
                    pending.clear()
                    appended = False
                    restart()
                else:  # a clean restart: the final fsync, and no answer after it
                    before = _state(core)
                    core.log.close()
                    if appended:
                        durable, appended = path.stat().st_size, False
                    pending.clear()
                    restart()
                    assert _state(core) == before
            core.log.close()


class TestService:
    def _exchange(self, address, lines):
        with socket.create_connection(address, timeout=5) as sock:
            reader = sock.makefile("rb")
            out = []
            for line in lines:
                sock.sendall(line.encode() + b"\n")
                out.append(reader.readline().decode().rstrip("\n"))
            return out

    def test_live_service_accepts_and_recovers(self, tmp_path):
        now = int(time.time() * 1000)
        # round 0's report window is open right now
        config = make_config(epoch_ms=now - 11_000, delta_t_ms=100_000, delta_tau_ms=10_000,
                             grace_ms=60_000)
        log_path = tmp_path / "svc.log"
        service = CounterService(config, ("127.0.0.1", 0), log_path)
        service.start_background()
        try:
            token = derive_token(config.secret, RoundRef.cal(0))
            responses = self._exchange(
                service.address,
                [
                    "SYNC 42",
                    f"REPORT CAL 0 live-nonce-1 {token}",
                    f"REPORT CAL 0 live-nonce-1 {token}",
                    "garbage line",
                ],
            )
            assert responses[0].startswith("SYNCR 42 ")
            assert responses[1] == "ACK CAL 0"
            assert responses[2] == "REJ DUP"
            assert responses[3] == "REJ MALFORMED"
        finally:
            service.shutdown()
        # recovery from the on-disk log alone
        core = replay_events(config, read_log(log_path))
        assert core.tallies[RoundRef.cal(0)].count == 1
        assert (RoundRef.cal(0), "live-nonce-1") in core.seen

    def test_a_request_never_closes_a_round(self, tmp_path, config):
        # no serving loop runs, so nothing but the request could close CAL 0
        r0 = RoundRef.cal(0)
        clock = FakeClock(config.window_close(r0) + 1)
        service = CounterService(config, ("127.0.0.1", 0), tmp_path / "svc.log", clock=clock)
        token = derive_token(config.secret, r0)
        try:
            answer = service.handle(f"REPORT CAL 0 late-nonce {token}".encode())
        finally:
            service.shutdown()
        assert answer == "REJ LATE"
        assert not service.core.tallies[r0].closed
        assert [e.tag for e in read_log(tmp_path / "svc.log")] == ["REJECT"]

    def test_only_one_trailing_cr_is_dropped(self, tmp_path, config):
        r0 = RoundRef.cal(0)
        clock = FakeClock(config.window_open(r0))
        service = CounterService(config, ("127.0.0.1", 0), tmp_path / "svc.log", clock=clock)
        report = f"REPORT CAL 0 nonce-0001 {derive_token(config.secret, r0)}"
        try:
            answers = [service.handle(line.encode()) for line in
                       (report + "\r\r\r", "SYNC 5\r\r", report + "\r")]
        finally:
            service.shutdown()
        assert answers == ["REJ MALFORMED", "REJ MALFORMED", "ACK CAL 0"]
        events = read_log(tmp_path / "svc.log")
        assert [(e.tag, e.raw) for e in events] == [
            ("REJECT", report + "\r\r"), ("REJECT", "SYNC 5\r"), ("ACCEPT", report)]
        assert service.core.tallies[r0].count == 1

    def test_burst_of_connections_fits_the_listen_backlog(self, tmp_path):
        # nothing accepts yet, so every handshake must complete from the
        # backlog alone; a full backlog drops the SYN and the connect times out
        service = CounterService(make_config(), ("127.0.0.1", 0), tmp_path / "svc.log")
        socks = []
        try:
            for _ in range(20):
                socks.append(socket.create_connection(service.address, timeout=0.5))
        finally:
            for sock in socks:
                sock.close()
            service.shutdown()

    def _live_service(self, tmp_path):
        now = int(time.time() * 1000)
        # round 0's report window is open right now
        config = make_config(epoch_ms=now - 11_000, delta_t_ms=100_000, delta_tau_ms=10_000,
                             grace_ms=60_000)
        service = CounterService(config, ("127.0.0.1", 0), tmp_path / "svc.log")
        service.start_background()
        return config, service

    def _answers(self, service, payload, n):
        """Send `payload` on one connection and read `n` answers, then any extra."""
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.sendall(payload)
            reader = sock.makefile("rb")
            answers = [reader.readline().decode().rstrip("\n") for _ in range(n)]
            sock.shutdown(socket.SHUT_WR)
            return answers, reader.read()

    def test_overlong_line_gets_one_answer(self, tmp_path):
        config, service = self._live_service(tmp_path)
        token = derive_token(config.secret, RoundRef.cal(0))
        try:
            answers, extra = self._answers(
                service,
                b"X" * MAX_LINE_BYTES + f"REPORT CAL 0 smuggled {token}\n".encode()
                + f"REPORT CAL 0 honest-1 {token}\n".encode(),
                2,
            )
        finally:
            service.shutdown()
        assert answers == ["REJ MALFORMED", "ACK CAL 0"]
        assert extra == b""
        events = read_log(tmp_path / "svc.log")
        assert [e.tag for e in events] == ["REJECT", "ACCEPT"]
        assert events[0].raw == "X" * MAX_LINE_BYTES
        assert "honest-1" in events[1].raw

    def test_line_that_is_not_utf8(self, tmp_path):
        config = make_config()
        clock = FakeClock(config.window_open(RoundRef.cal(0)))
        log_path = tmp_path / "svc.log"
        service = CounterService(config, ("127.0.0.1", 0), log_path, clock=clock,
                                 until_complete=True)
        thread = service.start_background()
        token = derive_token(config.secret, RoundRef.cal(0))
        try:
            answers, extra = self._answers(
                service,
                f"REPORT CAL 0 bad-\xff {token}\n".encode("latin-1")
                + f"REPORT CAL 0 honest-1 {token}\n".encode(),
                2,
            )
            clock.t = config.window_close(RoundRef.exe()) + 1
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            service.shutdown()
        assert answers == ["REJ MALFORMED", "ACK CAL 0"]
        assert extra == b""
        # the REJECT holds empty text: the line's bytes are not logged
        arrival = config.window_open(RoundRef.cal(0))
        assert log_path.read_bytes().startswith(f"{arrival} REJECT \n".encode())
        assert [e.tag for e in read_log(log_path)] == ["REJECT", "ACCEPT"] + ["CLOSE"] * 4
        assert interpretations(config, log_path) == (([1, 0, 0], 0), ([1, 0, 0], 0))

    @staticmethod
    def _longest_survey():
        """A well-formed SURVEY line of exactly MAX_LINE_BYTES bytes."""
        head = b"SURVEY survey-no FORGOT "
        line = head + b"AAAA" * ((MAX_LINE_BYTES - len(head)) // 4)
        assert len(line) == MAX_LINE_BYTES
        assert isinstance(decode_message(line.decode()), Survey)
        return line

    def test_line_of_max_length_is_one_request(self, tmp_path):
        config, service = self._live_service(tmp_path)
        try:
            answers, extra = self._answers(service, self._longest_survey() + b"\nSYNC 8\n", 2)
        finally:
            service.shutdown()
        assert answers[0] == "ACK EXE 0"
        assert answers[1].startswith("SYNCR 8 ")
        assert extra == b""
        assert [e.tag for e in read_log(tmp_path / "svc.log")] == ["SURVEY"]

    def test_overlong_survey_prefix_is_not_decoded(self, tmp_path):
        config, service = self._live_service(tmp_path)
        try:
            answers, extra = self._answers(
                service, self._longest_survey() + b"AAAA\nSYNC 7\n", 2
            )
        finally:
            service.shutdown()
        assert answers[0] == "REJ MALFORMED"
        assert answers[1].startswith("SYNCR 7 ")
        assert extra == b""
        events = read_log(tmp_path / "svc.log")
        assert [e.tag for e in events] == ["REJECT"]
        assert events[0].raw.encode() == self._longest_survey()

    def test_no_answer_after_the_log_is_closed(self, tmp_path):
        now = int(time.time() * 1000)
        config = make_config(epoch_ms=now - 11_000, delta_t_ms=100_000, delta_tau_ms=10_000,
                             grace_ms=60_000)
        service = CounterService(config, ("127.0.0.1", 0), tmp_path / "svc.log")
        thread = service.start_background()
        token = derive_token(config.secret, RoundRef.cal(0))
        with socket.create_connection(service.address, timeout=5) as sock:
            reader = sock.makefile("rb")
            sock.sendall(f"REPORT CAL 0 before-stop {token}\n".encode())
            assert reader.readline() == b"ACK CAL 0\n"
            service.shutdown()
            thread.join(timeout=5)
            assert not thread.is_alive()
            # the connection outlives the service; a report it cannot log is not answered
            sock.sendall(f"REPORT CAL 0 after-stop {token}\n".encode())
            assert reader.read() == b""
        assert [e.raw.split(" ")[3] for e in read_log(tmp_path / "svc.log")] == ["before-stop"]

    def _pieces(self, service, pieces, pause_s=0.1):
        """Send `pieces` on one connection with a pause after each, half-close,
        and return every answer line the counter sends before it closes."""
        with socket.create_connection(service.address, timeout=5) as sock:
            for piece in pieces:
                sock.sendall(piece)
                time.sleep(pause_s)
            sock.shutdown(socket.SHUT_WR)
            return sock.makefile("rb").read().decode().split("\n")[:-1]

    def test_line_split_across_sends(self, tmp_path):
        config, service = self._live_service(tmp_path)
        token = derive_token(config.secret, RoundRef.cal(0))
        try:
            answers = self._pieces(
                service, [b"SYNC 4\nREPORT CAL 0 split", f"-01 {token}\nSYNC 5\n".encode()]
            )
        finally:
            service.shutdown()
        assert answers[0].startswith("SYNCR 4 ")
        assert answers[1] == "ACK CAL 0"
        assert answers[2].startswith("SYNCR 5 ")
        assert len(answers) == 3
        events = read_log(tmp_path / "svc.log")
        assert [e.tag for e in events] == ["ACCEPT"]
        assert "split-01" in events[0].raw

    def test_overlong_line_in_pieces_gets_one_answer(self, tmp_path):
        config, service = self._live_service(tmp_path)
        token = derive_token(config.secret, RoundRef.cal(0))
        try:
            answers = self._pieces(
                service,
                [b"X" * 5000, b"X" * 5000, b"X" * 9000,
                 f"\nREPORT CAL 0 after-long {token}\n".encode()],
            )
        finally:
            service.shutdown()
        assert answers == ["REJ MALFORMED", "ACK CAL 0"]
        events = read_log(tmp_path / "svc.log")
        assert [e.tag for e in events] == ["REJECT", "ACCEPT"]
        assert events[0].raw == "X" * MAX_LINE_BYTES

    def test_crlf_line_endings(self, tmp_path):
        config, service = self._live_service(tmp_path)
        token = derive_token(config.secret, RoundRef.cal(0))
        try:
            answers = self._pieces(
                service, [f"SYNC 6\r\nREPORT CAL 0 crlf-0001 {token}\r\n".encode()]
            )
        finally:
            service.shutdown()
        assert answers[0].startswith("SYNCR 6 ")
        assert answers[1:] == ["ACK CAL 0"]
        events = read_log(tmp_path / "svc.log")
        assert [e.raw for e in events] == [f"REPORT CAL 0 crlf-0001 {token}"]

    def test_last_line_without_newline_before_half_close(self, tmp_path):
        config, service = self._live_service(tmp_path)
        token = derive_token(config.secret, RoundRef.cal(0))
        try:
            answers = self._pieces(
                service, [f"SYNC 9\nREPORT CAL 0 no-newline {token}".encode()]
            )
        finally:
            service.shutdown()
        assert answers[0].startswith("SYNCR 9 ")
        assert answers[1:] == ["ACK CAL 0"]
        assert [e.tag for e in read_log(tmp_path / "svc.log")] == ["ACCEPT"]

    def test_a_failed_start_leaves_no_fd_open(self, tmp_path):
        config = make_config()
        corrupt = tmp_path / "corrupt.log"
        corrupt.write_text("0 ACCEPT not-a-report\n")
        with socket.create_server(("127.0.0.1", 0)) as busy:
            fds = _open_fds()
            for _ in range(3):
                with pytest.raises(OSError):
                    CounterService(config, busy.getsockname(), tmp_path / "svc.log")
                with pytest.raises(CounterError, match="corrupt"):
                    CounterService(config, ("127.0.0.1", 0), corrupt)
            assert _open_fds() == fds

    @staticmethod
    def _sync(service, n):
        with socket.create_connection(service.address, timeout=5) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(f"SYNC {n}\n".encode())
            return reader.readline()

    def test_a_failed_accept_keeps_the_service_serving(self, tmp_path, monkeypatch):
        config = make_config()
        r0 = RoundRef.cal(0)
        clock = FakeClock(config.window_open(r0))
        service = CounterService(config, ("127.0.0.1", 0), tmp_path / "svc.log", clock=clock)
        real_accept = socket.socket.accept
        failed = []

        def fail_once(sock):
            monkeypatch.setattr(socket.socket, "accept", real_accept)
            failed.append(sock)
            raise OSError(errno.EMFILE, "injected")

        monkeypatch.setattr(socket.socket, "accept", fail_once)
        service.start_background()
        try:
            assert self._sync(service, 1).startswith(b"SYNCR 1 ")
            assert len(failed) == 1
            clock.t = config.window_close(r0) + 1
            deadline = time.monotonic() + 5
            while not service.core.tallies[r0].closed:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            service.shutdown()

    def test_a_failing_accept_does_not_spin(self, tmp_path, monkeypatch):
        service = CounterService(make_config(), ("127.0.0.1", 0), tmp_path / "svc.log")
        real_accept = socket.socket.accept
        calls = []

        def out_of_fds(sock):
            calls.append(sock)
            raise OSError(errno.EMFILE, "injected")

        with socket.create_connection(service.address, timeout=5) as sock, \
                sock.makefile("rb") as reader:
            monkeypatch.setattr(socket.socket, "accept", out_of_fds)
            service.start_background()
            try:
                time.sleep(0.5)  # a pending connection the service cannot accept
                monkeypatch.setattr(socket.socket, "accept", real_accept)
                sock.sendall(b"SYNC 1\n")
                assert reader.readline().startswith(b"SYNCR 1 ")
            finally:
                service.shutdown()
        assert 1 <= len(calls) <= 10

    def test_a_connection_without_a_thread_is_closed(self, tmp_path, monkeypatch):
        service = CounterService(make_config(), ("127.0.0.1", 0), tmp_path / "svc.log")
        service.start_background()
        real_start = threading.Thread.start

        def fail_once(thread):
            monkeypatch.setattr(threading.Thread, "start", real_start)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", fail_once)
        try:
            with socket.create_connection(service.address, timeout=5) as refused:
                assert refused.recv(1) == b""
            assert self._sync(service, 2).startswith(b"SYNCR 2 ")
        finally:
            service.shutdown()

    def test_a_closed_connection_leaves_no_thread_or_fd(self, tmp_path):
        before = set(threading.enumerate())
        service = CounterService(make_config(), ("127.0.0.1", 0), tmp_path / "svc.log")
        thread = service.start_background()
        try:
            fds = _open_fds()
            for n in range(5):
                assert self._sync(service, n).startswith(f"SYNCR {n} ".encode())
            deadline = time.monotonic() + 5
            while set(threading.enumerate()) - before != {thread} or _open_fds() != fds:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            service.shutdown()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _threads_end(before, timeout_s=5):
    """Whether every thread started since `before` was taken ends in time."""
    deadline = time.monotonic() + timeout_s
    while set(threading.enumerate()) - before:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestStopping:
    """The service stops wherever a stop lands, and a log that stops under it
    stops it too."""

    @staticmethod
    def _finishes(fn, timeout_s):
        thread = threading.Thread(target=fn, daemon=True)
        thread.start()
        thread.join(timeout=timeout_s)
        return not thread.is_alive()

    def test_shutdown_of_a_service_that_never_served(self, tmp_path):
        service = CounterService(make_config(), ("127.0.0.1", 0), tmp_path / "svc.log")
        assert self._finishes(service.shutdown, 1)
        with pytest.raises(CounterError, match="closed"):
            service.core.log.append(0, "CLOSE", "CAL 0")
        assert self._finishes(service.serve_forever, 1)

    def test_shutdown_is_idempotent(self, tmp_path, monkeypatch):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        before = set(threading.enumerate())
        service = CounterService(make_config(), ("127.0.0.1", 0), tmp_path / "svc.log")
        thread = service.start_background()
        with socket.create_connection(service.address, timeout=5) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(b"SYNC 1\n")
            assert reader.readline().startswith(b"SYNCR 1 ")
            assert self._finishes(service.shutdown, 1)
            assert self._finishes(service.shutdown, 1)
            both = [threading.Thread(target=service.shutdown, daemon=True) for _ in range(2)]
            for caller in both:
                caller.start()
            for caller in both:
                caller.join(timeout=1)
                assert not caller.is_alive()
        assert _threads_end(before)
        assert not thread.is_alive()
        with pytest.raises(CounterError, match="closed"):
            service.core.log.append(0, "CLOSE", "CAL 0")
        assert service.error is None
        assert hooked == []
        assert self._finishes(service.serve_forever, 1)

    def test_an_idle_service_runs_one_thread(self, tmp_path):
        before = set(threading.enumerate())
        service = CounterService(make_config(), ("127.0.0.1", 0), tmp_path / "svc.log")
        thread = service.start_background()
        try:
            time.sleep(0.3)  # a few passes of the serving loop
            assert set(threading.enumerate()) - before == {thread}
        finally:
            service.shutdown()
        assert _threads_end(before)

    def test_interrupt_in_the_serving_loop_still_closes_the_log(self, tmp_path, monkeypatch):
        service = CounterService(make_config(), ("127.0.0.1", 0), tmp_path / "svc.log")

        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(service, "_close_due", interrupted)
        with pytest.raises(KeyboardInterrupt):
            service.serve_forever()
        with pytest.raises(CounterError, match="closed"):
            service.core.log.append(0, "CLOSE", "CAL 0")
        assert self._finishes(service.shutdown, 1)

    @pytest.mark.parametrize("failing, call", [
        ("report", "write"),  # the handler's append
        ("report", "fsync"),  # the handler's commit (or the serving loop's sync)
        ("close", "write"),  # the serving loop's CLOSE of round 0
    ])
    def test_a_stopped_log_stops_the_service(self, tmp_path, monkeypatch, failing, call):
        config = make_config()
        r0 = RoundRef.cal(0)
        clock = FakeClock(config.window_open(r0))
        service = CounterService(config, ("127.0.0.1", 0), tmp_path / "svc.log", clock=clock)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        real_call = getattr(os, call)
        before = set(threading.enumerate())

        def fail_once(*_args):
            monkeypatch.setattr(os, call, real_call)
            raise OSError(errno.EIO, "injected")

        thread = service.start_background()
        try:
            with socket.create_connection(service.address, timeout=5) as watcher, \
                    socket.create_connection(service.address, timeout=5) as sock:
                readers = [watcher.makefile("rb"), sock.makefile("rb")]
                for conn, reader in zip((watcher, sock), readers):
                    conn.sendall(b"SYNC 1\n")
                    assert reader.readline().startswith(b"SYNCR 1 ")
                monkeypatch.setattr(os, call, fail_once)
                if failing == "report":
                    token = derive_token(config.secret, r0)
                    sock.sendall(f"REPORT CAL 0 nonce-001 {token}\n".encode())
                    assert readers[1].read() == b""
                clock.t = config.window_close(r0) + 1
                thread.join(timeout=5)
                assert not thread.is_alive()
                # the open connection gets no answer, not even to a sync exchange
                watcher.sendall(b"SYNC 5\n")
                assert readers[0].read() == b""
                for reader in readers:  # so the sockets really close
                    reader.close()
        finally:
            service.shutdown()
        assert _threads_end(before)
        assert "injected" in service.error
        assert hooked == []
        # an event is logged before it is answered; an unanswered one may be logged
        logged = [e.tag for e in read_log(tmp_path / "svc.log")]
        assert logged == (["ACCEPT"] if call == "fsync" else [])


class TestGroupCommit:
    """Answers wait for an fsync that covers their events."""

    @staticmethod
    def _service(tmp_path):
        config = make_config()
        cal0 = RoundRef.cal(0)
        clock = FakeClock(start_ms=config.window_open(cal0))
        service = CounterService(config, ("127.0.0.1", 0), tmp_path / "svc.log", clock=clock)
        service.start_background()
        return config, clock, service

    @staticmethod
    def _burst(config, prefix, n):
        """`n` REPORT lines with distinct nonces; every fifth has a bad token."""
        good = derive_token(config.secret, RoundRef.cal(0))
        bad = derive_token("other-secret", RoundRef.cal(0))
        return [(f"{prefix}-{i:04d}", "REJ BADTOKEN" if i % 5 == 4 else "ACK CAL 0",
                 f"REPORT CAL 0 {prefix}-{i:04d} {bad if i % 5 == 4 else good}")
                for i in range(n)]

    @staticmethod
    def _line_ends(path):
        """Byte offset of the end of each log line, keyed by the line's text."""
        ends, offset = {}, 0
        for line in Path(path).read_bytes().split(b"\n")[:-1]:
            offset += len(line) + 1
            ends[line.decode()] = offset
        return ends

    def test_concurrent_syncs_cover_every_append(self, tmp_path, monkeypatch):
        # more threads than cores, switching often: each sync must cover the
        # caller's own append even when it lands during another thread's fsync
        durable = {"size": 0}

        def recording_fsync(fd):
            size = os.fstat(fd).st_size
            time.sleep(0.0005)
            durable["size"] = max(durable["size"], size)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        log = EventLog(tmp_path / "stress.log")
        append_lock = threading.Lock()  # the service lock's role
        late: list[int] = []

        def worker(n):
            for i in range(150):
                with append_lock:
                    log.append(i, "CLOSE", f"CAL {n}")
                    end = (tmp_path / "stress.log").stat().st_size
                log.sync()
                if durable["size"] < end:
                    late.append(end)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            log.close()
        assert not any(t.is_alive() for t in threads)
        assert late == []
        assert len(read_log(tmp_path / "stress.log")) == 6 * 150

    def test_no_answer_before_its_event_is_durable(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        durable = {"size": 0, "calls": 0}

        def recording_fsync(fd):
            # an fsync covers what was written before it started; publish that
            # size only once it returns, after a pause that gives an answer
            # sent too early time to reach its client first
            size = os.fstat(fd).st_size
            time.sleep(0.005)
            real_fsync(fd)
            durable["size"] = max(durable["size"], size)
            durable["calls"] += 1

        monkeypatch.setattr(os, "fsync", recording_fsync)
        config, clock, service = self._service(tmp_path)
        # per connection: (key, expected answer, request line, its logged text)
        requests = {prefix: [(nonce, expected, line.encode(), line)
                             for nonce, expected, line in self._burst(config, prefix, 60)]
                    for prefix in ("conn-a", "conn-b")}
        # lines that are logged as REJECTs, each answered only once that is durable
        hostile = [
            ("syncr", "REJ MALFORMED", b"SYNCR 1 2 3", "SYNCR 1 2 3"),
            ("not-utf8", "REJ MALFORMED", b"SYNC 1\xff", ""),
            ("overlong", "REJ MALFORMED", b"SYNC " + b"1" * MAX_LINE_BYTES,
             "SYNC " + "1" * (MAX_LINE_BYTES - 5)),
        ]
        for at, request in zip((10, 30, 50), hostile):
            requests["conn-a"].insert(at, request)
        seen: dict[str, tuple[str, int]] = {}  # key -> (answer, durable size when read)

        def client(prefix):
            burst = requests[prefix]
            with socket.create_connection(service.address, timeout=5) as sock:
                sock.sendall(b"".join(line + b"\n" for _, _, line, _ in burst))
                reader = sock.makefile("rb")
                for key, _, _, _ in burst:
                    answer = reader.readline().decode().rstrip("\n")
                    seen[key] = (answer, durable["size"])

        try:
            threads = [threading.Thread(target=client, args=(p,)) for p in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # the serving loop closes CAL 0 once its window has passed
            clock.t = config.window_close(RoundRef.cal(0)) + 1
            close_line = f"{clock.t} CLOSE CAL 0"
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                end = self._line_ends(tmp_path / "svc.log").get(close_line)
                if end is not None and durable["size"] >= end:
                    break
                time.sleep(0.05)
            closed_durable = durable["size"]  # before shutdown's own final sync
        finally:
            service.shutdown()

        ends = self._line_ends(tmp_path / "svc.log")
        by_text = {line.split(" ", 2)[2]: end for line, end in ends.items()
                   if line.split(" ")[1] in ("ACCEPT", "REJECT")}
        assert len(seen) == len(by_text) == 123
        for burst in requests.values():
            for key, expected, _, logged in burst:
                answer, durable_size = seen[key]
                assert answer == expected
                assert by_text[logged] <= durable_size, f"{key} answered before its fsync"
        assert durable["calls"] < 120
        assert ends[close_line] <= closed_durable, "the serving loop's CLOSE was not fsynced"

    def test_sync_never_waits_for_an_fsync(self, tmp_path, monkeypatch):
        in_fsync = threading.Event()

        def slow_fsync(fd):
            in_fsync.set()
            time.sleep(0.3)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        config, clock, service = self._service(tmp_path)
        burst = self._burst(config, "slow", 20)
        try:
            with socket.create_connection(service.address, timeout=5) as a, \
                    socket.create_connection(service.address, timeout=5) as b:
                reader_b = b.makefile("rb")
                b.sendall(b"SYNC 1\n")  # both connections are served before timing
                assert reader_b.readline().startswith(b"SYNCR 1 ")
                a.sendall("".join(line + "\n" for _, _, line in burst).encode())
                assert in_fsync.wait(5)
                started = time.monotonic()
                b.sendall(b"SYNC 2\n")
                answer = reader_b.readline()
                elapsed = time.monotonic() - started
                reader_a = a.makefile("rb")
                answers_a = [reader_a.readline().decode().rstrip("\n") for _ in burst]
        finally:
            service.shutdown()
        assert answer.startswith(b"SYNCR 2 ")
        assert elapsed < 0.1, f"SYNC answered after {elapsed * 1000:.0f} ms"
        assert answers_a == [expected for _, expected, _ in burst]
