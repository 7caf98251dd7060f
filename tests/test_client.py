import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from rollcall import client as client_mod
from rollcall.client import (
    ActivityEvent,
    ClientError,
    ClientOptions,
    ClientRunner,
    ReportStep,
    RoundOutcome,
    TcpTransport,
    TransportError,
    UptimeRecord,
    activity_from_file,
    certify_shutdown,
    first_violation,
    parse_activity_text,
    parse_uptime_text,
    records_well_formed,
    report_step,
    run_survey,
    sync_clock,
    sync_sample,
    uptime_from_file,
)
from rollcall.counter import CounterCore, CounterService
from rollcall.protocol import MAX_LINE_BYTES, RoundRef
from rollcall.timesync import ClockSyncError

from conftest import FakeClock, LoopbackTransport, make_config


class TestMonitoring:
    def test_boundaries_inclusive(self):
        events = [ActivityEvent(100), ActivityEvent(201)]
        assert first_violation(events, 100, 200) == 100
        assert first_violation(events, 101, 200) is None
        assert first_violation(events, 150, 201) == 201

    def test_event_one_ms_into_window(self):
        assert first_violation([ActivityEvent(1001)], 1000, 2000) == 1001

    def test_empty(self):
        assert first_violation([], 0, 10**9) is None


class TestCertify:
    def test_covering_interval(self, config):
        t, tau = config.t_star_ms, config.delta_tau_ms
        records = [UptimeRecord("DOWN", t - 5000), UptimeRecord("UP", t + tau + 10_000)]
        assert certify_shutdown(records, config)

    def test_late_start_beyond_tolerance(self, config):
        t, tau = config.t_star_ms, config.delta_tau_ms
        records = [UptimeRecord("DOWN", t + 300_000), UptimeRecord("UP", t + tau + 600_000)]
        assert not certify_shutdown(records, config)

    def test_early_reconnect(self, config):
        t, tau = config.t_star_ms, config.delta_tau_ms
        records = [UptimeRecord("DOWN", t - 5000), UptimeRecord("UP", t + tau - 1)]
        assert not certify_shutdown(records, config)

    def test_exact_boundaries(self, config):
        t, tau = config.t_star_ms, config.delta_tau_ms
        up_at_window_end = [UptimeRecord("DOWN", t - 1000), UptimeRecord("UP", t + tau)]
        assert certify_shutdown(up_at_window_end, config)
        down_at_tolerance = [UptimeRecord("DOWN", t + 60_000), UptimeRecord("UP", t + 61_000)]
        assert certify_shutdown(down_at_tolerance, config)
        down_past_tolerance = [UptimeRecord("DOWN", t + 60_001), UptimeRecord("UP", t + 61_001)]
        assert not certify_shutdown(down_past_tolerance, config)

    def test_later_pair_can_qualify(self, config):
        t, tau = config.t_star_ms, config.delta_tau_ms
        records = [
            UptimeRecord("DOWN", t - 900_000),
            UptimeRecord("UP", t - 800_000),
            UptimeRecord("DOWN", t - 1000),
            UptimeRecord("UP", t + tau + 1000),
        ]
        assert certify_shutdown(records, config)

    def test_unclosed_down_does_not_qualify(self, config):
        assert not certify_shutdown([UptimeRecord("DOWN", config.t_star_ms - 1)], config)

    def test_malformed_streams_fail_closed(self, config):
        t, tau = config.t_star_ms, config.delta_tau_ms
        doubled = [UptimeRecord("DOWN", t - 5), UptimeRecord("DOWN", t - 4),
                   UptimeRecord("UP", t + tau + 5)]
        assert not records_well_formed(doubled)
        assert not certify_shutdown(doubled, config)
        unsorted = [UptimeRecord("DOWN", t + 100), UptimeRecord("UP", t - 100)]
        assert not records_well_formed(unsorted)
        assert not certify_shutdown(unsorted, config)


class TestFileSources:
    def test_activity_parsing(self, tmp_path):
        path = tmp_path / "activity.txt"
        path.write_text("100\n# resting\n250\n\n300\n")
        events = activity_from_file(path)
        assert events(0, 1000) == [ActivityEvent(100), ActivityEvent(250), ActivityEvent(300)]
        assert events(200, 260) == [ActivityEvent(250)]

    def test_activity_file_is_read_on_every_query(self, tmp_path):
        path = tmp_path / "activity.txt"
        path.write_text("100\n")
        events = activity_from_file(path)
        assert events(0, 1000) == [ActivityEvent(100)]
        with open(path, "a") as fh:
            fh.write("500\n")
        assert events(0, 1000) == [ActivityEvent(100), ActivityEvent(500)]

    def test_activity_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_activity_text("100\nnoon\n")

    def test_uptime_parsing(self, tmp_path):
        path = tmp_path / "uptime.txt"
        path.write_text("DOWN 100\nUP 900\n")
        assert uptime_from_file(path)() == [UptimeRecord("DOWN", 100), UptimeRecord("UP", 900)]

    def test_uptime_missing_file_is_empty(self, tmp_path):
        assert uptime_from_file(tmp_path / "nope.txt")() == []

    def test_uptime_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_uptime_text("SIDEWAYS 100\n")


class TestTcpAnswerLines:
    """An answer is one line of at most MAX_LINE_BYTES bytes; anything else
    fails the request, and the transport connects again as after any failure."""

    @staticmethod
    def _peer(reply, hold_open, connections=2):
        """A local server that sends `reply` to the first request on the first
        connection, closing that connection unless `hold_open`; returns the
        server's address, the connections it accepts, and its thread."""
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(5)
        accepted = []

        def serve():
            with server:
                for _ in range(connections):
                    conn, _ = server.accept()
                    accepted.append(conn)
                    if len(accepted) == 1:
                        conn.recv(64)
                        try:
                            conn.sendall(reply)
                        except OSError:  # the client hung up without reading it all
                            pass
                        if not hold_open:
                            conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return server.getsockname(), accepted, thread

    def _fails_then_reconnects(self, reply, hold_open):
        # the failing connection, then the one the transport opens again
        address, accepted, thread = self._peer(reply, hold_open)
        transport = TcpTransport(*address)
        try:
            started = time.monotonic()
            with pytest.raises(TransportError):
                transport.request("SYNC 1")
            elapsed = time.monotonic() - started
            thread.join(timeout=5)
            assert len(accepted) == 2 and transport._sock is not None
        finally:
            transport.close()
            for conn in accepted:
                conn.close()
        return elapsed

    def test_answer_without_a_newline_is_bounded(self):
        # the client reads MAX_LINE_BYTES + 1 bytes and gives up, without
        # waiting for the peer or for its request timeout
        elapsed = self._fails_then_reconnects(b"A" * (1 << 20), hold_open=True)
        assert elapsed < client_mod.REQUEST_TIMEOUT_S / 5

    def test_answer_cut_short_by_the_peer_closing(self):
        self._fails_then_reconnects(b"ACK CAL 0", hold_open=False)

    def test_answer_of_max_length(self):
        answer = b"A" * MAX_LINE_BYTES
        address, accepted, thread = self._peer(answer + b"\n", hold_open=True, connections=1)
        transport = TcpTransport(*address)
        try:
            assert transport.request("SYNC 1") == answer.decode()
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            transport.close()
            for conn in accepted:
                conn.close()


class TestSyncAndSurvey:
    def test_sync_against_loopback_counter(self, config):
        clock = FakeClock(start_ms=5000)
        transport = LoopbackTransport(CounterCore(config), clock)
        est = sync_clock(transport, clock, samples=4)
        assert est.offset_ms == 0
        assert est.delay_ms == 0
        assert est.samples_used == 4

    def test_connection_setup_stays_out_of_the_first_sample(self, config, monkeypatch):
        # client and counter share one clock, and connecting costs 300 ms of it:
        # timed inside the first exchange, it would read as offset 150, delay 300
        clock = FakeClock(start_ms=5000)
        service = CounterService(config, ("127.0.0.1", 0), fsync=False, clock=clock)
        service.start_background()
        connect = socket.create_connection

        def slow_connect(*args, **kwargs):
            clock.t += 300
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", slow_connect)
        transport = TcpTransport(*service.address)
        try:
            est = sync_clock(transport, clock, samples=1)
        finally:
            transport.close()
            service.shutdown()
        assert (est.offset_ms, est.delay_ms) == (0, 0)

    def test_reconnect_stays_out_of_the_next_sample(self, config, monkeypatch):
        # as above, but the connection fails first: connecting again inside
        # the next exchange would read as offset 150, delay 300
        clock = FakeClock(start_ms=5000)
        service = CounterService(config, ("127.0.0.1", 0), fsync=False, clock=clock)
        service.start_background()
        connect = socket.create_connection

        def slow_connect(*args, **kwargs):
            clock.t += 300
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", slow_connect)
        transport = TcpTransport(*service.address)
        try:
            transport._sock.shutdown(socket.SHUT_WR)
            with pytest.raises(TransportError):
                transport.request("SYNC 1")
            est = sync_clock(transport, clock, samples=1)
        finally:
            transport.close()
            service.shutdown()
        assert (est.offset_ms, est.delay_ms) == (0, 0)

    def test_sync_total_failure(self, config):
        clock = FakeClock()
        transport = LoopbackTransport(CounterCore(config), clock, drop=lambda _line: True)
        with pytest.raises(ClockSyncError):
            sync_clock(transport, clock, samples=3)

    def test_survey_invalid_code_rejected_locally(self, config):
        clock = FakeClock()
        transport = LoopbackTransport(CounterCore(config), clock)
        with pytest.raises(ValueError):
            run_survey(transport, "abcdefgh", "NOT_A_CODE", "")
        assert transport.requests == []

    def test_survey_sent_and_acked(self, config):
        clock = FakeClock()
        core = CounterCore(config)
        assert run_survey(LoopbackTransport(core, clock), "abcdefgh", "FORGOT", "")
        assert len(core.surveys) == 1

    def test_survey_retries_then_gives_up(self, config):
        clock = FakeClock()
        transport = LoopbackTransport(CounterCore(config), clock, drop=lambda _line: True)
        assert not run_survey(transport, "abcdefgh", "FORGOT", "", retries=2)
        assert len(transport.requests) == 3


class TestExchangePolicy:
    @pytest.mark.parametrize("response, step", [
        ("ACK CAL 0", ReportStep.DONE),
        ("ACK EXE 0", ReportStep.DONE),
        ("REJ DUP", ReportStep.DONE),
        ("REJ EARLY", ReportStep.RETRY),
        ("", ReportStep.RETRY),
        ("ACK CAL", ReportStep.RETRY),
        ("REJ SOON", ReportStep.RETRY),
        ("garbage \u2028 line", ReportStep.RETRY),
        ("REJ LATE", ReportStep.GIVE_UP),
        ("REJ BADTOKEN", ReportStep.GIVE_UP),
        ("REJ BADROUND", ReportStep.GIVE_UP),
        ("REJ MALFORMED", ReportStep.GIVE_UP),
        ("SYNCR 1 2 3", ReportStep.GIVE_UP),
        ("SYNC 1", ReportStep.GIVE_UP),
        ("SURVEY abcdefgh FORGOT -", ReportStep.GIVE_UP),
        ("REPORT CAL 0 abcdefgh " + "0" * 32, ReportStep.GIVE_UP),
    ])
    def test_report_step(self, response, step):
        assert report_step(response) is step

    def test_report_step_cache_is_bounded_and_exact(self):
        forms = ["ACK CAL {}", "SYNC {}", "REJ EARLY{}", "ACK CAL 0{}", "garbage {}"]
        for i in range(10_000):
            answer = forms[i % len(forms)].format(i)
            assert report_step(answer) is report_step.__wrapped__(answer), answer
        info = report_step.cache_info()
        assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("response, expected", [
        ("SYNCR 10 50 52 ", None),
        ("SYNCR 10 50 52", (10, 50, 52, 20)),
        ("SYNCR 11 50 52", None),  # answers another exchange
        ("SYNCR 10 52 50", None),  # server send before receive
        ("ACK CAL 0", None),
        ("garbage", None),
    ])
    def test_sync_sample(self, response, expected):
        sample = sync_sample(response, 10, 20)
        got = None if sample is None else (sample.t1, sample.t2, sample.t3, sample.t4)
        assert got == expected

    def test_sync_sample_rejects_receive_before_send(self):
        assert sync_sample("SYNCR 10 50 52", 10, 9) is None


def make_runner(config, core, clock, *, consent=None, activity=None, uptime=None,
                drop=None, survey=None, nonce="itest-nonce"):
    transport = LoopbackTransport(core, clock, drop=drop)
    options = ClientOptions(
        nonce=nonce, prompt_lead_ms=2_000, sync_samples=2, retry_ms=100, send_margin_ms=10
    )
    runner = ClientRunner(
        config,
        transport,
        clock,
        consent if consent is not None else (lambda round, deadline: True),
        activity if activity is not None else (lambda start, end: []),
        uptime if uptime is not None else (lambda: []),
        options=options,
        survey=survey,
    )
    return runner, transport


def full_uptime(config):
    return lambda: [
        UptimeRecord("DOWN", config.t_star_ms - 1000),
        UptimeRecord("UP", config.t_star_ms + config.delta_tau_ms + 1000),
    ]


class TestRunnerLifecycle:
    def test_full_consent_reports_every_round(self, config):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        runner, _ = make_runner(config, core, clock, uptime=full_uptime(config))
        outcomes = runner.run()
        assert all(v == RoundOutcome.REPORTED for v in outcomes.values())
        core.close_due(config.window_close(RoundRef.exe()) + 1)
        assert core.distribution() == ([1, 1, 1], 1)

    def test_declining_sends_nothing(self, config):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        runner, transport = make_runner(
            config, core, clock, consent=lambda round, deadline: False
        )
        outcomes = runner.run()
        assert all(v == RoundOutcome.DECLINED for v in outcomes.values())
        assert not any(line.startswith("REPORT") for line in transport.requests)

    def test_violation_suppresses_report(self, config):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        window0 = (config.epoch_ms, config.epoch_ms + config.delta_tau_ms)
        activity = lambda start, end: (
            [ActivityEvent(window0[0] + 1)] if start == window0[0] else []
        )
        runner, transport = make_runner(config, core, clock, activity=activity,
                                        uptime=full_uptime(config))
        outcomes = runner.run()
        assert outcomes[RoundRef.cal(0)] == RoundOutcome.VIOLATED
        assert outcomes[RoundRef.cal(1)] == RoundOutcome.REPORTED
        assert not any(" CAL 0 " in line for line in transport.requests if line.startswith("REPORT"))

    def test_retry_keeps_nonce_and_token(self, config):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        failures = iter([True, True, False])  # two drops, then deliver

        def drop(line):
            if line.startswith("REPORT CAL 0"):
                return next(failures, False)
            return False

        runner, transport = make_runner(config, core, clock, drop=drop,
                                        uptime=full_uptime(config))
        outcomes = runner.run()
        assert outcomes[RoundRef.cal(0)] == RoundOutcome.REPORTED
        attempts = [l for l in transport.requests if l.startswith("REPORT CAL 0")]
        assert len(attempts) == 3
        assert len(set(attempts)) == 1  # bit-identical retries
        assert core.tallies[RoundRef.cal(0)].count == 1

    def test_dup_reply_counts_as_reported(self, config):
        # the request lands but the first reply is lost: the retry gets DUP
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        state = {"first": True}
        transport = LoopbackTransport(core, clock)
        real_request = transport.request

        def request(line):
            response = real_request(line)
            if line.startswith("REPORT CAL 0") and state.pop("first", False):
                raise TransportError("reply lost")
            return response

        transport.request = request
        options = ClientOptions(nonce="itest-nonce", prompt_lead_ms=2_000, sync_samples=2,
                                retry_ms=100, send_margin_ms=10)
        runner = ClientRunner(config, transport, clock, lambda r, d: True,
                              lambda s, e: [], full_uptime(config), options=options)
        outcomes = runner.run()
        assert outcomes[RoundRef.cal(0)] == RoundOutcome.REPORTED
        assert core.tallies[RoundRef.cal(0)].count == 1

    def test_early_answer_is_retried(self, config, monkeypatch):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        answers = []
        monkeypatch.setattr(
            client_mod, "report_step", lambda r: answers.append(r) or report_step(r)
        )
        runner, transport = make_runner(config, core, clock, uptime=full_uptime(config))
        forward = transport.request
        early = ["REJ EARLY"]  # the first report finds the window not yet open
        transport.request = lambda line: (
            early.pop() if line.startswith("REPORT") and early else forward(line)
        )
        outcomes = runner.run()
        assert all(v == RoundOutcome.REPORTED for v in outcomes.values())
        assert answers == ["REJ EARLY", "ACK CAL 0", "ACK CAL 1", "ACK CAL 2", "ACK EXE 0"]
        assert 100 in clock.sleeps  # retry_ms before the second attempt
        assert core.tallies[RoundRef.cal(0)].count == 1

    def test_sync_unreachable_raises_client_error(self, config):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        runner, _ = make_runner(config, core, clock, drop=lambda line: True)
        with pytest.raises(ClientError):
            runner.run()

    def test_golden_trace_determinism(self, config):
        def run_once():
            clock = FakeClock(start_ms=config.epoch_ms - 10_000)
            core = CounterCore(config)
            runner, transport = make_runner(config, core, clock, uptime=full_uptime(config))
            trace = []  # ("send"|"recv", line)
            forward = transport.request

            def request(line):
                trace.append(("send", line))
                response = forward(line)
                trace.append(("recv", response))
                return response

            transport.request = request
            runner.run()
            return trace

        assert run_once() == run_once()

    def test_noncompliant_execution_surveys_once(self, config):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        answers = []

        def survey():
            answers.append(1)
            return "CHANGED_MIND", "kept the machine on"

        runner, transport = make_runner(config, core, clock, survey=survey,
                                        uptime=lambda: [])  # no records at all
        outcomes = runner.run()
        assert outcomes[RoundRef.exe()] == RoundOutcome.VIOLATED
        assert answers == [1]
        sent = [l for l in transport.requests if l.startswith("SURVEY")]
        assert len(sent) == 1 and " CHANGED_MIND " in sent[0]
        assert len(core.surveys) == 1

    def test_malformed_uptime_surveys_obstacle(self, config):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        bad_uptime = lambda: [UptimeRecord("UP", 10), UptimeRecord("UP", 20)]
        runner, transport = make_runner(config, core, clock, uptime=bad_uptime)
        outcomes = runner.run()
        assert outcomes[RoundRef.exe()] == RoundOutcome.VIOLATED
        assert any(l.startswith("SURVEY") and " OBSTACLE " in l for l in transport.requests)

    def test_declined_execution_means_no_survey(self, config):
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        core = CounterCore(config)
        consent = lambda round, deadline: not round.is_execution
        runner, transport = make_runner(config, core, clock, consent=consent,
                                        survey=lambda: ("OTHER", "x"))
        outcomes = runner.run()
        assert outcomes[RoundRef.exe()] == RoundOutcome.DECLINED
        assert not any(l.startswith("SURVEY") for l in transport.requests)


class TestRunnerJudgesAfterWindow:
    """Compliance is judged once the window has passed, from sources read then."""

    def test_sources_are_queried_after_window_open(self, config):
        # the loopback counter reads the same clock, so counter time is clock.t
        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        queries = []

        def activity(start, end):
            queries.append((start, clock.t))
            return []

        def uptime():
            queries.append((config.t_star_ms, clock.t))
            return full_uptime(config)()

        runner, _ = make_runner(config, CounterCore(config), clock,
                                activity=activity, uptime=uptime)
        outcomes = runner.run()
        assert set(outcomes.values()) == {RoundOutcome.REPORTED}
        starts = [config.round_start(r) for r in config.rounds()]
        assert [start for start, _ in queries] == starts
        for round, (_, at) in zip(config.rounds(), queries):
            assert at >= config.window_open(round)

    def test_event_appended_mid_window_is_a_violation(self, config, tmp_path):
        path = tmp_path / "activity.txt"
        path.write_text("# monitor started\n")
        touch = config.round_start(RoundRef.cal(0)) + config.delta_tau_ms // 2

        class TouchingClock(FakeClock):
            def sleep_ms(self, duration_ms):
                before = self.t
                super().sleep_ms(duration_ms)
                if before < touch <= self.t:
                    with open(path, "a") as fh:
                        fh.write(f"{touch}\n")

        clock = TouchingClock(start_ms=config.epoch_ms - 10_000)
        runner, transport = make_runner(config, CounterCore(config), clock,
                                        activity=activity_from_file(path),
                                        uptime=full_uptime(config))
        outcomes = runner.run()
        assert outcomes[RoundRef.cal(0)] == RoundOutcome.VIOLATED
        assert outcomes[RoundRef.cal(1)] == RoundOutcome.REPORTED
        assert not any(l.startswith("REPORT CAL 0 ") for l in transport.requests)

    @pytest.mark.parametrize("error", [OSError("disk gone"), ValueError("activity file line 1")])
    def test_raising_activity_source_is_a_violation(self, config, error):
        def activity(start, end):
            raise error

        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        runner, transport = make_runner(config, CounterCore(config), clock,
                                        activity=activity, uptime=full_uptime(config))
        outcomes = runner.run()
        assert [outcomes[RoundRef.cal(i)] for i in range(config.n_rounds)] == (
            [RoundOutcome.VIOLATED] * config.n_rounds
        )
        assert outcomes[RoundRef.exe()] == RoundOutcome.REPORTED
        assert not any(l.startswith("REPORT CAL ") for l in transport.requests)

    @pytest.mark.parametrize("error", [OSError("disk gone"), ValueError("uptime file line 1")])
    def test_raising_uptime_source_is_a_violation(self, config, error):
        def uptime():
            raise error

        clock = FakeClock(start_ms=config.epoch_ms - 10_000)
        runner, transport = make_runner(config, CounterCore(config), clock, uptime=uptime)
        outcomes = runner.run()
        assert outcomes[RoundRef.exe()] == RoundOutcome.VIOLATED
        assert not any(l.startswith("REPORT EXE ") for l in transport.requests)
        # unreadable records are an obstacle to certification, as malformed ones are
        assert any(l.startswith("SURVEY") and " OBSTACLE " in l for l in transport.requests)


class TestRunnerSchedule:
    """One pass over the schedule: an outcome for every round, whenever the client starts."""

    def run_from(self, config, start_ms):
        clock = FakeClock(start_ms=start_ms)
        core = CounterCore(config)
        runner, transport = make_runner(config, core, clock, uptime=full_uptime(config))
        outcomes = runner.run()
        assert list(outcomes) == config.rounds()
        reported = [" ".join(l.split()[1:3]) for l in transport.requests
                    if l.startswith("REPORT")]
        return outcomes, reported, clock

    def test_start_just_after_first_round_skips_it(self, config):
        outcomes, reported, _ = self.run_from(config, config.epoch_ms + 1)
        assert outcomes[RoundRef.cal(0)] == RoundOutcome.SKIPPED
        assert [outcomes[r] for r in config.rounds()[1:]] == [RoundOutcome.REPORTED] * 3
        assert reported == ["CAL 1", "CAL 2", "EXE 0"]

    def test_start_exactly_at_a_round_start_takes_part(self, config):
        outcomes, reported, _ = self.run_from(config, config.round_start(RoundRef.cal(1)))
        assert outcomes[RoundRef.cal(0)] == RoundOutcome.SKIPPED
        assert outcomes[RoundRef.cal(1)] == RoundOutcome.REPORTED
        assert reported == ["CAL 1", "CAL 2", "EXE 0"]

    def test_start_after_last_calibration_takes_part_in_execution_only(self, config):
        start = config.round_start(RoundRef.cal(config.n_rounds - 1)) + 1
        outcomes, reported, _ = self.run_from(config, start)
        assert [outcomes[RoundRef.cal(i)] for i in range(config.n_rounds)] == (
            [RoundOutcome.SKIPPED] * config.n_rounds
        )
        assert outcomes[RoundRef.exe()] == RoundOutcome.REPORTED
        assert reported == ["EXE 0"]

    def test_start_after_execution_window_skips_everything(self, config):
        outcomes, reported, _ = self.run_from(config, config.window_close(RoundRef.exe()) + 1)
        assert set(outcomes.values()) == {RoundOutcome.SKIPPED}
        assert reported == []

    def test_returns_once_execution_is_acknowledged(self, config):
        outcomes, _, clock = self.run_from(config, config.epoch_ms - 10_000)
        assert outcomes[RoundRef.exe()] == RoundOutcome.REPORTED
        # the report went out at window open + send margin and was ACKed at once
        assert clock.t == config.window_open(RoundRef.exe()) + 10
        assert clock.t < config.window_close(RoundRef.exe())


@settings(deadline=None, max_examples=30)
@given(
    offsets=st.lists(st.integers(-5000, 15_000), max_size=4),
    consent0=st.booleans(),
)
def test_no_report_for_dirty_window(offsets, consent0):
    config = make_config()
    clock = FakeClock(start_ms=config.epoch_ms - 10_000)
    core = CounterCore(config)
    window = (config.epoch_ms, config.epoch_ms + config.delta_tau_ms)
    events = [ActivityEvent(config.epoch_ms + off) for off in offsets]

    def activity(start, end):
        return [e for e in events if start <= e.timestamp_ms <= end]

    runner, transport = make_runner(
        config, core, clock,
        consent=lambda round, deadline: consent0 if round == RoundRef.cal(0) else False,
        activity=activity,
    )
    outcomes = runner.run()
    dirty = any(window[0] <= e.timestamp_ms <= window[1] for e in events)
    reported = any(l.startswith("REPORT CAL 0") for l in transport.requests)
    if not consent0:
        assert not reported
    elif dirty:
        assert outcomes[RoundRef.cal(0)] == RoundOutcome.VIOLATED
        assert not reported
    else:
        assert outcomes[RoundRef.cal(0)] == RoundOutcome.REPORTED
        assert reported
