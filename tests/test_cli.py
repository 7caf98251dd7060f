import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from rollcall.cli import (
    EXIT_COPING, EXIT_ERROR, EXIT_OK, EXIT_UNSTABLE, build_parser, main, _parse_address,
)
from rollcall.counter import log_distribution, read_log, replay_events
from rollcall.protocol import ExperimentConfig, RoundRef, derive_token, format_config

from conftest import make_config


def write_log(path, counts, n_star, secret="s3cret"):
    """Hand-build a finished counter log with the given per-round counts."""
    lines = []
    t = 0
    for i, count in enumerate(counts):
        token = derive_token(secret, RoundRef.cal(i))
        for j in range(count):
            lines.append(f"{t} ACCEPT REPORT CAL {i} nonce-{i:02d}-{j:04d} {token}")
            t += 1
        lines.append(f"{t} CLOSE CAL {i}")
    token = derive_token(secret, RoundRef.exe())
    for j in range(n_star):
        lines.append(f"{t} ACCEPT REPORT EXE 0 nonce-ex-{j:04d} {token}")
        t += 1
    lines.append(f"{t} CLOSE EXE 0")
    path.write_text("".join(line + "\n" for line in lines))


def out_fields(captured):
    fields = {}
    for line in captured.splitlines():
        if "\t" in line:
            key, _, value = line.partition("\t")
            fields[key] = value
    return fields


class TestAnalyze:
    def test_worked_example_exit_coping(self, tmp_path, capsys):
        log = tmp_path / "done.log"
        write_log(log, [98, 102, 100, 96, 104], 90)
        code = main(["analyze", "--log", str(log), "--alpha", "0.05"])
        fields = out_fields(capsys.readouterr().out)
        assert code == EXIT_COPING
        assert fields["verdict"] == "COPING_EVIDENCE"
        assert abs(float(fields["z"]) - (-3.1623)) <= 1e-3
        assert abs(float(fields["confidence"]) - 0.9992) <= 1e-3
        assert fields["counts"] == "98 102 100 96 104"

    def test_null_result_exit_zero(self, tmp_path, capsys):
        log = tmp_path / "null.log"
        write_log(log, [98, 102, 100, 96, 104], 100)
        code = main(["analyze", "--log", str(log)])
        fields = out_fields(capsys.readouterr().out)
        assert code == EXIT_OK
        assert float(fields["z"]) == 0.0
        assert fields["verdict"] == "NO_COPING_EVIDENCE"

    def test_unstable_exit_three(self, tmp_path, capsys):
        log = tmp_path / "wild.log"
        write_log(log, [10, 100, 101], 50)
        code = main(["analyze", "--log", str(log)])
        assert code == EXIT_UNSTABLE
        assert out_fields(capsys.readouterr().out)["verdict"] == "UNSTABLE_CALIBRATION"

    def test_incomplete_log_is_an_error(self, tmp_path, capsys):
        log = tmp_path / "partial.log"
        write_log(log, [5, 6], 2)
        text = "\n".join(l for l in log.read_text().splitlines() if l.split()[1] != "CLOSE")
        log.write_text(text + "\n")
        assert main(["analyze", "--log", str(log)]) == EXIT_ERROR
        assert "incomplete" in capsys.readouterr().err

    def test_degenerate_log_is_an_error(self, tmp_path, capsys):
        log = tmp_path / "flat.log"
        write_log(log, [5, 5, 5], 5)
        assert main(["analyze", "--log", str(log)]) == EXIT_ERROR

    def test_missing_log_file(self, tmp_path, capsys):
        assert main(["analyze", "--log", str(tmp_path / "none.log")]) == EXIT_ERROR

    def test_log_that_is_a_directory(self, tmp_path, capsys):
        assert main(["analyze", "--log", str(tmp_path)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot read log {tmp_path}")


# one corrupt event each: restart and `analyze` must both refuse the log
CORRUPT_EVENTS = ["CLOSE CAL x", "CLOSE EXE 5", "SURVEY garbage", "ACCEPT garbage"]


def write_corrupt_log(path, event):
    write_log(path, [5, 6], 2)
    with path.open("a") as fh:
        fh.write(f"99 {event}\n")


@pytest.mark.parametrize("event", CORRUPT_EVENTS)
def test_analyze_corrupt_log_is_an_error(tmp_path, capsys, event):
    log = tmp_path / "corrupt.log"
    write_corrupt_log(log, event)
    assert main(["analyze", "--log", str(log)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: corrupt ")


@pytest.mark.parametrize("event", CORRUPT_EVENTS)
def test_counter_refuses_corrupt_log(tmp_path, event):
    conf = tmp_path / "exp.conf"
    conf.write_text(format_config(make_config(secret="s3cret")))
    log = tmp_path / "corrupt.log"
    write_corrupt_log(log, event)
    done = subprocess.run(
        [sys.executable, "-m", "rollcall.cli", "counter", "--listen", "127.0.0.1:0",
         "--config", str(conf), "--log", str(log)],
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("error: corrupt ")
    assert "Traceback" not in done.stderr


class TestSimulateAndPower:
    def test_simulate_emits_table_and_analyzable_log(self, tmp_path, capsys):
        log_out = tmp_path / "sim.log"
        trace_out = tmp_path / "sim.trace"
        code = main([
            "simulate", "--clients", "60", "--rounds", "4", "--seed", "3",
            "--log-out", str(log_out), "--trace-out", str(trace_out),
        ])
        sim_fields = out_fields(capsys.readouterr().out)
        assert code == EXIT_OK
        assert sim_fields["verdict"] in (
            "COPING_EVIDENCE", "NO_COPING_EVIDENCE", "UNSTABLE_CALIBRATION"
        )
        assert trace_out.read_text().splitlines()

        # analyzing the emitted log reproduces the in-process analysis exactly
        main(["analyze", "--log", str(log_out)])
        analyze_fields = out_fields(capsys.readouterr().out)
        for key in ("counts", "mean", "stddev", "z", "p_of_z", "confidence", "verdict"):
            assert analyze_fields[key] == sim_fields[key], key

    @pytest.mark.parametrize("flag", ["--log-out", "--trace-out"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_simulate_to_an_unwritable_path_is_an_error(self, tmp_path, capsys, flag, target):
        # a path under a missing directory, or a path that is a directory
        path = tmp_path / "missing" / "out.txt" if target == "missing" else tmp_path
        code = main(["simulate", "--clients", "10", "--rounds", "2", flag, str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_simulate_coping_suppresses(self, capsys):
        code = main([
            "simulate", "--clients", "300", "--rounds", "6", "--seed", "7",
            "--scenario", "COPING", "--delta", "0.6",
        ])
        fields = out_fields(capsys.readouterr().out)
        assert code == EXIT_OK
        assert fields["verdict"] == "COPING_EVIDENCE"
        assert float(fields["z"]) < -3

    def test_power_table(self, capsys):
        code = main([
            "power", "--clients", "80", "--rounds", "4", "--seed", "2",
            "--runs", "100", "--deltas", "0,1.0",
        ])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert out[0] == "delta\tdetection_rate\tmean_z"
        rows = [line.split("\t") for line in out[1:]]
        assert [r[0] for r in rows] == ["0", "1"]
        assert float(rows[1][1]) == 1.0

    def test_power_run_floor(self, capsys):
        assert main(["power", "--runs", "10"]) == EXIT_ERROR
        assert "100" in capsys.readouterr().err

    def test_bad_scenario_flags(self, capsys):
        assert main(["simulate", "--p", "1.5"]) == EXIT_ERROR

    @pytest.mark.parametrize("command", [
        ["simulate", "--clients", "200"],
        ["simulate", "--clients", "50", "--p", "0"],  # no verdict to take, alpha still checked
        ["power", "--clients", "80", "--rounds", "4", "--runs", "100", "--deltas", "0"],
    ])
    def test_bad_alpha_is_an_error(self, capsys, command):
        assert main([*command, "--alpha", "0.9"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: alpha must lie in (0, 0.5]\n"
        assert "verdict" not in captured.out and "detection_rate" not in captured.out

    def test_negative_seed_is_an_error(self, capsys):
        assert main(["simulate", "--clients", "5", "--seed", "-1"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert "Traceback" not in err


class TestCounterAndClientErrors:
    def test_counter_missing_config(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["counter", "--listen", "127.0.0.1:0", "--config",
                  str(tmp_path / "none.conf"), "--log", str(tmp_path / "c.log")])
        assert err.value.code == EXIT_ERROR

    def test_counter_malformed_config_names_line(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("experiment_id = x\nsecret broken line\n")
        with pytest.raises(SystemExit) as err:
            main(["counter", "--listen", "127.0.0.1:0", "--config", str(conf),
                  "--log", str(tmp_path / "c.log")])
        assert err.value.code == EXIT_ERROR
        assert "line 2" in capsys.readouterr().err

    def test_counter_bind_failure(self, tmp_path, capsys):
        conf = tmp_path / "ok.conf"
        from rollcall.protocol import format_config
        conf.write_text(format_config(make_config()))
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(["counter", "--listen", f"127.0.0.1:{port}",
                         "--config", str(conf), "--log", str(tmp_path / "c.log")])
        finally:
            blocker.close()
        assert code == EXIT_ERROR
        assert "cannot listen" in capsys.readouterr().err

    def test_counter_log_that_is_a_directory(self, tmp_path, capsys):
        conf = tmp_path / "ok.conf"
        conf.write_text(format_config(make_config()))
        code = main(["counter", "--listen", "127.0.0.1:0", "--config", str(conf),
                     "--log", str(tmp_path)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot open log {tmp_path}")

    def test_client_unreachable_counter(self, tmp_path, capsys):
        conf = tmp_path / "ok.conf"
        from rollcall.protocol import format_config
        conf.write_text(format_config(make_config()))
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        code = main(["client", "--config", str(conf),
                     "--counter", f"127.0.0.1:{port}", "--assume-yes",
                     "--sync-samples", "1"])
        assert code == EXIT_ERROR
        assert "synchronize" in capsys.readouterr().err


    def test_client_needs_a_sync_sample(self, tmp_path, capsys, monkeypatch):
        conf = tmp_path / "ok.conf"
        conf.write_text(format_config(make_config()))

        def no_connection(*_args, **_kwargs):
            raise AssertionError("the client connected")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        with pytest.raises(SystemExit) as err:
            main(["client", "--config", str(conf), "--counter", "127.0.0.1:9",
                  "--assume-yes", "--sync-samples", "0"])
        assert err.value.code == 2
        assert "--sync-samples" in capsys.readouterr().err


class TestClientSourceFiles:
    """A bad activity or uptime file stops the client before it starts."""

    def run_client(self, tmp_path, *source_args):
        conf = tmp_path / "ok.conf"
        conf.write_text(format_config(make_config()))
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here: the client must stop before connecting
        return subprocess.run(
            [sys.executable, "-m", "rollcall.cli", "client", "--config", str(conf),
             "--counter", f"127.0.0.1:{port}", "--assume-yes", "--sync-samples", "1",
             *source_args],
            capture_output=True, text=True, timeout=30,
        )

    def test_missing_activity_file(self, tmp_path):
        missing = tmp_path / "no-such-activity.txt"
        done = self.run_client(tmp_path, "--activity", str(missing))
        assert done.returncode == EXIT_ERROR
        assert done.stderr.startswith("error: ")
        assert str(missing) in done.stderr
        assert "Traceback" not in done.stderr

    def test_malformed_activity_file(self, tmp_path):
        activity = tmp_path / "activity.txt"
        activity.write_text("100\nnoon\n")
        done = self.run_client(tmp_path, "--activity", str(activity))
        assert done.returncode == EXIT_ERROR
        assert done.stderr.startswith("error: activity file line 2:")
        assert "Traceback" not in done.stderr

    def test_malformed_uptime_file(self, tmp_path):
        uptime = tmp_path / "uptime.txt"
        uptime.write_text("SIDEWAYS 100\n")
        done = self.run_client(tmp_path, "--uptime", str(uptime))
        assert done.returncode == EXIT_ERROR
        assert done.stderr.startswith("error: uptime file line 1:")
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("port", ["99999", "-1", "\uff11\uff12\uff13", "080"])
@pytest.mark.parametrize("command", ["counter", "client"])
def test_bad_port_is_a_usage_error(tmp_path, command, port):
    conf = tmp_path / "ok.conf"
    conf.write_text(format_config(make_config()))
    log = tmp_path / "c.log"
    args = (["--listen", f"127.0.0.1:{port}", "--log", str(log)] if command == "counter"
            else ["--counter", f"127.0.0.1:{port}", "--assume-yes"])
    done = subprocess.run(
        [sys.executable, "-m", "rollcall.cli", command, "--config", str(conf), *args],
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 2
    assert "usage:" in done.stderr and "0-65535" in done.stderr
    assert "Traceback" not in done.stderr
    assert not log.exists()


@pytest.mark.parametrize("command, flag", [
    *(("simulate", flag) for flag in (
        "--clients", "--rounds", "--seed", "--delta-tau-ms", "--delta-t-ms", "--grace-ms",
        "--net-min-ms", "--net-max-ms", "--asym-up-ms",
    )),
    ("power", "--runs"), ("client", "--prompt-lead-ms"), ("client", "--sync-samples"),
])
def test_integer_flags_take_the_integer_grammar(capsys, command, flag):
    required = ["--config", "c.conf", "--counter", "h:1"] if command == "client" else []
    args = build_parser().parse_args([command, *required, flag, "12"])
    assert getattr(args, flag[2:].replace("-", "_")) == 12
    for bad in ("1_0", "+5", "012", " 5", "\u0663", "\uff11\uff12"):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([command, *required, flag, bad])
        assert err.value.code == 2, bad
        stderr = capsys.readouterr().err
        assert "usage:" in stderr and "expected a decimal integer" in stderr, bad
        assert "_parse_int" not in stderr, bad


@pytest.mark.parametrize("nonce", ["c000000", "", "two words", "n" * 65, "tab\tnonce"])
def test_a_bad_nonce_is_a_usage_error(capsys, nonce):
    required = ["client", "--config", "c.conf", "--counter", "h:1"]
    assert build_parser().parse_args([*required, "--nonce", "cli-client-1"]).nonce == "cli-client-1"
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([*required, "--nonce", nonce])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "usage:" in stderr and "--nonce" in stderr and "8-64 characters" in stderr
    assert "Traceback" not in stderr


class TestLiveSubcommands:
    def test_counter_and_client_processes(self, tmp_path):
        """Two real processes complete a compressed schedule end to end."""
        now = int(time.time() * 1000)
        config = ExperimentConfig(
            experiment_id="cli-e2e", secret="cli-secret",
            epoch_ms=now + 1500, delta_t_ms=4_000, n_rounds=2,
            delta_tau_ms=1_500, t_star_ms=now + 1500 + 8_000, grace_ms=1_500,
        )
        conf = tmp_path / "exp.conf"
        conf.write_text(format_config(config))
        uptime = tmp_path / "uptime.txt"
        uptime.write_text(
            f"DOWN {config.t_star_ms - 300}\nUP {config.t_star_ms + config.delta_tau_ms + 300}\n"
        )
        log = tmp_path / "counter.log"
        counter, port = spawn_counter(conf, log, extra_args=["--until-complete"])
        # leaving the `with` closes both pipes and reaps the process
        with counter:
            try:
                client = subprocess.run(
                    [sys.executable, "-m", "rollcall.cli", "client",
                     "--config", str(conf), "--counter", f"127.0.0.1:{port}",
                     "--uptime", str(uptime), "--nonce", "cli-client-1",
                     "--assume-yes", "--prompt-lead-ms", "500", "--sync-samples", "2"],
                    capture_output=True, text=True, timeout=40,
                )
                assert client.returncode == EXIT_OK, client.stderr
                assert "experiment complete" in client.stdout
                assert counter.wait(timeout=20) == EXIT_OK
            finally:
                if counter.poll() is None:
                    counter.kill()
        counts, n_star = log_distribution(read_log(log))
        assert counts == [1, 1]
        assert n_star == 1


def spawn_counter(conf, log, python_code=None, extra_args=()):
    """A `rollcall counter` process on a free port, once it has said it listens."""
    args = ["counter", "--listen", "127.0.0.1:0", "--config", str(conf), "--log", str(log),
            *extra_args]
    if python_code is None:
        cmd = [sys.executable, "-m", "rollcall.cli", *args]
    else:
        cmd = [sys.executable, "-c", python_code, *args]
    counter = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = counter.stdout.readline()
    assert "listening" in line
    return counter, int(line.split()[3].rstrip(",").rpartition(":")[2])


class TestCounterStops:
    def test_sigterm_right_after_listening(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(format_config(make_config()))
        for attempt in range(10):
            counter, _port = spawn_counter(conf, tmp_path / f"counter-{attempt}.log")
            with counter:
                try:
                    counter.send_signal(signal.SIGTERM)
                    assert counter.wait(timeout=5) == EXIT_OK, f"attempt {attempt}"
                finally:
                    if counter.poll() is None:
                        counter.kill()

    def test_a_stopped_log_ends_the_counter_with_its_reason(self, tmp_path):
        now = int(time.time() * 1000)
        # round 0's report window is open right now
        config = make_config(epoch_ms=now - 11_000, delta_t_ms=100_000, delta_tau_ms=10_000,
                             grace_ms=60_000)
        conf = tmp_path / "exp.conf"
        conf.write_text(format_config(config))
        log = tmp_path / "counter.log"
        # files of the counter process may not grow past 20 bytes: its first
        # logged line fails to append (the ignored SIGXFSZ is Python's default)
        limited = (
            "import resource, sys\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (20, hard))\n"
            "from rollcall.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        counter, port = spawn_counter(conf, log, limited)
        with counter:
            try:
                token = derive_token(config.secret, RoundRef.cal(0))
                with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                    sock.sendall(f"REPORT CAL 0 nonce-001 {token}\n".encode())
                    assert sock.makefile("rb").read() == b""
                assert counter.wait(timeout=5) == EXIT_ERROR
                assert counter.stderr.read().startswith(
                    "error: the log stopped after a failed append:"
                )
            finally:
                if counter.poll() is None:
                    counter.kill()
        assert log.read_bytes() == b""


class LoadConnection(threading.Thread):
    """One connection that sends pipelined batches of REPORTs (valid, resent,
    bad token, malformed) and SYNCs until the counter goes away, keeping each
    request with the answer it got, if any."""

    KINDS = ("valid", "resend", "badtoken", "malformed", "sync")

    def __init__(self, port, config, name, seed, resendable):
        super().__init__(daemon=True)
        self.port, self.config, self.name = port, config, name
        self.rng = random.Random(seed)
        # pairs counted before their resend arrives: ones answered in an
        # earlier run, and ones sent earlier on this connection
        self.resendable = list(resendable)
        self.requests = []  # (kind, round, nonce)
        self.answers = []  # one per request, in order, while answers come

    def request(self):
        kind = self.rng.choices(self.KINDS, weights=(6, 2, 1, 1, 1))[0]
        round = self.rng.choice(self.config.rounds())
        nonce = f"{self.name}-{len(self.requests):05d}"
        if kind == "resend" and self.resendable:
            round, nonce = self.rng.choice(self.resendable)
        elif kind == "resend":
            kind = "valid"
        if kind == "valid":
            self.resendable.append((round, nonce))
        token = derive_token(self.config.secret, round) if kind != "badtoken" else "0" * 32
        self.requests.append((kind, round, nonce))
        if kind == "malformed":
            return f"REPORT {round.wire()} {nonce}"
        if kind == "sync":
            return f"SYNC {int(time.time() * 1000)}"
        return f"REPORT {round.wire()} {nonce} {token}"

    def run(self):
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=10) as sock:
                reader = sock.makefile("rb")
                while True:
                    batch = [self.request() for _ in range(16)]
                    sock.sendall("".join(line + "\n" for line in batch).encode())
                    for _ in batch:
                        answer = reader.readline()
                        if not answer.endswith(b"\n"):  # the counter is gone
                            return
                        self.answers.append(answer.decode().rstrip("\n"))
        except OSError:
            return


def expected_answer(kind, round):
    return {"valid": f"ACK {round.wire()}", "resend": "REJ DUP", "badtoken": "REJ BADTOKEN",
            "malformed": "REJ MALFORMED", "sync": "SYNCR"}[kind]


class TestKilledUnderLoad:
    """SIGKILL the counter while connections load it, and restart it on its log.

    The kill lands anywhere among one connection's write, the shared fsync
    and another connection's answer. It keeps the page cache, so this tests
    the service's write, fsync, answer order and the replay of what was
    written, not power loss, which `TestDurableLogModel` models.
    """

    KILLS = 5
    CONNECTIONS = 3

    def test_acked_reports_survive_repeated_kills(self, tmp_path, capsys):
        rng = random.Random(28)
        start = time.time()
        now = int(start * 1000)
        # every window is open from the start, and all have closed 5 s later
        config = make_config(n_rounds=2, epoch_ms=now - 10, delta_t_ms=2, delta_tau_ms=1,
                             grace_ms=5_000)
        conf = tmp_path / "exp.conf"
        conf.write_text(format_config(config))
        log = tmp_path / "counter.log"
        rounds = config.rounds()
        sent = {round: set() for round in rounds}  # distinct valid nonces written
        acked = set()  # (round, nonce) pairs answered ACK or DUP
        kills = 0
        while kills < self.KILLS and time.time() < start + 2.5:  # leave time to resend all
            counter, port = spawn_counter(conf, log)
            with counter:
                try:
                    loads = [LoadConnection(port, config, f"k{kills}-c{i}", rng.random(),
                                            sorted(acked)) for i in range(self.CONNECTIONS)]
                    for load in loads:
                        load.start()
                    time.sleep(rng.uniform(0.05, 0.3))
                    counter.kill()
                    counter.wait(timeout=5)
                finally:
                    if counter.poll() is None:
                        counter.kill()
            kills += 1
            for load in loads:
                load.join(timeout=10)
                assert not load.is_alive()
                for i, (kind, round, nonce) in enumerate(load.requests):
                    if kind in ("valid", "resend"):
                        sent[round].add(nonce)
                    if i < len(load.answers):
                        assert load.answers[i].startswith(expected_answer(kind, round))
                        if kind in ("valid", "resend"):
                            acked.add((round, nonce))
            state = replay_events(config, read_log(log))
            assert acked <= state.seen
            for round in rounds:
                acked_here = sum(1 for pair in acked if pair[0] == round)
                assert acked_here <= state.tallies[round].count <= len(sent[round])
        assert kills >= 2 and acked

        # a last counter that closes every round: each report ever sent is
        # now counted, so its tallies are the distinct valid reports sent
        counter, port = spawn_counter(conf, log, extra_args=["--until-complete"])
        with counter:
            try:
                pairs = sorted((round, nonce) for round in rounds for nonce in sent[round])
                if len(sent[rounds[0]]) == len(sent[rounds[1]]):  # keep a spread to analyze
                    pairs.append((rounds[0], "one-more-report"))
                    sent[rounds[0]].add("one-more-report")
                with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                    sock.sendall("".join(
                        f"REPORT {round.wire()} {nonce} {derive_token(config.secret, round)}\n"
                        for round, nonce in pairs).encode())
                    sock.shutdown(socket.SHUT_WR)
                    answers = sock.makefile("rb").read().decode().splitlines()
                assert len(answers) == len(pairs)
                for pair, answer in zip(pairs, answers):
                    if pair in acked:
                        assert answer == "REJ DUP"
                    else:
                        assert answer in ("REJ DUP", f"ACK {pair[0].wire()}")
                assert counter.wait(timeout=15) == EXIT_OK
            finally:
                if counter.poll() is None:
                    counter.kill()
        capsys.readouterr()
        assert main(["analyze", "--log", str(log)]) != EXIT_ERROR
        fields = out_fields(capsys.readouterr().out)
        assert fields["counts"] == " ".join(str(len(sent[r])) for r in rounds[:-1])
        assert fields["n_star"] == str(len(sent[rounds[-1]]))


class TestParsing:
    def test_parse_address(self):
        assert _parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert _parse_address("::1:0") == ("::1", 0)
        assert _parse_address("h:65535") == ("h", 65535)
        for bad in ("localhost", ":90", "host:", "host:abc", "host:65536", "host:+80"):
            with pytest.raises(Exception):
                _parse_address(bad)

    def test_unknown_flag_is_an_error(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--log", "x", "--frobnicate"])
        assert err.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
