import socket
import subprocess
import sys
import time

import pytest

from rollcall.cli import EXIT_COPING, EXIT_ERROR, EXIT_OK, EXIT_UNSTABLE, main, _parse_address
from rollcall.counter import log_distribution, read_log
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
        port_probe = socket.socket()
        port_probe.bind(("127.0.0.1", 0))
        port = port_probe.getsockname()[1]
        port_probe.close()

        counter = subprocess.Popen(
            [sys.executable, "-m", "rollcall.cli", "counter",
             "--listen", f"127.0.0.1:{port}", "--config", str(conf),
             "--log", str(log), "--until-complete", "--no-fsync"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert "listening" in counter.stdout.readline()
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


class TestParsing:
    def test_parse_address(self):
        assert _parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        for bad in ("localhost", ":90", "host:", "host:abc"):
            with pytest.raises(Exception):
                _parse_address(bad)

    def test_unknown_flag_is_an_error(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--log", "x", "--frobnicate"])
        assert err.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])
