"""Command-line front end: counter, client, analyze, simulate, power.

One binary keeps the counter and the client in version lockstep and shares
the config parser. All times in flags and config files are absolute
milliseconds since the Unix epoch; the simulator runs on a virtual clock
starting at 0.

Exit codes of `analyze` are a stable contract: 0 no coping evidence,
2 coping evidence, 3 unusable calibration, 1 any error.
"""

from __future__ import annotations

import argparse
import select
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import client as client_mod
from . import counter as counter_mod
from . import stats
from .protocol import (
    SURVEY_CODES,
    ConfigError,
    ExperimentConfig,
    RoundRef,
    _check_nonce,
    _parse_int,
    load_config,
)
from .timesync import SystemClock

if TYPE_CHECKING:
    from .sim import ScenarioSpec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COPING = 2
EXIT_UNSTABLE = 3

_VERDICT_EXIT = {
    stats.NO_COPING_EVIDENCE: EXIT_OK,
    stats.COPING_EVIDENCE: EXIT_COPING,
    stats.UNSTABLE_CALIBRATION: EXIT_UNSTABLE,
}


def _integer(text: str) -> int:
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a decimal integer without sign +, leading zeros or _, got {text!r}"
        ) from None


def _at_least_one(text: str) -> int:
    number = _integer(text)
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return number


def _nonce(text: str) -> str:
    try:
        _check_nonce(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
    return text


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    try:
        number = _parse_int(port)
    except ValueError:
        number = -1
    if not host or not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT with PORT in 0-65535, got {text!r}")
    return host, number


def _load_config_or_exit(path: str) -> ExperimentConfig:
    try:
        return load_config(path)
    except FileNotFoundError:
        print(f"error: config file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


# --- counter -----------------------------------------------------------------


def cmd_counter(args: argparse.Namespace) -> int:
    config = _load_config_or_exit(args.config)
    try:
        service = counter_mod.CounterService(
            config,
            args.listen,
            log_path=args.log,
            until_complete=args.until_complete,
        )
    except OSError as exc:
        print(f"error: cannot listen on {args.listen[0]}:{args.listen[1]}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except counter_mod.CounterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # installed before the listening line, so a signal sent on seeing it is
    # handled; the handler only asks the serving loop to end, which works
    # wherever in the loop the signal lands
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_args: service.stop())
    host, port = service.address
    print(f"counter listening on {host}:{port}, log {args.log}", flush=True)
    service.serve_forever()
    if service.error is not None:
        print(f"error: {service.error}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# --- client ------------------------------------------------------------------


def _terminal_consent(round: RoundRef, deadline_local_ms: int) -> bool:
    clock = SystemClock()
    window = "shut the host down and disconnect" if round.is_execution else "refrain from using keyboard and mouse"
    print(f"round {round.wire()}: will you {window} for the test window? [y/N] ", end="", flush=True)
    timeout_s = max((deadline_local_ms - clock.now_ms()) / 1000.0, 0.0)
    ready, _, _ = select.select([sys.stdin], [], [], timeout_s)
    if not ready:
        print("(no answer, counting as no)")
        return False
    answer = sys.stdin.readline().strip().lower()
    return answer in ("y", "yes")


def _terminal_survey() -> tuple[str, str] | None:
    print(f"the shutdown was not certified; why? one of {', '.join(sorted(SURVEY_CODES))}")
    print("code (empty to skip): ", end="", flush=True)
    code = sys.stdin.readline().strip().upper()
    if not code or code not in SURVEY_CODES:
        return None
    print("free text (one line, may be empty): ", end="", flush=True)
    text = sys.stdin.readline().rstrip("\n")
    return code, text


def cmd_client(args: argparse.Namespace) -> int:
    config = _load_config_or_exit(args.config)
    if args.activity:
        activity = client_mod.activity_from_file(args.activity)
    else:
        activity = lambda _start, _end: []
    if args.uptime:
        uptime = client_mod.uptime_from_file(args.uptime)
    else:
        uptime = lambda: []
    # the runner reads the sources only once a window has passed; a file
    # that is unreadable from the start is an error now, not a violation later
    try:
        activity(0, 0)
        uptime()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    host, port = args.counter
    transport = client_mod.TcpTransport(host, port)
    options = client_mod.ClientOptions(
        prompt_lead_ms=args.prompt_lead_ms, sync_samples=args.sync_samples
    )
    if args.nonce is not None:
        options.nonce = args.nonce
    if args.assume_yes:
        consent: client_mod.ConsentFn = lambda _round, _deadline: True
    else:
        consent = _terminal_consent
    survey = None if args.assume_yes else _terminal_survey
    runner = client_mod.ClientRunner(
        config,
        transport,
        SystemClock(),
        consent,
        activity,
        uptime,
        options=options,
        survey=survey,
        notify=lambda line: print(line, flush=True),
    )
    try:
        runner.run()
    except client_mod.ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        transport.close()
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def _print_analysis(counts: list[int], dist: stats.CalibrationDistribution,
                    result: stats.AnalysisResult) -> None:
    print("counts\t" + " ".join(str(c) for c in counts))
    print(f"n\t{len(counts)}")
    print(f"mean\t{dist.mean:.6f}")
    print(f"stddev\t{dist.stddev:.6f}")
    print(f"stable\t{'yes' if dist.stable else 'no'}")
    print(f"n_star\t{result.n_star}")
    print(f"z\t{result.z:.6f}")
    print(f"p_of_z\t{result.p_of_z:.6g}")
    print(f"confidence\t{result.confidence:.6g}")
    print(f"alpha\t{result.alpha:g}")
    print(f"verdict\t{result.verdict}")


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        events = counter_mod.read_log(args.log)
        counts, n_star = counter_mod.log_distribution(events)
    except FileNotFoundError:
        print(f"error: log file not found: {args.log}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: cannot read log {args.log}: {exc.strerror}", file=sys.stderr)
        return EXIT_ERROR
    except counter_mod.CounterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        dist = stats.summarize(counts)
        result = stats.analyze(dist, n_star, args.alpha)
    except (ValueError, stats.DegenerateCalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _print_analysis(counts, dist, result)
    return _VERDICT_EXIT[result.verdict]


# --- simulate / power ----------------------------------------------------------
# only these commands import the simulator, which loads numpy, so the counter,
# the client and `analyze` start without it


def _scenario_from_args(args: argparse.Namespace) -> ScenarioSpec:
    from . import sim

    config = sim.default_sim_config(
        n_rounds=args.rounds,
        delta_tau_ms=args.delta_tau_ms,
        delta_t_ms=args.delta_t_ms,
        grace_ms=args.grace_ms,
    )
    net = sim.NetModel(
        min_latency_ms=args.net_min_ms,
        max_latency_ms=args.net_max_ms,
        loss_prob=args.loss,
        asym_up_ms=args.asym_up_ms,
    )
    return sim.ScenarioSpec(
        m_clients=args.clients,
        p_participate=args.p,
        delta=getattr(args, "delta", 0.0),
        scenario=getattr(args, "scenario", sim.DEFENSE),
        seed=args.seed,
        config=config,
        net=net,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim

    try:
        spec = _scenario_from_args(args)
        outcome = sim.run_scenario(spec, alpha=args.alpha, capture_trace=args.trace_out is not None)
    except (ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print("round\tcount")
    for i, count in enumerate(outcome.counts):
        print(f"CAL {i}\t{count}")
    print(f"EXE 0\t{outcome.n_star}")
    if outcome.analysis is None:
        print("verdict\tDEGENERATE_CALIBRATION")
    else:
        dist = stats.summarize(outcome.counts)
        _print_analysis(outcome.counts, dist, outcome.analysis)
    for path, lines in ((args.log_out, outcome.counter_log), (args.trace_out, outcome.event_trace)):
        if not path:
            continue
        try:
            Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return EXIT_ERROR
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    from . import sim

    try:
        deltas = [float(d) for d in args.deltas.split(",") if d.strip()]
        base = _scenario_from_args(args)
        points = sim.power_curve(base, deltas, args.runs, alpha=args.alpha)
    except (ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print("delta\tdetection_rate\tmean_z")
    for point in points:
        print(f"{point.delta:g}\t{point.detection_rate:.4f}\t{point.mean_z:.4f}")
    return EXIT_OK


# --- parser --------------------------------------------------------------------


def _add_scenario_flags(parser: argparse.ArgumentParser, with_delta: bool = True) -> None:
    parser.add_argument("--clients", type=_integer, default=1000, help="simulated population M")
    parser.add_argument("--rounds", type=_integer, default=10, help="calibration rounds n")
    parser.add_argument("--p", type=float, default=0.5, help="per-round participation probability")
    if with_delta:
        parser.add_argument("--delta", type=float, default=0.0, help="execution-round suppression")
        parser.add_argument(
            "--scenario", choices=[stats.DEFENSE, stats.COPING], default=stats.DEFENSE
        )
    parser.add_argument("--seed", type=_integer, default=1)
    parser.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    parser.add_argument("--delta-tau-ms", type=_integer, default=2000)
    parser.add_argument("--delta-t-ms", type=_integer, default=10000)
    parser.add_argument("--grace-ms", type=_integer, default=2000)
    parser.add_argument("--net-min-ms", type=_integer, default=5)
    parser.add_argument("--net-max-ms", type=_integer, default=50)
    parser.add_argument("--loss", type=float, default=0.0)
    parser.add_argument("--asym-up-ms", type=_integer, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rollcall", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_counter = sub.add_parser("counter", help="run the central tally service")
    p_counter.add_argument("--listen", type=_parse_address, required=True, metavar="HOST:PORT")
    p_counter.add_argument("--config", required=True)
    p_counter.add_argument("--log", required=True)
    p_counter.add_argument(
        "--until-complete", action="store_true", help="exit once every round is closed"
    )
    p_counter.set_defaults(fn=cmd_counter)

    p_client = sub.add_parser("client", help="run the volunteer client lifecycle")
    p_client.add_argument("--config", required=True)
    p_client.add_argument("--counter", type=_parse_address, required=True, metavar="HOST:PORT")
    p_client.add_argument("--activity", help="activity events file (one ms timestamp per line)")
    p_client.add_argument("--uptime", help="uptime records file (DOWN/UP <ms> lines)")
    p_client.add_argument("--nonce", type=_nonce, help="stable client identifier override")
    p_client.add_argument(
        "--prompt-lead-ms", type=_integer, default=client_mod.DEFAULT_PROMPT_LEAD_MS
    )
    p_client.add_argument(
        "--sync-samples", type=_at_least_one, default=client_mod.ClientOptions.sync_samples
    )
    p_client.add_argument(
        "--assume-yes", action="store_true", help="consent to every round without prompting"
    )
    p_client.set_defaults(fn=cmd_client)

    p_analyze = sub.add_parser("analyze", help="apply the decision rule to a counter log")
    p_analyze.add_argument("--log", required=True)
    p_analyze.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run one simulated experiment")
    _add_scenario_flags(p_sim)
    p_sim.add_argument("--log-out", help="write the counter log here (analyzable)")
    p_sim.add_argument("--trace-out", help="write the network event trace here")
    p_sim.set_defaults(fn=cmd_simulate)

    p_power = sub.add_parser("power", help="detection-rate table over suppression strengths")
    _add_scenario_flags(p_power, with_delta=False)
    p_power.add_argument("--deltas", default="0,0.1,0.2,0.5,1.0", help="comma-separated list")
    p_power.add_argument("--runs", type=_integer, default=200)
    p_power.set_defaults(fn=cmd_power)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
