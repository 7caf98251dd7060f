"""rollcall benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload mc-clean --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):
  mc-clean    Monte Carlo replicates of the null scenario at M=1000, n=10
  mc-faulty   the same scale under COPING on a lossy network with faults
  live-burst  open-loop roll-call bursts against a `rollcall counter`
              process over loopback TCP, fsync on, then a timed restart

With --trace 0 the end-to-end metrics are measured with nothing wrapped.
With --trace 1 the run is split in two halves, untraced then traced, and
the per-layer metrics come from the traced half; the tracing overhead is
the difference between the halves. Every output is checked; the last line
of standard output is a JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("mc-clean", "mc-faulty", "live-burst")
SETUP_REPEATS = 3

# end-to-end: name -> unit; the meaning per workload is in bench/README.md
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per layer: name -> unit; 0 means the layer does no work on that workload
PER_LAYER = {
    "sim.client_setup_us": "us",
    "sim.events_per_run": "count",
    "sim.event_loop_self_s": "s",
    "sim.net_request_us": "us",
    "sim.sends_per_report": "ratio",
    "sim.drops_per_run": "count",
    "sim.useful_ratio": "ratio",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.derive_token_us": "us",
    "protocol.decode_calls_per_op": "count",
    "counter.handle_line_us": "us",
    "counter.close_due_us": "us",
    "counter.accepts": "count",
    "counter.rejects_dup": "count",
    "counter.rejects_badtoken": "count",
    "counter.rejects_malformed": "count",
    "counter.rejects_early": "count",
    "counter.rejects_late": "count",
    "counter.log_append_us": "us",
    "counter.fsync_us": "us",
    "counter.fsyncs_per_report": "ratio",
    "counter.log_bytes_per_report": "bytes",
    "counter.lock_wait_us": "us",
    "counter.tcp_overhead_us": "us",
    "counter.read_log_s": "s",
    "counter.replay_s": "s",
    "stats.summarize_us": "us",
    "stats.analyze_us": "us",
    "client.request_us": "us",
    "client.sync_offset_abs_ms_max": "ms",
    "live.report_latency_p50_ms": "ms",
    "live.report_latency_p99_ms": "ms",
    "live.sync_latency_p50_ms": "ms",
    "live.recovery_s": "s",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}

_SETUP_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import mcload\n"
    "mcload.warmup(sys.argv[3], int(sys.argv[4]))\n"
    "print(time.perf_counter() - started)\n"
)


# --- span aggregates -------------------------------------------------------------


class Aggregates:
    """Read-only view of one or more tracers' `stats` and `counts`."""

    def __init__(self, *dumps: dict) -> None:
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        for dump in dumps:
            for name, (calls, total, own) in dump["stats"].items():
                entry = self.stats.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for key, n in dump["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + n

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def mean_us(self, name: str, own: bool = False) -> float:
        calls, total, self_ns = self.stats.get(name, [0, 0, 0])
        return ((self_ns if own else total) / calls / 1000.0) if calls else 0.0

    def total_s(self, name: str, own: bool = False) -> float:
        _calls, total, self_ns = self.stats.get(name, [0, 0, 0])
        return (self_ns if own else total) / 1e9

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(agg: Aggregates, ops: int, per_op_counts: bool) -> dict[str, float]:
    """The metrics every workload derives the same way from span aggregates."""
    scale = ops if per_op_counts else 1
    metrics = {
        "sim.client_setup_us": agg.mean_us("sim.SimClient.__init__"),
        "sim.events_per_run": agg.calls("sim.EventLoop.schedule") / ops,
        "sim.event_loop_self_s": agg.total_s("sim.EventLoop.run", own=True) / ops,
        "sim.net_request_us": agg.mean_us("sim.VirtualNet.request"),
        "sim.sends_per_report": _ratio(agg.count("sim.report_sends"), agg.count("counter.accepts"))
        if agg.count("sim.report_sends") else 0.0,
        "sim.drops_per_run": agg.count("sim.drops") / ops,
        "sim.useful_ratio": _ratio(agg.count("counter.accepts"), agg.count("counter.report_lines"))
        if agg.calls("sim.VirtualNet.request") else 0.0,
        "protocol.decode_us": agg.mean_us("protocol.decode_message"),
        "protocol.encode_us": agg.mean_us("protocol.encode_message"),
        "protocol.derive_token_us": agg.mean_us("protocol.derive_token"),
        "protocol.decode_calls_per_op": agg.calls("protocol.decode_message") / ops,
        "counter.handle_line_us": agg.mean_us("counter.CounterCore.handle_line", own=True),
        "counter.close_due_us": agg.mean_us("counter.CounterCore.close_due"),
        "counter.log_append_us": agg.mean_us("counter.EventLog.append", own=True),
        "counter.fsync_us": agg.mean_us("counter.fsync"),
        "counter.fsyncs_per_report": _ratio(agg.calls("counter.fsync"),
                                            agg.count("counter.logged_requests")),
        "counter.lock_wait_us": agg.mean_us("counter.lock_wait"),
        "stats.summarize_us": agg.mean_us("stats.summarize"),
        "stats.analyze_us": agg.mean_us("stats.analyze"),
    }
    metrics["counter.accepts"] = agg.count("counter.accepts") / scale
    for reason in ("dup", "badtoken", "malformed", "early", "late"):
        metrics[f"counter.rejects_{reason}"] = agg.count(f"counter.rejects_{reason}") / scale
    return metrics


# --- Monte Carlo workloads ------------------------------------------------------------


def _setup_probe(workload: str, seed: int) -> float:
    """Imports plus one warm-up replicate, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC_DIR), str(BENCH_DIR), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_mc(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import mcload
    import spans
    from rollcall.sim import _child_seeds

    spec = mcload.SPECS[workload](seed)
    seeds = _child_seeds(seed, mcload.MAX_REPLICATES)
    setups = [] if trace else [_setup_probe(workload, seed) for _ in range(SETUP_REPEATS)]
    mcload.run_replicate(spec, seeds[0], 0)  # warm caches before timing
    result: dict = {"meta": {"m_clients": spec.m_clients, "n_rounds": spec.config.n_rounds}}

    if not trace:
        done = mcload.run_batch(spec, seeds, seconds)
        batches = [done]
        result["meta"]["unscaled_throughput_per_s"] = mcload.rate_per_s(done, scaled=False)
        result["meta"]["host_factor_median"] = statistics.median(r.host_factor for r in done)
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": mcload.rate_per_s(done),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        plain = mcload.run_batch(spec, seeds, seconds / 2)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        started = time.perf_counter_ns()
        traced = mcload.run_batch(spec, seeds, seconds / 2, before=tracer.set_request)
        wall = time.perf_counter_ns() - started
        tracer.active = False
        uninstall()
        batches = [plain, traced]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.json")
        agg = Aggregates({"stats": tracer.stats(), "counts": tracer.counts()})
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(_layer_metrics(agg, len(traced), per_op_counts=True))
        covered = sum(end - start for _name, start, end, _req in tracer.roots)
        metrics["trace.unattributed_share"] = 1.0 - covered / wall
        metrics["trace.overhead_share"] = 1.0 - mcload.rate_per_s(traced) / mcload.rate_per_s(plain)
        result["metrics"] = metrics

    failures: dict[tuple[int, int], list[str]] = {}
    for number, batch in enumerate(batches):
        for index, problem in mcload.check(workload, spec, seed, seeds, batch):
            failures.setdefault((number, index), []).append(problem)
    result.update(attempted=sum(len(b) for b in batches), failed=len(failures),
                  problems=[p for v in failures.values() for p in v])
    result["meta"]["replicates"] = [len(b) for b in batches]
    return result


# --- live workload ------------------------------------------------------------------


def _filesystem(path: Path) -> str:
    try:
        done = subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True,
                              text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _live_meta(live, workdir: Path) -> dict:
    import liveload

    split = liveload.cpu_split()
    return {
        "log_filesystem": _filesystem(workdir),
        "fsync": "on (counter and restarted counter)",
        "loopback": live.loopback,
        "connections": {"counter": liveload.CONNECTIONS, "reference": liveload.CONNECTIONS},
        "cpus": "not pinned: one CPU" if split is None
        else {"generator": sorted(split[0]), "counter": sorted(split[1])},
        "population_per_round": liveload.POPULATION,
        "requests": live.attempted,
        "generator_start_lag_ms": {
            "p50": liveload.median(live.score.start_lag_ms),
            "max": max(live.score.start_lag_ms, default=0.0),
        },
        "sync_offsets_ms": live.sync_offsets_ms,
        "unscaled_throughput_per_s": liveload.median(live.score.burst_rates),
        "reference_lines_per_s": liveload.median(live.reference_rates),
    }


def run_live_workload(seed: int, seconds: float, trace: bool) -> dict:
    import liveload

    workdir = OUT_DIR / f"work-live-{seed}-{os.getpid()}"
    try:
        if not trace:
            live = liveload.run_live(workdir, seed, seconds, setups=SETUP_REPEATS)
            return {
                "metrics": {
                    "setup_s": statistics.median(live.setup_s),
                    "throughput_per_s": live.rate_per_s(),
                    "peak_rss_mb": live.peak_rss_mb,
                },
                "attempted": live.attempted, "failed": live.failed, "problems": live.problems,
                "meta": _live_meta(live, workdir),
            }
        return _run_live_traced(seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_live_traced(seed: int, seconds: float, workdir: Path) -> dict:
    import liveload
    import spans

    plain = liveload.run_live(workdir / "plain", seed, seconds / 2, setups=1)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = liveload.run_live(workdir / "traced", seed, seconds / 2, setups=1, traced=True)
    finally:
        tracer.active = False
        uninstall()
    tdir = workdir / "traced"
    server = json.loads((tdir / "counter-trace.json").read_text())
    restarts = [json.loads(p.read_text()) for p in sorted(tdir.glob("restart-trace-*.json"))]
    OUT_DIR.mkdir(exist_ok=True)
    os.replace(tdir / "counter-trace.json", OUT_DIR / f"trace-live-burst-seed{seed}-counter.json")
    tracer.dump(OUT_DIR / f"trace-live-burst-seed{seed}-generator.json")

    agg = Aggregates(server)
    handled = agg.calls("counter.CounterService.handle")
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(_layer_metrics(agg, max(handled, 1), per_op_counts=False))
    metrics["counter.log_bytes_per_report"] = traced.log_bytes / traced.logged_requests

    handle_s = {tuple(req): end - start for name, start, end, req in server["roots"]
                if name == "counter.CounterService.handle"}
    overheads = [rtt * 1e9 - handle_s[(conn, seq)] for conn, seq, rtt in traced.score.syncs
                 if (conn, seq) in handle_s]
    metrics["counter.tcp_overhead_us"] = liveload.median(overheads) / 1000.0
    metrics["counter.read_log_s"] = liveload.median(
        [Aggregates(r).total_s("counter.read_log") for r in restarts])
    metrics["counter.replay_s"] = liveload.median(
        [Aggregates(r).total_s("counter.replay_events") for r in restarts])
    client = Aggregates({"stats": tracer.stats(), "counts": tracer.counts()})
    metrics["client.request_us"] = client.mean_us("client.TcpTransport.request")
    metrics["client.sync_offset_abs_ms_max"] = float(
        max(abs(o) for o in plain.sync_offsets_ms + traced.sync_offsets_ms))
    metrics["live.report_latency_p50_ms"] = liveload.percentile(plain.score.report_latency_ms, 50)
    metrics["live.report_latency_p99_ms"] = liveload.percentile(plain.score.report_latency_ms, 99)
    metrics["live.sync_latency_p50_ms"] = liveload.percentile(plain.score.sync_rtt_ms, 50)
    metrics["live.recovery_s"] = liveload.median(plain.recovery_s)
    metrics["trace.overhead_share"] = 1.0 - traced.rate_per_s() / plain.rate_per_s()
    intervals = [(start, end) for _name, start, end, _req in server["roots"]]
    windows = [(int(due * 1e9), int(end * 1e9)) for due, end in traced.score.bursts]
    busy = sum(end - due for due, end in windows)
    covered = sum(spans.covered_ns(intervals, due, end) for due, end in windows)
    metrics["trace.unattributed_share"] = 1.0 - covered / busy
    return {
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "problems": plain.problems + traced.problems,
        "meta": _live_meta(traced, workdir),
    }


# --- entry point ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "rollcall" / "__init__.py").is_file():
        print(f"error: no rollcall sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import numpy

    if args.workload == "live-burst":
        result = run_live_workload(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_mc(args.workload, args.seed, args.seconds, bool(args.trace))

    units = PER_LAYER if args.trace else END_TO_END
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, **result["meta"],
    }
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
