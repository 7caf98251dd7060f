"""Fast checks of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import liveload  # noqa: E402
import mcload  # noqa: E402
import spans  # noqa: E402
from rollcall.counter import CounterCore  # noqa: E402
from rollcall.sim import _child_seeds  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_of_a_hand_built_span_tree():
    # a [0, 100] holds b [10, 30] and c [40, 60]; c holds d [45, 50]
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    steps = [(0, "open", "a"), (10, "open", "b"), (30, "close", "b"), (40, "open", "c"),
             (45, "open", "d"), (50, "close", "d"), (60, "close", "c"), (100, "close", "a")]
    frames = {}
    for at, action, name in steps:
        clock.now = at
        if action == "open":
            frames[name] = tracer.open(name)
        else:
            tracer.close(frames[name])
    stats = tracer.stats()
    assert {name: own for name, (_calls, _total, own) in stats.items()} == {
        "a": 60, "b": 20, "c": 15, "d": 5}
    assert stats["a"][1] == 100
    assert [(name, start, end) for name, start, end, _req in tracer.roots] == [("a", 0, 100)]
    parents = {span[1]: span[4] for span in tracer.spans}
    ids = {span[1]: span[0] for span in tracer.spans}
    assert parents == {"a": None, "b": ids["a"], "c": ids["a"], "d": ids["c"]}


def test_covered_time_is_the_union_of_intervals():
    assert spans.covered_ns([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert spans.covered_ns([(0, 10), (5, 15), (20, 30)], 8, 25) == 12
    assert spans.covered_ns([], 0, 10) == 0


def test_mc_smoke_checks_pass_and_tracing_counts_layers():
    spec = mcload.clean_spec(7, m_clients=40)
    seeds = _child_seeds(7, mcload.BATCH)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        done = mcload.run_batch(spec, seeds, 0.0, before=tracer.set_request)
    finally:
        tracer.active = False
        uninstall()
    assert len(done) == mcload.BATCH
    assert mcload.check("mc-clean", spec, 7, seeds, done) == []
    stats, counts = tracer.stats(), tracer.counts()
    assert stats["sim.SimClient.__init__"][0] == 40 * mcload.BATCH
    assert stats["protocol.decode_message"][0] > 0
    assert counts["counter.accepts"] == sum(sum(r.counts) + r.n_star for r in done)
    assert {req for _name, _s, _e, req in tracer.roots} == set(range(mcload.BATCH))


def test_mc_faulty_smoke_and_a_wrong_replicate_fails():
    spec = mcload.faulty_spec(8, m_clients=40)
    seeds = _child_seeds(8, mcload.BATCH)
    done = mcload.run_batch(spec, seeds, 0.0)
    assert mcload.check("mc-faulty", spec, 8, seeds, done) == []
    done[1].counts[0] += 1
    assert {index for index, _problem in mcload.check("mc-faulty", spec, 8, seeds, done)} == {1}


def test_recorded_digests_cover_both_mc_workloads():
    digests = mcload.load_digests()
    assert {len(v) for v in digests.values()} == {mcload.DIGEST_COUNT}
    assert set(digests) == set(mcload.SPECS)


def test_live_smoke_untraced_and_traced(tmp_path):
    plain = liveload.run_live(tmp_path / "plain", 3, 0.4, population=20, waves=1,
                              setups=1, restarts=1)
    assert plain.problems == [] and plain.failed == 0
    assert plain.attempted > 11 * 22
    assert plain.loopback and len(plain.score.burst_rates) == 11
    traced = liveload.run_live(tmp_path / "traced", 3, 0.4, population=20, waves=1,
                               setups=1, restarts=1, traced=True)
    assert traced.problems == [] and traced.failed == 0
    server = json.loads((tmp_path / "traced" / "counter-trace.json").read_text())
    assert server["stats"]["counter.fsync"][0] > 0
    handled = {tuple(req) for name, _s, _e, req in server["roots"]
               if name == "counter.CounterService.handle"}
    assert {(conn, seq) for conn, seq, _rtt in traced.score.syncs} <= handled
    restart = json.loads((tmp_path / "traced" / "restart-trace-0.json").read_text())
    assert restart["stats"]["counter.replay_events"][0] == 1


class FakeCounter:
    """Answers like the real tally code, except for one chosen request."""

    def __init__(self, config, wrong_at: int) -> None:
        self.core = CounterCore(config)
        self.wrong_at = wrong_at
        self.seen = 0
        self.server = socket.create_server(("127.0.0.1", 0))
        self.port = self.server.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        sock, _addr = self.server.accept()
        with sock, sock.makefile("rb") as rfile:
            for raw in rfile:
                now = int(time.time() * 1000)
                answer = self.core.handle_line(raw.decode().rstrip("\n"), now)
                if self.seen == self.wrong_at:
                    answer = "REJ LATE"
                self.seen += 1
                sock.sendall(answer.encode() + b"\n")

    def close(self) -> None:
        self.server.close()
        self.thread.join(timeout=5)


@pytest.mark.parametrize("wrong_at", [0, 7, 23])
def test_a_wrong_answer_from_a_fake_counter_is_counted_as_failed(wrong_at):
    config = liveload.make_config(int(time.time() * 1000))
    fake = FakeCounter(config, wrong_at)
    try:
        sock = socket.create_connection(("127.0.0.1", fake.port))
        conns = [liveload.Connection(0, sock, 0)]
        plan = liveload.plan_run(5, config, 12, 1)[:2]
        # everything on the one connection the fake serves
        schedule = [(time.perf_counter(), [[*reqs[0], *reqs[1]]]) for reqs in plan]
        liveload.drive(conns, schedule)
        sock.close()
    finally:
        fake.close()
    seen = liveload.score(conns, schedule)
    assert seen.failed == 1
    assert len(seen.burst_rates) == 2


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-clean", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH_DIR))
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["bench"]


def test_mc_rate_is_quoted_at_the_reference_host_speed():
    reps = [mcload.Replicate(i, 0.5, [], 0, None, None, 0, host_factor=2.0)
            for i in range(mcload.BATCH)]
    assert mcload.rate_per_s(reps, scaled=False) == pytest.approx(2.0)
    assert mcload.rate_per_s(reps) == pytest.approx(4.0)
