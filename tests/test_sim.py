import math
from dataclasses import replace

import numpy as np
import pytest

from rollcall import sim, stats
from rollcall.client import report_step, sync_sample
from rollcall.counter import parse_log_line, log_distribution
from rollcall.sim import (
    COPING,
    DEFENSE,
    EventLoop,
    FaultPlan,
    NetModel,
    ScenarioSpec,
    default_sim_config,
    inject_faults,
    monte_carlo,
    power_curve,
    run_scenario,
)


def small_spec(**overrides):
    base = dict(
        m_clients=40,
        p_participate=0.5,
        delta=0.0,
        scenario=DEFENSE,
        seed=11,
        config=default_sim_config(n_rounds=6),
        sync_samples=1,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        spec = small_spec()
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert a.counts == b.counts
        assert a.n_star == b.n_star
        assert a.event_trace == b.event_trace
        assert a.counter_log == b.counter_log
        assert a.sync_offsets == b.sync_offsets

    def test_delta_zero_coping_equals_defense(self):
        defense = run_scenario(small_spec(scenario=DEFENSE))
        coping = run_scenario(small_spec(scenario=COPING, delta=0.0))
        assert coping.counts == defense.counts
        assert coping.n_star == defense.n_star
        assert coping.event_trace == defense.event_trace

    def test_seed_changes_outcome(self):
        assert run_scenario(small_spec(seed=1)).counts != run_scenario(small_spec(seed=2)).counts

    def test_adding_clients_keeps_existing_decisions(self):
        # growing M only appends participants; the shared rounds keep their
        # members because substreams are keyed by (seed, client index)
        small = run_scenario(small_spec(m_clients=30, net=NetModel(min_latency_ms=10, max_latency_ms=10)))
        large = run_scenario(small_spec(m_clients=31, net=NetModel(min_latency_ms=10, max_latency_ms=10)))
        def nonces(outcome, round_tag):
            return {
                line.split()[4]
                for line in outcome.counter_log
                if " ACCEPT " in line and f"REPORT {round_tag} " in line
            }
        for tag in ["CAL 0", "CAL 3", "EXE 0"]:
            assert nonces(small, tag) <= nonces(large, tag)
            assert nonces(large, tag) - nonces(small, tag) <= {"sim-00000030"}

    def test_trace_capture_opt_out(self):
        out = run_scenario(small_spec(), capture_trace=False)
        assert out.event_trace == []
        assert out.counter_log  # the counter log is always kept


class TestScenarioStatistics:
    def test_null_is_binomial_and_centered(self):
        spec = small_spec()
        runs = 1000
        all_counts = []
        zs = []
        for seed_child in range(runs):
            out = run_scenario(replace(spec, seed=seed_child), capture_trace=False)
            all_counts.extend(out.counts)
            all_counts.append(out.n_star)
            if out.analysis is not None:
                zs.append(out.analysis.z)
        m, p = spec.m_clients, spec.p_participate
        samples = np.asarray(all_counts, dtype=float)
        mean_se = math.sqrt(m * p * (1 - p) / len(samples))
        assert abs(samples.mean() - m * p) < 3 * mean_se
        var = samples.var(ddof=1)
        var_se = m * p * (1 - p) * math.sqrt(2.0 / (len(samples) - 1))
        assert abs(var - m * p * (1 - p)) < 3 * var_se
        assert -0.3 < float(np.mean(zs)) < 0.3

    def test_total_suppression(self):
        out = run_scenario(small_spec(scenario=COPING, delta=1.0))
        assert out.n_star == 0
        assert out.analysis is not None
        assert out.analysis.verdict == stats.COPING_EVIDENCE

    def test_strong_suppression_detected(self):
        out = run_scenario(small_spec(m_clients=400, scenario=COPING, delta=0.5, seed=3))
        assert out.analysis.z < -5
        assert out.analysis.verdict == stats.COPING_EVIDENCE


class TestFaults:
    def test_duplicate_deliveries_do_not_inflate(self):
        spec = small_spec()
        clean = run_scenario(spec)
        doubled = inject_faults(spec, FaultPlan(duplicate_reports=True))
        assert doubled.counts == clean.counts
        assert doubled.n_star == clean.n_star
        assert any("REJ DUP" in line for line in doubled.event_trace)

    def test_loss_with_retries_preserves_counts(self):
        spec = small_spec()
        clean = run_scenario(spec)
        lossy = run_scenario(replace(spec, net=NetModel(loss_prob=0.10)))
        assert lossy.counts == clean.counts
        assert lossy.n_star == clean.n_star
        assert any(line.split()[1] == "DROP" or line.split()[1] == "DROP-REPLY"
                   for line in lossy.event_trace)

    def test_loss_burst_recovered_within_grace(self):
        spec = small_spec()
        clean = run_scenario(spec)
        open0 = spec.config.window_open(spec.config.rounds()[0])
        burst = inject_faults(spec, FaultPlan(loss_burst=(open0, open0 + 500)))
        assert burst.counts == clean.counts

    def test_unsynced_offset_client_lands_late(self):
        spec = small_spec(p_participate=1.0)
        clean = run_scenario(spec)
        assert clean.counts == [spec.m_clients] * spec.config.n_rounds
        fault = FaultPlan(clock_offsets=((0, 600_000),), unsynced=frozenset({0}))
        skewed = inject_faults(spec, fault)
        assert skewed.counts == [spec.m_clients - 1] * spec.config.n_rounds
        assert skewed.n_star == spec.m_clients - 1
        late_rejects = [
            line for line in skewed.counter_log
            if " REJECT " in line and "sim-00000000" in line
        ]
        assert late_rejects  # its reports arrived and were turned away

    def test_synced_offset_within_tolerance_changes_nothing(self):
        net = NetModel(min_latency_ms=30, max_latency_ms=30)
        spec = small_spec(net=net)
        clean = run_scenario(spec)
        skewed = inject_faults(spec, FaultPlan(clock_offsets=((0, 1500), (1, -1500))))
        assert skewed.counts == clean.counts
        assert skewed.n_star == clean.n_star
        # symmetric fixed-delay paths recover injected offsets exactly
        assert skewed.sync_offsets[0] == 1500
        assert skewed.sync_offsets[1] == -1500

    def test_asymmetric_path_bias_is_half_the_difference(self):
        net = NetModel(min_latency_ms=30, max_latency_ms=30, asym_up_ms=200)
        out = run_scenario(small_spec(net=net))
        assert all(offset == 100 for offset in out.sync_offsets.values())


class TestSharedClientPolicy:
    def test_every_answer_goes_through_the_client_policy(self, monkeypatch):
        # sending before the window opens draws real EARLY rejects to retry
        spec = small_spec(send_margin_ms=-100, send_jitter_ms=0)
        reports, syncs = [], []
        monkeypatch.setattr(sim, "report_step", lambda r: reports.append(r) or report_step(r))
        monkeypatch.setattr(
            sim, "sync_sample", lambda r, t1, t4: syncs.append(r) or sync_sample(r, t1, t4)
        )
        early = run_scenario(spec)
        replies = [line.split(" ", 2)[2] for line in early.event_trace if line.split()[1] == "REPLY"]
        assert reports == [r for r in replies if not r.startswith("SYNCR ")]
        assert syncs == [r for r in replies if r.startswith("SYNCR ")]
        assert "REJ EARLY" in reports
        clean = run_scenario(replace(spec, send_margin_ms=30))
        assert early.counts == clean.counts
        assert early.n_star == clean.n_star


class TestBatches:
    def test_monte_carlo_deterministic_and_parallel_equal(self):
        spec = small_spec(m_clients=30, config=default_sim_config(n_rounds=4), seed=5)
        serial = monte_carlo(spec, runs=12)
        again = monte_carlo(spec, runs=12)
        parallel = monte_carlo(spec, runs=12, workers=2)
        assert serial == again == parallel
        assert serial.runs == 12
        assert 0.0 <= serial.detection_rate <= 1.0

    def test_power_curve_monotone_and_saturating(self):
        spec = small_spec(m_clients=120, config=default_sim_config(n_rounds=5), seed=9)
        points = power_curve(spec, [0.0, 0.4, 1.0], runs=100)
        rates = [p.detection_rate for p in points]
        assert rates[2] == 1.0
        assert rates[0] <= rates[1] + 0.1 and rates[1] <= rates[2] + 0.1
        assert points[0].mean_z > points[1].mean_z > points[2].mean_z

    def test_power_curve_requires_enough_runs(self):
        with pytest.raises(ValueError, match="100"):
            power_curve(small_spec(), [0.0], runs=50)


class TestPlumbing:
    def test_event_loop_fifo_within_same_ms(self):
        loop = EventLoop()
        order = []
        loop.schedule(5, lambda: order.append("a"))
        loop.schedule(5, lambda: order.append("b"))
        loop.schedule(1, lambda: order.append("c"))
        loop.run()
        assert order == ["c", "a", "b"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(m_clients=0)
        with pytest.raises(ValueError):
            small_spec(p_participate=1.5)
        with pytest.raises(ValueError):
            small_spec(delta=-0.1)
        with pytest.raises(ValueError):
            small_spec(scenario="ATTACK")
        for jitter in (-1, -2):
            with pytest.raises(ValueError):
                small_spec(send_jitter_ms=jitter)
        with pytest.raises(ValueError):
            small_spec(net=NetModel(min_latency_ms=10, max_latency_ms=5))

    def test_execution_probability(self):
        assert small_spec(scenario=COPING, delta=0.2).execution_probability == pytest.approx(0.4)
        assert small_spec(scenario=DEFENSE, delta=0.2).execution_probability == 0.5

    def test_counter_log_is_analyzable(self):
        out = run_scenario(small_spec())
        events = [parse_log_line(line) for line in out.counter_log]
        assert log_distribution(events) == (out.counts, out.n_star)
