import gc
import hashlib
import heapq
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rollcall import client as client_mod, counter as counter_mod, protocol, sim, stats
from rollcall.client import report_step, sync_sample
from rollcall.counter import parse_log_line, log_distribution
from rollcall.protocol import RoundRef
from rollcall.sim import (
    COPING,
    DEFENSE,
    BatchResult,
    EventLoop,
    FaultPlan,
    NetModel,
    ScenarioSpec,
    Simulation,
    _child_seeds,
    _client_draws,
    _counts_are_draws,
    _draw_counts,
    default_sim_config,
    monte_carlo,
    power_curve,
    run_scenario,
)

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


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
        doubled = run_scenario(replace(spec, faults=FaultPlan(duplicate_reports=True)))
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
        burst = run_scenario(replace(spec, faults=FaultPlan(loss_burst=(open0, open0 + 500))))
        assert burst.counts == clean.counts

    def test_unsynced_offset_client_lands_late(self):
        spec = small_spec(p_participate=1.0)
        clean = run_scenario(spec)
        assert clean.counts == [spec.m_clients] * spec.config.n_rounds
        fault = FaultPlan(clock_offsets=((0, 600_000),), unsynced=frozenset({0}))
        skewed = run_scenario(replace(spec, faults=fault))
        assert skewed.counts == [spec.m_clients - 1] * spec.config.n_rounds
        assert skewed.n_star == spec.m_clients - 1
        late_rejects = [
            line for line in skewed.counter_log
            if " REJECT " in line and "sim-00000000" in line
        ]
        assert late_rejects  # its reports arrived and were turned away

    def test_first_clock_offset_of_a_client_wins(self):
        spec = small_spec(p_participate=1.0)
        first = FaultPlan(clock_offsets=((0, 600_000),), unsynced=frozenset({0}))
        repeated = replace(first, clock_offsets=((0, 600_000), (1, 0), (0, 0)))
        a = run_scenario(replace(spec, faults=first))
        b = run_scenario(replace(spec, faults=repeated))
        assert b.counts == a.counts == [spec.m_clients - 1] * spec.config.n_rounds
        assert b.event_trace == a.event_trace

    def test_synced_offset_within_tolerance_changes_nothing(self):
        net = NetModel(min_latency_ms=30, max_latency_ms=30)
        spec = small_spec(net=net)
        clean = run_scenario(spec)
        fault = FaultPlan(clock_offsets=((0, 1500), (1, -1500)))
        skewed = run_scenario(replace(spec, faults=fault))
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


class TestCodecWork:
    def test_known_answers_are_not_decoded_again(self, monkeypatch):
        decoded = []
        for module in (counter_mod, client_mod):
            real = module.decode_message
            monkeypatch.setattr(
                module, "decode_message", lambda line, real=real: decoded.append(line) or real(line)
            )
        report_step.cache_clear()
        outcome = run_scenario(small_spec())
        events = [line.split(" ", 2)[1:] for line in outcome.event_trace]
        deliveries = sum(kind == "DELIVER" for kind, _line in events)
        replies = [line for kind, line in events if kind == "REPLY"]
        syncrs = sum(line.startswith("SYNCR ") for line in replies)
        answers = {line for line in replies if not line.startswith("SYNCR ")}
        assert len(decoded) <= deliveries + syncrs + len(answers)


class TestHopWork:
    def test_reports_are_checked_per_round_and_per_delivery_never_per_send(self, monkeypatch):
        checked = []
        real = protocol.Report.__new__
        monkeypatch.setattr(
            protocol.Report, "__new__", lambda cls, *args: checked.append(args) or real(cls, *args)
        )
        spec = small_spec()
        outcome = run_scenario(spec)
        events = [line.split(" ", 2)[1:] for line in outcome.event_trace]
        sends = sum(kind == "SEND" and line.startswith("REPORT ") for kind, line in events)
        deliveries = sum(kind == "DELIVER" and line.startswith("REPORT ") for kind, line in events)
        assert sends == deliveries > 2 * len(spec.config.rounds())  # a clean run drops nothing
        # once per round for the REPORT parts; a delivered line was checked by its pattern
        assert 0 < len(checked) <= len(spec.config.rounds())

    @pytest.mark.parametrize("spec", [
        small_spec(),
        small_spec(net=NetModel(loss_prob=0.2), faults=FaultPlan(duplicate_reports=True)),
    ], ids=["clean", "lossy-duplicating"])
    def test_only_a_traced_run_decodes_reports(self, spec, monkeypatch):
        decoded = []
        real = counter_mod.decode_message
        monkeypatch.setattr(
            counter_mod, "decode_message",
            lambda line: line.startswith("REPORT ") and decoded.append(line) or real(line),
        )
        untraced = run_scenario(spec, capture_trace=False)
        assert decoded == []
        assert sum(" ACCEPT REPORT " in line for line in untraced.counter_log) > 0
        traced = run_scenario(spec)
        events = [line.split(" ", 2)[1:] for line in traced.event_trace]
        deliveries = [
            line for kind, line in events if kind == "DELIVER" and line.startswith("REPORT ")
        ]
        assert decoded == deliveries  # the reference decodes once per delivery

    @pytest.mark.parametrize("spec", [
        small_spec(),
        small_spec(net=NetModel(loss_prob=0.2), faults=FaultPlan(duplicate_reports=True)),
    ], ids=["clean", "lossy-duplicating"])
    def test_only_a_traced_run_round_trips_through_text(self, spec, monkeypatch):
        decoded, encoded = [], []
        for module in (counter_mod, client_mod):
            real = module.decode_message
            monkeypatch.setattr(
                module, "decode_message", lambda line, real=real: decoded.append(line) or real(line)
            )
        real_encode = counter_mod.encode_message
        monkeypatch.setattr(
            counter_mod, "encode_message", lambda msg: encoded.append(msg) or real_encode(msg)
        )
        untraced = run_scenario(spec, capture_trace=False)
        assert [line for line in decoded if line.startswith(("SYNC", "REPORT "))] == []
        assert [msg for msg in encoded if type(msg) is protocol.SyncResponse] == []
        assert len(untraced.sync_offsets) == spec.m_clients
        decoded.clear()
        traced = run_scenario(spec)
        events = [line.split(" ", 2)[1:] for line in traced.event_trace]
        for kind, verb in (("DELIVER", "SYNC "), ("REPLY", "SYNCR ")):
            lines = [line for event, line in events if event == kind and line.startswith(verb)]
            assert len(lines) >= spec.m_clients
            assert [line for line in decoded if line.startswith(verb)] == lines

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 80), st.from_regex(protocol._NONCE_RE, fullmatch=True))
    def test_the_report_sent_is_its_line_decoded(self, n_rounds, nonce):
        simulation = Simulation(small_spec(config=default_sim_config(n_rounds=n_rounds)))
        sent = []
        simulation.net = SimpleNamespace(
            can_drop=False, request=lambda line, *_ctx, msg: sent.append((line, msg))
        )
        client = sim.SimClient(simulation, 0, [], [])
        client.nonce = nonce
        for plan in simulation.plans:
            client._try_send(plan)
        assert len(sent) == len(simulation.plans)
        for plan, (line, msg) in zip(simulation.plans, sent):
            assert line == f"{plan.head} {nonce} {plan.token}"
            assert type(msg) is protocol.Report
            assert msg == protocol.decode_message(line)

    def test_rounds_are_one_value_from_every_source(self):
        config = small_spec().config
        for i, round in enumerate(config.rounds()[:-1]):
            line = f"REPORT CAL {i} nonce-001 {'0' * 32}"
            decoded = protocol.decode_message(line).round
            assert RoundRef.cal(i) == round == decoded
            assert hash(RoundRef.cal(i)) == hash(round) == hash(decoded)
            assert protocol.decode_message(line).round is decoded
        decoded = protocol.decode_message("ACK EXE 0").round
        assert RoundRef.exe() == config.rounds()[-1] == decoded
        assert hash(RoundRef.exe()) == hash(config.rounds()[-1]) == hash(decoded)
        assert protocol.decode_message("ACK EXE 0").round is decoded


@st.composite
def reply_specs(draw):
    """Specs that draw EARLY answers (negative margins), LATE ones (short grace),
    clock faults, and nets with and without drops and duplicates."""
    m = draw(st.integers(1, 40))
    low = draw(st.integers(0, 60))
    clients = st.integers(0, m - 1)
    offsets = draw(st.lists(st.tuples(clients, st.integers(-3_000, 3_000)), max_size=4))
    return ScenarioSpec(
        m_clients=m,
        p_participate=draw(st.floats(0.2, 1.0)),
        delta=0.0,
        scenario=DEFENSE,
        seed=draw(st.integers(0, 2**64 - 1)),
        config=default_sim_config(
            n_rounds=draw(st.integers(2, 4)), grace_ms=draw(st.integers(50, 2_000))
        ),
        net=NetModel(
            min_latency_ms=low,
            max_latency_ms=low + draw(st.integers(0, 100)),
            loss_prob=draw(st.sampled_from([0.0, 0.1])),
            asym_up_ms=draw(st.integers(0, 50)),
        ),
        faults=FaultPlan(
            duplicate_reports=draw(st.booleans()),
            clock_offsets=tuple(offsets),
            unsynced=frozenset(draw(st.lists(clients, max_size=3))),
        ),
        sync_samples=draw(st.integers(0, 3)),
        send_margin_ms=draw(st.integers(-300, 300)),
        send_jitter_ms=draw(st.integers(0, 100)),
        retry_ms=draw(st.integers(50, 400)),
    )


class TestReplyFastPath:
    """Untraced on a net that neither drops nor duplicates, a REPORT answer is
    judged at delivery and only a RETRY becomes an event; the traced run,
    which keeps every reply event, is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(reply_specs())
    def test_an_untraced_run_equals_the_traced_run(self, spec):
        traced = run_scenario(spec)
        untraced = run_scenario(spec, capture_trace=False)
        assert untraced.counts == traced.counts
        assert untraced.n_star == traced.n_star
        assert untraced.counter_log == traced.counter_log
        assert untraced.sync_offsets == traced.sync_offsets

    def test_only_a_retry_calls_the_client_back(self, monkeypatch):
        answers = []
        real = sim.SimClient._on_answer
        monkeypatch.setattr(
            sim.SimClient, "_on_answer",
            lambda client, response, plan: answers.append(response) or real(client, response, plan),
        )
        run_scenario(small_spec(), capture_trace=False)
        assert answers == []
        early = small_spec(send_margin_ms=-100)
        traced = run_scenario(early)
        replies = [line.split(" ", 2)[2] for line in traced.event_trace if line.split()[1] == "REPLY"]
        report_answers = [line for line in replies if not line.startswith("SYNCR ")]
        assert answers == report_answers  # a traced run calls back once per REPORT answer
        assert "ACK CAL 0" in answers and "REJ EARLY" in answers
        answers.clear()
        untraced = run_scenario(early, capture_trace=False)
        assert answers == ["REJ EARLY"] * report_answers.count("REJ EARLY")
        assert (untraced.counts, untraced.n_star) == (traced.counts, traced.n_star)


class TestCollector:
    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.fixture(params=["mc-clean", "mc-faulty"])
    def spec(self, request, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        import mcload

        return mcload.SPECS[request.param](mcload.DEFAULT_SEED, m_clients=300)

    def test_a_run_leaves_the_collector_as_it_found_it(self, spec, monkeypatch):
        for enabled in (True, False, True):
            gc.enable() if enabled else gc.disable()
            run_scenario(spec, capture_trace=False)
            assert gc.isenabled() is enabled

        def fail(loop):
            raise RuntimeError("event loop failed")

        monkeypatch.setattr(sim.EventLoop, "run", fail)
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            with pytest.raises(RuntimeError, match="event loop failed"):
                run_scenario(spec, capture_trace=False)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("capture_trace", [False, True], ids=["untraced", "traced"])
    def test_a_run_leaves_no_cycles(self, spec, capture_trace):
        gc.collect()
        gc.disable()
        run_scenario(spec, capture_trace=capture_trace)
        assert gc.collect() == 0


@st.composite
def guarded_specs(draw):
    """Specs at and near every edge of `_counts_are_draws`, on both sides."""
    # small values often, so that the latest arrivals sit on the bounds
    low = draw(st.integers(0, 100))
    high = low + draw(st.integers(0, 2) | st.integers(0, 200))
    asym = draw(st.integers(0, 900))
    error = (high - low + asym + 1) // 2
    jitter = draw(st.integers(0, 2) | st.integers(0, 300))
    edge = st.integers(-2, 2) | st.integers(-20, 300)  # how far inside a bound; < 0 is outside
    margin = error - low - asym + draw(edge)  # negative when asym is large
    grace = max(1, margin + jitter + error + high + asym + draw(edge))
    samples = draw(st.integers(0, 3))
    delta_tau = max(1, samples * (2 * high + asym) - min(0, margin - error) + draw(edge))
    scenario = draw(st.sampled_from([DEFENSE, COPING]))
    return ScenarioSpec(
        m_clients=draw(st.integers(1, 25)),
        p_participate=draw(st.just(1.0) | st.floats(0.0, 1.0)),
        delta=draw(st.floats(0.0, 1.0)) if scenario == COPING else 0.0,
        scenario=scenario,
        seed=draw(st.integers(0, 2**64 - 1)),
        config=default_sim_config(
            n_rounds=draw(st.integers(2, 6)), delta_tau_ms=delta_tau,
            delta_t_ms=delta_tau + draw(st.integers(1, 20_000)), grace_ms=grace,
        ),
        net=NetModel(min_latency_ms=low, max_latency_ms=high, asym_up_ms=asym),
        sync_samples=samples,
        send_margin_ms=margin,
        send_jitter_ms=jitter,
    )


class TestCountsFromDraws:
    @settings(max_examples=200, deadline=None)
    @given(guarded_specs())
    def test_inside_the_guard_draws_equal_the_simulation(self, spec):
        assume(_counts_are_draws(spec))
        assert _draw_counts(spec) == Simulation(spec, capture_trace=False).run()

    @pytest.mark.parametrize("change", [
        dict(net=NetModel(loss_prob=0.01)),
        dict(faults=FaultPlan(loss_burst=(0, 0))),
        dict(faults=FaultPlan(duplicate_reports=True)),
        dict(faults=FaultPlan(clock_offsets=((0, 1),))),
        dict(faults=FaultPlan(unsynced=frozenset({0}))),
        dict(send_margin_ms=-100),  # the first arrivals come before the window opens
        dict(send_margin_ms=2_000),  # the last arrivals come after the grace period
        dict(net=NetModel(asym_up_ms=1_000)),  # a sync error past the shutdown slack
    ], ids=["loss", "loss-burst", "duplicates", "clock-offset", "unsynced", "early-margin",
            "late-margin", "large-asymmetry"])
    def test_guard_refuses_every_fault(self, change):
        assert _counts_are_draws(small_spec())
        assert not _counts_are_draws(small_spec(**change))

    @pytest.mark.parametrize("inside, outside", [
        (dict(margin=-100), dict(margin=-101)),  # EARLY, and the retry comes after grace
        (dict(margin=0), dict(margin=1)),  # the last arrival on, then past, window close
        (dict(margin=30, grace=2_000, net=NetModel(0, 0, asym_up_ms=1_000)),
         dict(margin=30, grace=2_000, net=NetModel(0, 0, asym_up_ms=1_002))),  # error 500, 501
        (dict(grace=1, delta_tau=300), dict(grace=1, delta_tau=200)),  # CAL 0 waits 100 ms
    ], ids=["earliest", "latest", "shutdown-slack", "sync-before-send"])
    def test_every_bound_is_sharp(self, inside, outside):
        # fixed legs and no jitter put every first arrival at window open + margin + 100
        def edge_spec(margin=-100, grace=100, delta_tau=2_000, net=NetModel(100, 100)):
            config = default_sim_config(n_rounds=3, delta_tau_ms=delta_tau, grace_ms=grace)
            return small_spec(p_participate=1.0, config=config, net=net,
                              send_margin_ms=margin, send_jitter_ms=0)
        assert _counts_are_draws(edge_spec(**inside))
        assert _draw_counts(edge_spec(**inside)) == Simulation(edge_spec(**inside)).run()
        assert not _counts_are_draws(edge_spec(**outside))
        assert _draw_counts(edge_spec(**outside)) != Simulation(edge_spec(**outside)).run()


def batch_of_run_scenarios(spec, runs):
    """What `monte_carlo` computes, as a loop of reference simulations."""
    analyses = [
        run_scenario(replace(spec, seed=child), capture_trace=False).analysis
        for child in _child_seeds(spec.seed, runs)
    ]
    zs = tuple(a.z for a in analyses if a is not None)
    detections = sum(a is not None and a.verdict == stats.COPING_EVIDENCE for a in analyses)
    return BatchResult(runs, detections, detections / runs, float(np.mean(zs)), zs)


class TestBatches:
    @pytest.mark.parametrize("net", [NetModel(), NetModel(loss_prob=0.05)],
                             ids=["from-draws", "simulated"])
    def test_monte_carlo_equals_run_scenario_loop(self, net):
        spec = small_spec(m_clients=30, config=default_sim_config(n_rounds=4), seed=5, net=net)
        assert _counts_are_draws(spec) == (net.loss_prob == 0.0)
        batch = monte_carlo(spec, runs=12)
        assert batch == monte_carlo(spec, runs=12) == batch_of_run_scenarios(spec, 12)
        assert batch.runs == 12
        assert 0.0 <= batch.detection_rate <= 1.0

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

    def test_a_bad_alpha_raises(self):
        with pytest.raises(ValueError, match="alpha"):
            monte_carlo(small_spec(), runs=50, alpha=0.0)

    def test_a_bad_alpha_raises_where_no_verdict_is_taken(self):
        # all-zero counts are never analyzed; the alpha is checked all the same
        empty = small_spec(p_participate=0.0)
        with pytest.raises(ValueError, match="alpha"):
            monte_carlo(empty, 5, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            run_scenario(empty, alpha=0.9)
        with pytest.raises(ValueError, match="alpha"):
            power_curve(empty, [], runs=100, alpha=0.9)

    def test_all_zero_counts_have_no_analysis(self):
        # nothing was measured: no verdict, and no error either
        assert run_scenario(small_spec(p_participate=0.0)).analysis is None


class TestStreams:
    """The batched draws against numpy's own SeedSequence, the oracle."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**63 + 5, 2**96 + 7]) | st.integers(0, 2**140),
        count=st.integers(1, 40),
        k=st.integers(1, 25),
    )
    @example(seed=2**96 + 7, count=3, k=22)  # 4 seed words: the entropy outgrows the pool
    @example(seed=2**32 - 1, count=1, k=1)
    def test_stream_words_equal_seed_sequence(self, seed, count, k):
        expected = [np.random.SeedSequence((seed, i)).generate_state(k, np.uint32)
                    for i in range(count)]
        words = sim._stream_words(seed, count, k)
        assert words.dtype == np.uint32
        np.testing.assert_array_equal(words, np.array(expected))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        p=st.floats(0.0, 1.0),
        delta=st.floats(0.0, 1.0),
        jitter=st.integers(0, 300),
        n_rounds=st.integers(2, 6),
    )
    def test_client_draws_equal_the_per_client_rule(self, seed, p, delta, jitter, n_rounds):
        spec = small_spec(m_clients=7, seed=seed, p_participate=p, delta=delta, scenario=COPING,
                          send_jitter_ms=jitter, config=default_sim_config(n_rounds=n_rounds))
        participates, jitters = _client_draws(spec)
        for i in range(spec.m_clients):
            words = np.random.SeedSequence((seed, i)).generate_state(2 * (n_rounds + 1), np.uint32)
            draws = words[: n_rounds + 1] * (1.0 / 2**32)
            expected = [bool(d < p) for d in draws[:-1]] + [bool(draws[-1] < p * (1.0 - delta))]
            assert participates[i].tolist() == expected
            assert jitters[i].tolist() == (words[n_rounds + 1 :] % (jitter + 1)).tolist()

    def test_first_replicates_match_the_recorded_digests(self, monkeypatch):
        # the benchmark's seed-1 digests pin the (spec, seed) contract bit for bit
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        import mcload

        recorded = mcload.load_digests()
        seeds = _child_seeds(mcload.DEFAULT_SEED, 2)
        for workload, make in mcload.SPECS.items():
            spec = make(mcload.DEFAULT_SEED)
            digests = [mcload.run_replicate(spec, s, i).digest() for i, s in enumerate(seeds)]
            assert digests == recorded[workload][:2], workload


class TestGoldenRuns:
    # sha256 of (counts, n_star, event_trace, counter_log, sorted sync_offsets)
    # per child seed of the benchmark's seed 1 at M=120: every hop, answer and
    # log line in order, where the digests above pin only the counts
    GOLDEN = {
        "mc-clean": [
            "28756e9edc0fc5c0bbfe18a4e806470141855dac922a5ab558d2685585a084bd",
            "ec176b4142d261a9f85f2db5853cb6d5b44b7a0ba987f5490a2037b05bc849fc",
            "f1926e368fba88409e3a8b24c9aaa6d02cabbdbbb754e2b86cd6419f73b8bda6",
            "bdc46a1553c3cdb46c68fdc8771c91258364192a76a3e9483cbc0c44fa987f57",
        ],
        "mc-faulty": [
            "6e644542e74067b2fca1548ccd6aaed88aa1feee6e0e4dc4b35b0f2b1335b669",
            "5c95b79a1421e6be5bfa9c45b80476e8c2cd881d8f5244e19b22973b0b9af939",
            "6cc5e782279c3b388bf0bb47e501cbe674168e99bc0f299d1460e66c04abbede",
            "80404eb9f858a392a3e3924b28cbe99b5c936107b7a47dce2c307439e8f98a1e",
        ],
    }

    @pytest.mark.parametrize("workload", sorted(GOLDEN))
    def test_whole_runs_match_the_golden_hashes(self, workload, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH_DIR))
        import mcload

        spec = mcload.SPECS[workload](mcload.DEFAULT_SEED, m_clients=120)
        hashes = []
        for child in _child_seeds(mcload.DEFAULT_SEED, len(self.GOLDEN[workload])):
            out = run_scenario(replace(spec, seed=child))
            record = [out.counts, out.n_star, out.event_trace, out.counter_log,
                      sorted(out.sync_offsets.items())]
            hashes.append(hashlib.sha256(json.dumps(record).encode()).hexdigest())
        assert hashes == self.GOLDEN[workload]


class HeapLoop:
    """The reference queue: one (at, seq, fn, args) heap entry per event."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._heap = []

    def schedule(self, at_ms, fn, *args):
        self._seq += 1
        heapq.heappush(self._heap, (max(at_ms, self.now), self._seq, fn, args))

    def run(self):
        while self._heap:
            at, _, fn, args = heapq.heappop(self._heap)
            self.now = at
            fn(*args)


# an event: (offset from the scheduling time, its form: 0 for a closure and k > 0
# for a call with k + 1 arguments, events it schedules when it runs); offsets
# below 0 fall in the past, 0 at now, small ones on pending milliseconds
event_programs = st.lists(
    st.recursive(
        st.tuples(st.integers(-3, 3), st.integers(0, 3), st.just(())),
        lambda children: st.tuples(
            st.integers(-3, 3), st.integers(0, 3), st.lists(children, max_size=4)
        ),
        max_leaves=40,
    ),
    min_size=1, max_size=8,
)


def play(loop, program):
    order = []
    ids = itertools.count()

    def fire(ident, children, *args):
        order.append((ident, loop.now, args))
        for child in children:
            schedule(child)

    def schedule(event):
        offset, arity, children = event
        ident = next(ids)
        if arity:
            args = [f"{ident}:{i}" for i in range(arity - 1)]
            loop.schedule(loop.now + offset, fire, ident, children, *args)
        else:
            loop.schedule(loop.now + offset, lambda: fire(ident, children))

    for event in program:
        schedule(event)
    loop.run()
    return order


class TestPlumbing:
    @settings(max_examples=200, deadline=None)
    @given(event_programs)
    def test_event_loop_runs_in_heap_order(self, program):
        assert play(EventLoop(), program) == play(HeapLoop(), program)

    def test_event_loop_fifo_within_same_ms(self):
        loop = EventLoop()
        order = []
        loop.schedule(5, lambda: order.append("a"))
        loop.schedule(5, lambda: order.append("b"))
        loop.schedule(1, lambda: order.append("c"))
        loop.run()
        assert order == ["c", "a", "b"]

    def test_event_loop_fifo_mixes_closures_and_arguments(self):
        loop = EventLoop()
        order = []

        def then_now(tag):
            order.append(tag)
            loop.schedule(5, order.append, "joined")  # joins the running millisecond

        loop.schedule(5, order.append, "a")
        loop.schedule(5, lambda: order.append("b"))
        loop.schedule(5, then_now, "c")
        loop.schedule(5, order.extend, ("d", "e"))
        loop.schedule(1, lambda: order.append("first"))
        loop.run()
        assert order == ["first", "a", "b", "c", "d", "e", "joined"]

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
            # at 0, each REJ EARLY would be retried at the same virtual ms forever
            small_spec(retry_ms=0, net=NetModel(0, 0), send_margin_ms=-100, m_clients=1)
        with pytest.raises(ValueError):
            small_spec(net=NetModel(min_latency_ms=10, max_latency_ms=5))
        with pytest.raises(ValueError, match="seed"):
            small_spec(seed=-1)

    def test_execution_probability(self):
        assert small_spec(scenario=COPING, delta=0.2).execution_probability == pytest.approx(0.4)
        assert small_spec(scenario=DEFENSE, delta=0.2).execution_probability == 0.5

    def test_counter_log_is_analyzable(self):
        out = run_scenario(small_spec())
        events = [parse_log_line(line) for line in out.counter_log]
        assert log_distribution(events) == (out.counts, out.n_star)
