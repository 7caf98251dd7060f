"""Acceptance suite: one test per criterion, one printed verdict line each.

The statistical criteria run study-scale Monte Carlo batches and criterion 8
a live TCP experiment, so this file is the slowest in the suite (about a
minute and a half in total). Each test prints
`[criterion N] PASS ...` so the run log doubles as the acceptance report.
"""

import math
import random
import socket
import threading
import time
from dataclasses import replace

import mpmath
import numpy as np

from rollcall import sim, stats
from rollcall.client import ClientOptions, ClientRunner, TcpTransport, TransportError, UptimeRecord
from rollcall.counter import CounterService, read_log, replay_events
from rollcall.protocol import (
    REJECT_REASONS,
    Ack,
    ExperimentConfig,
    Reject,
    Report,
    RoundRef,
    Survey,
    SyncRequest,
    SyncResponse,
    decode_message,
    derive_token,
    encode_message,
)
from rollcall.timesync import SyncSample, SystemClock, best_estimate

from test_protocol import GOLDEN_TOKENS
from test_stats import student_t_false_positive_rate


def report(n, detail):
    print(f"\n[criterion {n}] PASS — {detail}")


# --- 1. protocol round-trip ----------------------------------------------------

NONCE_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789-_."


def random_message(rng: random.Random):
    kind = rng.randrange(6)
    def nonce():
        return "".join(rng.choice(NONCE_CHARS) for _ in range(rng.randint(8, 64)))
    def round():
        return RoundRef.exe() if rng.random() < 0.25 else RoundRef.cal(rng.randrange(1000))
    if kind == 0:
        return SyncRequest(rng.randrange(-10**13, 10**13))
    if kind == 1:
        return SyncResponse(*(rng.randrange(-10**13, 10**13) for _ in range(3)))
    if kind == 2:
        token = "".join(rng.choice("0123456789abcdef") for _ in range(32))
        return Report(round(), nonce(), token)
    if kind == 3:
        return Ack(round())
    if kind == 4:
        return Reject(rng.choice(sorted(REJECT_REASONS)))
    text = "".join(chr(rng.randrange(32, 0x2FFF)) for _ in range(rng.randint(0, 80)))
    code = rng.choice(["FORGOT", "OBSTACLE", "CHANGED_MIND", "INTERFERENCE", "OTHER"])
    return Survey(nonce(), code, text)


def test_criterion_1_protocol_roundtrip():
    rng = random.Random(20240915)
    started = time.perf_counter()
    for _ in range(10_000):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, f"10000 messages round-tripped identically in {elapsed:.2f}s")


# --- 2. token golden values ----------------------------------------------------


def test_criterion_2_token_golden_values():
    assert len(GOLDEN_TOKENS) >= 5
    for (secret, kind, index), expected in GOLDEN_TOKENS.items():
        assert derive_token(secret, RoundRef(kind, index)) == expected
    report(2, f"{len(GOLDEN_TOKENS)} tokens match the pre-build sha256sum oracle exactly")


# --- 3. time sync exactness ----------------------------------------------------


def test_criterion_3_time_sync_exact():
    rng = random.Random(3)
    # symmetric paths: the injected offset is recovered exactly
    offsets = list(range(-5000, 5001, 250)) + [rng.randint(-5000, 5000) for _ in range(200)]
    for o in offsets:
        d = rng.randint(0, 400)
        t1 = rng.randint(0, 10**9)
        sample = SyncSample(t1, t1 + d + o, t1 + d + o, t1 + 2 * d)
        assert best_estimate((sample,)).offset_ms == o
    # asymmetric paths: the error is exactly half the delay difference
    for _ in range(300):
        o = rng.randint(-5000, 5000)
        d1 = rng.randint(0, 400)
        d2 = d1 + 2 * rng.randint(-100, 100)  # even difference, non-negative
        if d2 < 0:
            d1, d2 = d2 + 200, d1 + 200
        t1 = rng.randint(0, 10**9)
        sample = SyncSample(t1, t1 + d1 + o, t1 + d1 + o, t1 + d1 + d2)
        assert abs(best_estimate((sample,)).offset_ms - o) == abs(d1 - d2) // 2
    # end to end through the simulator's sync exchange
    for o in (-5000, -777, 0, 1234, 5000):
        spec = sim.ScenarioSpec(
            m_clients=2, p_participate=1.0, delta=0.0, scenario=sim.DEFENSE, seed=4,
            config=sim.default_sim_config(n_rounds=2),
            net=sim.NetModel(min_latency_ms=25, max_latency_ms=25),
            faults=sim.FaultPlan(clock_offsets=((0, o),)),
        )
        out = sim.run_scenario(spec)
        assert out.sync_offsets[0] == o
        assert out.sync_offsets[1] == 0
    asym = sim.NetModel(min_latency_ms=25, max_latency_ms=25, asym_up_ms=300)
    out = sim.run_scenario(sim.ScenarioSpec(
        m_clients=1, p_participate=1.0, delta=0.0, scenario=sim.DEFENSE, seed=4,
        config=sim.default_sim_config(n_rounds=2), net=asym,
    ))
    assert out.sync_offsets[0] == 150  # exactly (d1 - d2) / 2
    report(3, "offsets recovered exactly; asymmetry bias equals half the delay gap")


# --- 4. statistics against independent oracles ----------------------------------


def test_criterion_4_statistics_oracles():
    rng = random.Random(44)
    for _ in range(1000):
        n = rng.randint(2, 40)
        counts = [rng.randint(0, 10**6) for _ in range(n)]
        if not any(counts):
            counts[0] = 1
        dist = stats.summarize(counts)
        mean = math.fsum(counts) / n
        sd = math.sqrt(math.fsum((c - mean) ** 2 for c in counts) / (n - 1))
        assert abs(dist.mean - mean) <= 1e-9 * max(1.0, abs(mean))
        assert abs(dist.stddev - sd) <= 1e-9 * max(1.0, sd)
        if sd > 0:
            n_star = rng.randint(0, 10**6)
            expected_z = (n_star - mean) / sd
            got = stats.z_score(dist, n_star)
            assert abs(got - expected_z) <= 1e-9 * max(1.0, abs(expected_z))

    mpmath.mp.dps = 30
    sqrt2 = mpmath.sqrt(2)
    worst = 0.0
    for i in range(1000):
        z = rng.uniform(-8, 8) if i else 0.0
        reference = float(mpmath.mpf("0.5") * mpmath.erfc(-mpmath.mpf(z) / sqrt2))
        worst = max(worst, abs(stats.normal_cdf(z) - reference))
    assert worst <= 1e-7
    assert abs(stats.normal_cdf(0.0) - 0.5) <= 1e-12
    report(4, f"summarize/z within 1e-9 of brute force; CDF worst error {worst:.2e} <= 1e-7")


# --- 5. the worked decision rule ------------------------------------------------


def test_criterion_5_decision_rule_example():
    dist = stats.summarize([98, 102, 100, 96, 104])
    result = stats.analyze(dist, 90, alpha=0.05)
    assert abs(result.z - (-3.1623)) <= 1e-3
    assert abs(result.confidence - 0.9992) <= 1e-3
    assert result.verdict == stats.COPING_EVIDENCE
    report(5, f"z={result.z:.4f}, confidence={result.confidence:.4f}, verdict {result.verdict}")


# --- 6/7. Monte Carlo calibration of the rule -----------------------------------


def study_spec(scenario, delta, seed):
    return sim.ScenarioSpec(
        m_clients=1000, p_participate=0.5, delta=delta, scenario=scenario, seed=seed,
        config=sim.default_sim_config(n_rounds=10), sync_samples=1,
    )


def test_criterion_6_null_false_positive_rate():
    started = time.perf_counter()
    batch = sim.monte_carlo(study_spec(sim.DEFENSE, 0.0, seed=601), runs=500, alpha=0.05)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    assert 0.03 <= batch.detection_rate <= 0.13
    assert -0.3 < batch.mean_z < 0.3
    report(6, f"false-positive rate {batch.detection_rate:.3f} in [0.03, 0.13], "
              f"mean z {batch.mean_z:+.3f}, {elapsed:.0f}s for 500 runs")


def test_null_false_positive_rate_on_counts_from_draws_matches_student_t():
    # beside criterion 6's bounds: the Student-t prediction of the rule's rate
    oracle = student_t_false_positive_rate(10)
    batch = sim.monte_carlo(study_spec(sim.DEFENSE, 0.0, seed=611), runs=1000, alpha=0.05)
    se = math.sqrt(oracle * (1 - oracle) / batch.runs)
    assert abs(batch.detection_rate - oracle) <= 4 * se
    print(f"\nfalse-positive rate {batch.detection_rate:.4f} against P(t_9 < -1.645/sqrt(1.1)) "
          f"= {oracle:.4f}, {(batch.detection_rate - oracle) / se:+.1f} SE")


def test_calibration_specs_count_from_draws():
    # criteria 6 and 7 and demo 03 (M=300, 8 rounds) count each run from its draws
    for scenario, delta in ((sim.DEFENSE, 0.0), (sim.COPING, 0.2), (sim.COPING, 1.0)):
        assert sim._counts_are_draws(study_spec(scenario, delta, seed=1))
    demo = replace(study_spec(sim.COPING, 0.0, seed=31), m_clients=300,
                   config=sim.default_sim_config(n_rounds=8))
    assert sim._counts_are_draws(demo)


def test_criterion_7_power_under_suppression():
    started = time.perf_counter()
    moderate = sim.power_curve(study_spec(sim.COPING, 0.0, seed=701), [0.2], runs=300,
                               alpha=0.05)[0]
    total = sim.power_curve(study_spec(sim.COPING, 0.0, seed=702), [1.0], runs=150,
                            alpha=0.05)[0]
    single = sim.run_scenario(study_spec(sim.COPING, 1.0, seed=703), capture_trace=False)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    assert moderate.detection_rate > 0.99
    assert -7.5 < moderate.mean_z < -5.5  # a 100-count drop against sigma ~15.8
    assert total.detection_rate == 1.0
    assert single.n_star == 0
    report(7, f"detection {moderate.detection_rate:.3f} at delta 0.2, "
              f"{total.detection_rate:.1f} at delta 1.0 (n*={single.n_star}), {elapsed:.0f}s")


def exact_detection_rate(m, p, n, delta, alpha, draws, seed):
    """The rule's detection rate under COPING, averaged over calibrations drawn
    by an independent generator, each given its exact detection probability.

    A calibration with mean x and spread s detects exactly when
    N* < x - z_{1-alpha} s, and N* ~ Binomial(m, p (1 - delta)), so each draw
    contributes that binomial CDF; an unstable or spreadless calibration
    contributes 0, as it never detects. Returns the average and its SE.
    """
    q = p * (1.0 - delta)
    log_pmf = [math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
               + k * math.log(q) + (m - k) * math.log1p(-q) for k in range(m + 1)]
    cdf = np.minimum(np.cumsum(np.exp(log_pmf)), 1.0)
    counts = np.random.default_rng(seed).binomial(m, p, (draws, n))
    mean, spread = counts.mean(axis=1), counts.std(axis=1, ddof=1)
    lo, hi = counts.min(axis=1), counts.max(axis=1)
    usable = (lo > 0) & (hi <= stats.STABILITY_RATIO * lo) & (spread > 0)
    # P(N* < t) = P(N* <= ceil(t) - 1)
    below = np.ceil(mean - stats.normal_quantile(1.0 - alpha) * spread).astype(int) - 1
    prob = np.where(usable & (below >= 0), cdf[np.clip(below, 0, m)], 0.0)
    return float(prob.mean()), float(prob.std(ddof=1) / math.sqrt(draws))


def test_power_curve_middle_matches_exact_oracle():
    # beside criterion 7's saturated bounds: the unsaturated middle of the curve
    deltas, runs = [0.03, 0.05, 0.08], 4000
    for delta in deltas:
        assert sim._counts_are_draws(study_spec(sim.COPING, delta, seed=714))
    points = sim.power_curve(study_spec(sim.COPING, 0.0, seed=714), deltas, runs=runs,
                             alpha=0.05)
    for point in points:
        oracle, oracle_se = exact_detection_rate(1000, 0.5, 10, point.delta, 0.05,
                                                 draws=200_000, seed=7140)
        se = math.sqrt(oracle * (1 - oracle) / runs + oracle_se**2)
        z = (point.detection_rate - oracle) / se
        print(f"\ndelta {point.delta}: detection {point.detection_rate:.4f} against exact "
              f"{oracle:.4f} (SE {oracle_se:.4f}), {z:+.2f} SE")
        assert abs(z) <= 4


# --- 8. end-to-end loopback with real clients over TCP ---------------------------

N_CLIENTS = 50


def cal_consents(i, r):
    return (i + r) % 5 != 0


def cal_violates(i, r):
    return cal_consents(i, r) and (i + 3 * r) % 7 == 0


def exe_consents(i):
    return i % 4 != 0


def exe_complies(i):
    return exe_consents(i) and i % 10 != 3


def expected_counts(config):
    cal = [
        sum(1 for i in range(N_CLIENTS) if cal_consents(i, r) and not cal_violates(i, r))
        for r in range(config.n_rounds)
    ]
    exe = sum(1 for i in range(N_CLIENTS) if exe_complies(i))
    return cal, exe


class DuplicatingTransport:
    """Delivers every report twice; the counter must count it once."""

    def __init__(self, inner):
        self.inner = inner

    def request(self, line):
        response = self.inner.request(line)
        if line.startswith("REPORT "):
            self.inner.request(line)
        return response

    def close(self):
        self.inner.close()


class LossyTransport:
    """Drops ~10% of requests and ~10% of responses (after delivery)."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.rng = random.Random(seed)

    def request(self, line):
        if self.rng.random() < 0.10:
            raise TransportError("request lost")
        response = self.inner.request(line)
        if self.rng.random() < 0.10:
            raise TransportError("response lost")
        return response

    def close(self):
        self.inner.close()


def run_experiment(tmp_path, tag, config, wrap_transport):
    service = CounterService(config, ("127.0.0.1", 0), tmp_path / f"{tag}.log",
                             until_complete=True)
    serving = service.start_background()
    host, port = service.address
    failures = []

    def one_client(i):
        transport = wrap_transport(TcpTransport(host, port), i)
        options = ClientOptions(
            nonce=f"{tag}-{i:04d}", prompt_lead_ms=1000, sync_samples=2,
            retry_ms=150, send_margin_ms=80,
        )
        down = config.t_star_ms - 500
        up = config.t_star_ms + config.delta_tau_ms + 500
        uptime = (
            (lambda: [UptimeRecord("DOWN", down), UptimeRecord("UP", up)])
            if exe_complies(i) else (lambda: [])
        )

        def activity(start, end):
            from rollcall.client import ActivityEvent
            r = (start - config.epoch_ms) // config.delta_t_ms
            if cal_violates(i, r):
                return [ActivityEvent(start + 500)]
            return []

        def consent(round, deadline):
            if round.is_execution:
                return exe_consents(i)
            return cal_consents(i, round.index)

        runner = ClientRunner(
            config, transport, SystemClock(), consent, activity, uptime, options=options
        )
        try:
            runner.run()
        except Exception as exc:  # noqa: BLE001 - collected for the assertion
            failures.append((i, exc))
        finally:
            transport.close()

    threads = [threading.Thread(target=one_client, args=(i,), daemon=True)
               for i in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    return service, serving, threads, failures


def test_criterion_8_end_to_end_loopback(tmp_path):
    started = time.perf_counter()
    now = int(time.time() * 1000)
    config = ExperimentConfig(
        experiment_id="loopback", secret="loopback-secret",
        epoch_ms=now + 2500, delta_t_ms=10_000, n_rounds=3,
        delta_tau_ms=2_000, t_star_ms=now + 2500 + 30_000, grace_ms=3_000,
    )
    wrappers = {
        "clean": lambda t, i: t,
        "dup": lambda t, i: DuplicatingTransport(t),
        "lossy": lambda t, i: LossyTransport(t, seed=1000 + i),
    }
    running = {tag: run_experiment(tmp_path, tag, config, wrap)
               for tag, wrap in wrappers.items()}
    deadline = time.time() + 55
    for tag, (_service, _serving, threads, failures) in running.items():
        for thread in threads:
            thread.join(timeout=max(deadline - time.time(), 1))
            assert not thread.is_alive(), f"{tag}: client thread stuck"
        assert not failures, f"{tag}: {failures[:3]}"

    expected_cal, expected_exe = expected_counts(config)
    results = {}
    for tag, (service, serving, _threads, _failures) in running.items():
        # the service stops itself once its serving loop has closed every round
        serving.join(timeout=max(deadline - time.time(), 1))
        assert not serving.is_alive(), f"{tag}: counter still serving"
        assert service.error is None, f"{tag}: {service.error}"
        results[tag] = service.core.distribution()
    elapsed = time.perf_counter() - started
    for tag, (counts, n_star) in results.items():
        assert counts == expected_cal, f"{tag}: {counts} != {expected_cal}"
        assert n_star == expected_exe, f"{tag}: {n_star} != {expected_exe}"
    assert elapsed < 60.0
    report(8, f"3x{N_CLIENTS} clients: tallies {expected_cal}+[{expected_exe}] exact under "
              f"clean/duplicate/lossy transports in {elapsed:.0f}s")


# --- 9. crash recovery -----------------------------------------------------------


def test_criterion_9_crash_recovery(tmp_path):
    now = int(time.time() * 1000)
    config = ExperimentConfig(
        experiment_id="crashy", secret="crash-secret",
        epoch_ms=now - 11_000, delta_t_ms=600_000, n_rounds=2,
        delta_tau_ms=10_000, t_star_ms=now - 11_000 + 1_200_000, grace_ms=120_000,
    )
    log_path = tmp_path / "crash.log"
    r0 = RoundRef.cal(0)
    token = derive_token(config.secret, r0)

    def exchange(address, lines):
        with socket.create_connection(address, timeout=5) as sock:
            reader = sock.makefile("rb")
            responses = []
            for line in lines:
                sock.sendall(line.encode() + b"\n")
                responses.append(reader.readline().decode().rstrip("\n"))
            return responses

    service = CounterService(config, ("127.0.0.1", 0), log_path)
    service.start_background()
    responses = exchange(service.address, [
        f"REPORT CAL 0 crash-n1 {token}",
        f"REPORT CAL 0 crash-n2 {token}",
        f"REPORT CAL 0 crash-n3 {token}",
    ])
    assert responses == ["ACK CAL 0"] * 3
    with service._lock:
        tallies_before = {r: t.count for r, t in service.core.tallies.items()}
        seen_before = set(service.core.seen)
    service.shutdown()  # hard stop mid-round: no closes were written
    with open(log_path, "ab") as fh:
        fh.write(b"999 ACCEPT REPORT CAL 0 torn-")  # torn write from the crash

    replayed = replay_events(config, read_log(log_path))
    assert {r: t.count for r, t in replayed.tallies.items()} == tallies_before
    assert replayed.seen == seen_before

    revived = CounterService(config, ("127.0.0.1", 0), log_path)
    revived.start_background()
    responses = exchange(revived.address, [
        f"REPORT CAL 0 crash-n2 {token}",   # a duplicate from before the crash
        f"REPORT CAL 0 crash-n4 {token}",   # a fresh client
    ])
    assert responses == ["REJ DUP", "ACK CAL 0"]
    with revived._lock:
        assert revived.core.tallies[r0].count == 4
    revived.shutdown()
    report(9, "replay after a mid-round kill restored tallies, the seen-set and dedupe")
