"""The Monte Carlo workloads: study-scale replicates of a simulated experiment.

Each replicate is exactly what `rollcall.monte_carlo` runs per run: the
scenario with the i-th child seed of the workload's seed, through
`run_scenario` without an event trace. Replicates are run one after another
in this process until the time is up; every one is then checked.

Run `python3 bench/mcload.py` to record the digests of the default seed
again (only when the simulator's output contract changes on purpose).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import calibrate
from rollcall import stats
from rollcall.sim import (
    COPING,
    DEFENSE,
    FaultPlan,
    NetModel,
    ScenarioSpec,
    _child_seeds,
    default_sim_config,
    run_scenario,
)

DEFAULT_SEED = 1
M_CLIENTS = 1000
N_ROUNDS = 10
P_PARTICIPATE = 0.5
BATCH = 4  # replicates per throughput sample
MAX_REPLICATES = 4096
DIGEST_FILE = Path(__file__).with_name("mc_digests.json")
DIGEST_COUNT = 96


def clean_spec(seed: int, m_clients: int = M_CLIENTS) -> ScenarioSpec:
    """The null scenario: DEFENSE, default 5-50 ms network, no loss, no faults."""
    return ScenarioSpec(
        m_clients=m_clients, p_participate=P_PARTICIPATE, delta=0.0, scenario=DEFENSE,
        seed=seed, config=default_sim_config(n_rounds=N_ROUNDS),
    )


def faulty_spec(seed: int, m_clients: int = M_CLIENTS) -> ScenarioSpec:
    """COPING at delta 0.2 on a lossy, asymmetric network with clock faults.

    The fault plan is drawn from the seed: about 3% of clients have clock
    offsets of up to a second either way and about 1% never sync.
    """
    rng = np.random.default_rng([seed, 0xFA17])
    skewed = rng.choice(m_clients, size=max(1, m_clients * 3 // 100), replace=False)
    offsets = rng.integers(-1000, 1001, size=len(skewed))
    unsynced = rng.choice(m_clients, size=max(1, m_clients // 100), replace=False)
    return ScenarioSpec(
        m_clients=m_clients, p_participate=P_PARTICIPATE, delta=0.2, scenario=COPING,
        seed=seed, config=default_sim_config(n_rounds=N_ROUNDS),
        net=NetModel(loss_prob=0.05, asym_up_ms=int(rng.integers(10, 31))),
        faults=FaultPlan(
            duplicate_reports=True,
            clock_offsets=tuple(
                (int(i), int(o)) for i, o in sorted(zip(skewed.tolist(), offsets.tolist()))
            ),
            unsynced=frozenset(int(i) for i in unsynced),
        ),
    )


SPECS = {"mc-clean": clean_spec, "mc-faulty": faulty_spec}


@dataclass
class Replicate:
    index: int
    seconds: float
    counts: list[int]
    n_star: int
    z: float | None
    verdict: str | None
    accepts_logged: int
    error: str | None = None
    host_factor: float = 1.0  # calibrate.host_factor() right after it

    def digest(self) -> str:
        record = json.dumps([self.counts, self.n_star, self.verdict])
        return hashlib.sha256(record.encode()).hexdigest()[:16]


def run_replicate(spec: ScenarioSpec, child_seed: int, index: int) -> Replicate:
    started = time.perf_counter()
    outcome = run_scenario(replace(spec, seed=child_seed), capture_trace=False)
    seconds = time.perf_counter() - started
    analysis = outcome.analysis
    return Replicate(
        index=index,
        seconds=seconds,
        counts=list(outcome.counts),
        n_star=outcome.n_star,
        z=None if analysis is None else analysis.z,
        verdict=None if analysis is None else analysis.verdict,
        accepts_logged=sum(1 for line in outcome.counter_log if " ACCEPT " in line),
    )


def run_batch(
    spec: ScenarioSpec,
    seeds: list[int],
    seconds: float,
    before: Callable[[int], None] | None = None,
) -> list[Replicate]:
    """Replicates 0, 1, 2, ... until `seconds` have passed (at least BATCH).

    `before(index)` is called ahead of each replicate, outside its timing.
    """
    done: list[Replicate] = []
    deadline = time.perf_counter() + seconds
    while len(done) < len(seeds) and (len(done) < BATCH or time.perf_counter() < deadline):
        index = len(done)
        if before is not None:
            before(index)
        started = time.perf_counter()
        try:
            rep = run_replicate(spec, seeds[index], index)
        except Exception as exc:  # a replicate that raises fails; the run goes on
            rep = Replicate(index, time.perf_counter() - started, [], -1, None, None, -1,
                            error=f"{type(exc).__name__}: {exc}")
        rep.host_factor = calibrate.host_factor()
        done.append(rep)
    return done


def rate_per_s(replicates: list[Replicate], scaled: bool = True) -> float:
    """Median over consecutive batches of BATCH replicates of replicates/s.

    `scaled` quotes each batch at the reference host speed: its rate times
    the mean host factor measured beside its replicates.
    """
    rates = []
    for i in range(0, len(replicates) - BATCH + 1, BATCH):
        batch = replicates[i : i + BATCH]
        rate = BATCH / sum(r.seconds for r in batch)
        if scaled:
            rate *= statistics.fmean(r.host_factor for r in batch)
        rates.append(rate)
    return statistics.median(rates)


def check(
    workload: str, spec: ScenarioSpec, seed: int, seeds: list[int], done: list[Replicate]
) -> list[tuple[int, str]]:
    """(replicate index, problem) for every problem; an empty list when all hold.

    Each replicate's z and verdict are recomputed from its counts; its counts
    must be in range and match the ACCEPT lines of its counter log. On the
    default seed each replicate must match the recorded digest. One replicate,
    chosen by the seed, is rerun and must come out bit-identical.
    """
    found: list[tuple[int, str]] = []
    expected = load_digests().get(workload, []) if seed == DEFAULT_SEED else []
    for rep in done:

        def problem(text: str) -> None:
            found.append((rep.index, f"replicate {rep.index}: {text}"))

        if rep.error is not None:
            problem(f"raised {rep.error}")
            continue
        if len(rep.counts) != spec.config.n_rounds:
            problem(f"{len(rep.counts)} calibration counts")
        if not all(0 <= c <= spec.m_clients for c in rep.counts + [rep.n_star]):
            problem("count out of range")
        if sum(rep.counts) + rep.n_star != rep.accepts_logged:
            problem("counts disagree with the counter log")
        try:
            analysis = stats.analyze(stats.summarize(rep.counts), rep.n_star)
            recomputed = (analysis.z, analysis.verdict)
        except (ValueError, stats.DegenerateCalibrationError):
            recomputed = (None, None)
        if recomputed != (rep.z, rep.verdict):
            problem(f"z/verdict {rep.z}/{rep.verdict} != recomputed {recomputed}")
        if rep.index < len(expected) and rep.digest() != expected[rep.index]:
            problem("counts or verdict differ from the recorded digest")
    ran = [rep for rep in done if rep.error is None]
    if ran:
        pick = ran[int(np.random.default_rng([seed, 0x5E]).integers(len(ran)))]
        again = run_replicate(spec, seeds[pick.index], pick.index)
        if (again.counts, again.n_star, again.z, again.verdict, again.accepts_logged) != (
            pick.counts, pick.n_star, pick.z, pick.verdict, pick.accepts_logged
        ):
            found.append((pick.index, f"replicate {pick.index}: rerun is not bit-identical"))
    return found


def load_digests() -> dict[str, list[str]]:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def record_digests() -> None:
    seeds = _child_seeds(DEFAULT_SEED, DIGEST_COUNT)
    digests = {}
    for workload, make in SPECS.items():
        spec = make(DEFAULT_SEED)
        digests[workload] = [run_replicate(spec, s, i).digest() for i, s in enumerate(seeds)]
    DIGEST_FILE.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


def warmup(workload: str, seed: int) -> None:
    """Build the workload's spec and run its first replicate."""
    spec = SPECS[workload](seed)
    run_replicate(spec, _child_seeds(seed, 1)[0], 0)


if __name__ == "__main__":
    record_digests()
    sys.exit(0)
