"""Clock offsets, network asymmetry, and fault injection.

A client whose clock is minutes off would report outside the acceptance
window; the sync exchange corrects any constant offset exactly when the two
network directions are symmetric, and is biased by exactly half the delay
difference when they are not. Deduplication and retries make the counts
immune to duplicate deliveries and moderate loss.
"""

from dataclasses import replace

from rollcall import sim
from rollcall.timesync import SyncSample, best_estimate

print("-- the four-timestamp estimator ------------------------------")
sample = SyncSample(t1=0, t2=10, t3=12, t4=4)
est = best_estimate((sample,))
print(f"sample {sample} -> offset, delay = {est.offset_ms}, {est.delay_ms}")

spec = sim.ScenarioSpec(
    m_clients=30,
    p_participate=1.0,  # everyone participates; any count change is a fault
    delta=0.0,
    scenario=sim.DEFENSE,
    seed=8,
    config=sim.default_sim_config(n_rounds=4),
    net=sim.NetModel(min_latency_ms=20, max_latency_ms=20),
)

clean = sim.run_scenario(spec)
print("\n-- clean network ----------------------------------------------")
print(f"counts {clean.counts} + execution {clean.n_star}")

print("\n-- one client 10 minutes off, refusing to sync ----------------")
skew = sim.run_scenario(replace(spec, faults=sim.FaultPlan(clock_offsets=((0, 600_000),),
                                                          unsynced=frozenset({0}))))
print(f"counts {skew.counts} + execution {skew.n_star}  (client 0 always lands LATE)")

print("\n-- same offset, but the client syncs first --------------------")
synced = sim.run_scenario(replace(spec, faults=sim.FaultPlan(clock_offsets=((0, 600_000),))))
print(f"counts {synced.counts} + execution {synced.n_star}")
print(f"client 0 estimated its offset as {synced.sync_offsets[0]} ms")

print("\n-- asymmetric path: 300 ms extra toward the counter ------------")
biased = sim.run_scenario(replace(spec, net=sim.NetModel(20, 20, 0.0, 300)))
print(f"every estimate lands at +150 ms: {sorted(set(biased.sync_offsets.values()))}")
print(f"counts stay {biased.counts} (the window tolerates the bias)")

print("\n-- duplicate deliveries and 10% loss ---------------------------")
doubled = sim.run_scenario(replace(spec, faults=sim.FaultPlan(duplicate_reports=True)))
lossy = sim.run_scenario(replace(spec, net=sim.NetModel(20, 20, 0.10, 0)))
print(f"duplicated: {doubled.counts} + {doubled.n_star}")
print(f"lossy     : {lossy.counts} + {lossy.n_star}")
print("both equal the clean run: dedupe absorbs copies, retries absorb loss")
