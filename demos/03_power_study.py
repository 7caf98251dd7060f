"""How strong does suppression have to be before the rule sees it?

Monte Carlo over seeded replications: for each suppression strength delta,
the fraction of runs whose verdict flags suppression. The delta=0 row is the
empirical false-positive rate; with a sample mean/stddev over few rounds and
a plain normal CDF it runs above the nominal alpha (the small-sample effect
the rule knowingly carries), which this table makes visible instead of
correcting away.
"""

from rollcall import sim

M = 300
ROUNDS = 8
RUNS = 200

base = sim.ScenarioSpec(
    m_clients=M,
    p_participate=0.5,
    delta=0.0,
    scenario=sim.COPING,
    seed=31,
    config=sim.default_sim_config(n_rounds=ROUNDS),
    sync_samples=1,
)

deltas = [0.0, 0.05, 0.1, 0.15, 0.2, 0.4, 1.0]
print(f"population M={M}, p=0.5, {ROUNDS} calibration rounds, alpha=0.05, {RUNS} runs/point")
print()
print("delta   detection_rate   mean_z   ")
for point in sim.power_curve(base, deltas, runs=RUNS, alpha=0.05):
    bar = "#" * round(point.detection_rate * 30)
    print(f"{point.delta:<7g} {point.detection_rate:<16.3f} {point.mean_z:+8.2f} {bar}")

print()
print("reading the table: the delta=0 row is the false-positive rate; rates")
print("climb with delta and saturate at 1.0 once suppression dominates the")
print("binomial noise of the calibration counts.")
