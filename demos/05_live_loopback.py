"""A real experiment over TCP on localhost, compressed to about 25 seconds.

One counter process-equivalent (a thread) and a handful of real clients run a
two-round calibration plus the execution round. Client 3 declines one round,
client 4 touches the keyboard mid-window, client 5 never powers down; the
final tallies show exactly that.
"""

import tempfile
import threading
import time
from pathlib import Path

from rollcall.client import (
    ActivityEvent,
    ClientOptions,
    ClientRunner,
    TcpTransport,
    UptimeRecord,
)
from rollcall.counter import CounterService, log_distribution, read_log
from rollcall.protocol import ExperimentConfig
from rollcall.timesync import SystemClock

N_CLIENTS = 6
now = int(time.time() * 1000)
config = ExperimentConfig(
    experiment_id="loopback-demo",
    secret="demo-secret",
    epoch_ms=now + 2000,
    delta_t_ms=8_000,
    n_rounds=2,
    delta_tau_ms=2_000,
    t_star_ms=now + 2000 + 16_000,
    grace_ms=2_000,
)

# a fresh log per run: the counter replays an existing one, and a second run
# would start from the first run's closed rounds
workdir = tempfile.TemporaryDirectory()
log_path = Path(workdir.name) / "counter.log"
# the counter stops itself once its serving loop has closed every round
service = CounterService(config, ("127.0.0.1", 0), log_path, until_complete=True)
serving = service.start_background()
host, port = service.address
print(f"counter listening on {host}:{port}")


print_lock = threading.Lock()  # one client's line at a time, never interleaved


def notify(i: int, line: str) -> None:
    with print_lock:
        print(f"  client {i}: {line}")


def run_client(i: int) -> None:
    consent = lambda round, deadline: not (round.kind == "CAL" and round.index == 1 and i == 3)
    activity = lambda start, end: [ActivityEvent(start + 300)] if i == 4 else []
    if i == 5:
        uptime = lambda: []
    else:
        uptime = lambda: [
            UptimeRecord("DOWN", config.t_star_ms - 400),
            UptimeRecord("UP", config.t_star_ms + config.delta_tau_ms + 400),
        ]
    runner = ClientRunner(
        config,
        TcpTransport(host, port),
        SystemClock(),
        consent,
        activity,
        uptime,
        options=ClientOptions(nonce=f"demo-cl-{i:02d}", prompt_lead_ms=800, sync_samples=3),
        notify=lambda line: notify(i, line),
    )
    runner.run()


threads = [threading.Thread(target=run_client, args=(i,)) for i in range(N_CLIENTS)]
for t in threads:
    t.start()
for t in threads:
    t.join()

serving.join()
counts, n_star = service.core.distribution()

print(f"\ncalibration counts: {counts}   (client 4 violates every window)")
print(f"execution count   : {n_star}   (client 5 never certified; 3 and 4* did)")
log_counts, log_n_star = log_distribution(read_log(log_path))
print(f"from the log alone: {log_counts} and {log_n_star}")
print("* client 4's violations only matter in calibration; it powered down fine")
workdir.cleanup()
