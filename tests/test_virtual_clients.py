"""Live clients at study scale in virtual time.

Each `ClientRunner` runs its whole experiment on its own virtual clock against
one shared `CounterCore`, one client after another. That is exact, because
clients share nothing but the counter and each answer depends only on the
client's own `(round, nonce)`, its arrival time and the round's window: LATE
is `arrival > window_close`, and `close_due` runs once, at the end. The log's
arrival times are then not monotone, and nothing that reads the log cares.
"""

import random
from collections import Counter
from dataclasses import dataclass

from rollcall.client import (
    REQUEST_TIMEOUT_S,
    ClientError,
    ClientRunner,
    ReportStep,
    RoundOutcome,
    TransportError,
    UptimeRecord,
    report_step,
)
from rollcall.counter import CounterCore, parse_log_line, replay_events
from rollcall.protocol import ExperimentConfig, RoundRef, decode_message
from rollcall.sim import (
    DEFENSE,
    ScenarioSpec,
    _client_draws,
    _counts_are_draws,
    _draw_counts,
    default_sim_config,
)

from conftest import make_config

TIMEOUT_MS = int(REQUEST_TIMEOUT_S * 1000)  # until a lost request raises TransportError


class VirtualClock:
    """A client's clock: true (counter) time less the client's offset."""

    def __init__(self, true_ms: int, offset_ms: int) -> None:
        self.true_ms = true_ms
        self.offset_ms = offset_ms

    def now_ms(self) -> int:
        return self.true_ms - self.offset_ms

    def sleep_ms(self, duration_ms: int) -> None:
        self.true_ms += max(duration_ms, 0)


@dataclass(frozen=True)
class Volunteer:
    nonce: str
    consents: tuple[bool, ...]  # per round, in schedule order
    offset_ms: int = 0  # add to the client's clock for counter time
    loss: float = 0.0  # chance that a request is lost
    sync_loss: float = 0.0  # chance that a SYNC is lost; it replaces `loss` for SYNCs
    report_delay_ms: int = 0  # added to every REPORT's up leg
    duplicate: bool = False  # every delivered REPORT reaches the counter twice
    reply_loss: float = 0.0  # chance that the answer to a handled REPORT is lost


class VirtualTransport:
    """One volunteer's link to the shared counter, 5-50 ms per leg.

    A lost request or a lost REPORT answer raises TransportError once the
    request times out. A volunteer without `reply_loss` loses requests only
    and spends no draw on answers.
    """

    def __init__(self, core: CounterCore, clock: VirtualClock, who: Volunteer,
                 rng: random.Random) -> None:
        self.core, self.clock, self.who, self.rng = core, clock, who, rng
        self.reports: list[tuple[str, str | None]] = []  # each REPORT sent; its answer or None
        self.lost_replies: set[int] = set()  # indices into `reports` whose answer was lost

    def request(self, line: str) -> str:
        clock, who, rng = self.clock, self.who, self.rng
        is_report = line.startswith("REPORT ")
        if rng.random() < (who.loss if is_report else who.sync_loss or who.loss):
            clock.true_ms += TIMEOUT_MS
            if is_report:
                self.reports.append((line, None))
            raise TransportError("request lost")
        clock.true_ms += rng.randint(5, 50) + (who.report_delay_ms if is_report else 0)
        answer = self.core.handle_line(line, clock.true_ms)
        if is_report:
            self.reports.append((line, answer))
            if who.duplicate:
                self.core.handle_line(line, clock.true_ms + rng.randint(0, 50))
            if who.reply_loss and rng.random() < who.reply_loss:
                self.lost_replies.add(len(self.reports) - 1)
                clock.true_ms += TIMEOUT_MS
                raise TransportError("reply lost")
        clock.true_ms += rng.randint(5, 50)
        return answer


def run_population(config: ExperimentConfig, volunteers: list[Volunteer], seed: int):
    """Run every volunteer from 130 s before the first round; the core and, per
    volunteer, its outcomes (None after a ClientError) and its transport."""
    core = CounterCore(config)
    rounds = config.rounds()
    records = [UptimeRecord("DOWN", config.t_star_ms),
               UptimeRecord("UP", config.t_star_ms + config.delta_tau_ms)]
    results = []
    for index, who in enumerate(volunteers):
        clock = VirtualClock(config.epoch_ms - 130_000, who.offset_ms)
        transport = VirtualTransport(core, clock, who, random.Random(seed * 1_000_003 + index))
        consents = dict(zip(rounds, who.consents))
        runner = ClientRunner(
            config, transport, clock,
            consent=lambda round, _deadline, consents=consents: consents[round],
            activity=lambda _start, _end: [],
            uptime=lambda: records,
        )
        runner.options.nonce = who.nonce
        try:
            outcomes = runner.run()
        except ClientError:
            outcomes = None
        results.append((who, outcomes, transport))
    core.close_due(config.window_close(RoundRef.exe()) + 1)
    return core, results


def test_a_faulty_population_keeps_every_invariant():
    # a 20 s grace leaves room to retry after a lost request's 5 s timeout
    config = make_config(n_rounds=3, delta_t_ms=600_000, delta_tau_ms=2_000, grace_ms=20_000)
    rng = random.Random(22)
    volunteers = []
    for i in range(300):
        kind = rng.random()
        volunteers.append(Volunteer(
            nonce=f"live-{i:04d}",
            consents=tuple(rng.random() < 0.7 for _ in config.rounds()),
            offset_ms=rng.randint(-2_000, 2_000),
            loss=0.1,
            sync_loss=0.6 if kind < 0.1 else 0.0,
            # a REPORT that takes longer than the grace arrives LATE
            report_delay_ms=25_000 if 0.1 <= kind < 0.13 else 0,
            duplicate=rng.random() < 0.3,
        ))
    volunteers.append(Volunteer("live-nosync", (True,) * 4, sync_loss=1.0))
    core, results = run_population(config, volunteers, seed=22)

    outcomes = Counter()
    for who, by_round, transport in results:
        if by_round is None:
            assert who.nonce == "live-nosync"  # SYNC_ATTEMPTS failed syncs end the client
            assert not any(nonce == who.nonce for _round, nonce in core.seen)
            continue
        for round, outcome in by_round.items():
            outcomes[outcome] += 1
            assert (outcome is RoundOutcome.REPORTED) == ((round, who.nonce) in core.seen)
            if outcome is RoundOutcome.FAILED:
                answers = [answer for line, answer in transport.reports
                           if decode_message(line).round == round]
                assert all(answer is None or report_step(answer) is ReportStep.GIVE_UP
                           for answer in answers)
    for round in config.rounds():
        reported = sum(by_round is not None and by_round[round] is RoundOutcome.REPORTED
                       for _who, by_round, _transport in results)
        assert reported == core.tallies[round].count
    events = [parse_log_line(line) for line in core.log.lines]
    for event in events:
        if event.tag == "ACCEPT":
            round = decode_message(event.raw).round
            assert config.window_open(round) <= event.arrival_ms <= config.window_close(round)
    replayed = replay_events(config, events)
    assert replayed.seen == core.seen
    assert {r: (t.count, t.closed) for r, t in replayed.tallies.items()} == {
        r: (t.count, t.closed) for r, t in core.tallies.items()}

    # every path above was taken
    assert set(outcomes) == {RoundOutcome.REPORTED, RoundOutcome.DECLINED, RoundOutcome.FAILED}
    answers = Counter(answer for _who, _by_round, transport in results
                      for _line, answer in transport.reports)
    assert answers[None] > 0 and answers["REJ LATE"] > 0
    rejects = sum(event.tag == "REJECT" for event in events)
    assert rejects > answers["REJ LATE"]  # duplicate copies are rejected unseen


def test_live_tallies_equal_the_draws():
    spec = ScenarioSpec(m_clients=300, p_participate=0.5, delta=0.0, scenario=DEFENSE, seed=7,
                        config=default_sim_config(n_rounds=3))
    assert _counts_are_draws(spec)
    participates = _client_draws(spec)[0].tolist()
    volunteers = [Volunteer(f"sim-{i:08d}", tuple(row)) for i, row in enumerate(participates)]
    core, _results = run_population(spec.config, volunteers, seed=spec.seed)
    assert core.distribution() == _draw_counts(spec)


def test_a_lost_reply_can_leave_a_counted_report_failed():
    """FAILED means no final answer was heard before the estimated window
    close: with a 2 s grace, an accepted REPORT whose answer is lost leaves no
    time for a retry, so the report is counted and the round FAILED."""
    config = make_config(n_rounds=3, delta_t_ms=600_000, delta_tau_ms=2_000, grace_ms=2_000)
    rng = random.Random(23)
    volunteers = [
        Volunteer(nonce=f"live-{i:04d}", consents=(True,) * len(config.rounds()),
                  offset_ms=rng.randint(-2_000, 2_000), loss=0.1, reply_loss=0.1)
        for i in range(300)
    ]
    core, results = run_population(config, volunteers, seed=23)

    counted_failed = 0
    for who, by_round, transport in results:
        assert by_round is not None
        for round, outcome in by_round.items():
            counted = (round, who.nonce) in core.seen
            if outcome is RoundOutcome.REPORTED:
                assert counted
            elif counted:
                assert outcome is RoundOutcome.FAILED
                last = max(i for i, (line, _answer) in enumerate(transport.reports)
                           if decode_message(line).round == round)
                assert last in transport.lost_replies
                counted_failed += 1
    assert counted_failed > 0
