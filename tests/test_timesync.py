import pytest
from hypothesis import example, given, strategies as st

from rollcall.timesync import (
    ClockEstimate,
    ClockSyncError,
    SyncSample,
    best_estimate,
    wait_until,
)

from conftest import FakeClock

small_ints = st.integers(min_value=-(10**6), max_value=10**6)
delays = st.integers(min_value=0, max_value=50_000)


class TestEstimate:
    """The SNTP arithmetic on one sample, through `best_estimate`."""

    def test_formula_example(self):
        assert best_estimate((SyncSample(t1=0, t2=10, t3=12, t4=4),)) == (9, 2, 1)

    def test_identity_case(self):
        assert best_estimate((SyncSample(0, 0, 0, 0),)) == (0, 0, 1)

    @given(o=small_ints, d=delays, t1=small_ints, proc=st.integers(0, 1000))
    def test_symmetric_path_recovers_offset_exactly(self, o, d, t1, proc):
        t2 = t1 + d + o
        t3 = t2 + proc
        t4 = t1 + 2 * d + proc
        est = best_estimate((SyncSample(t1, t2, t3, t4),))
        assert est.offset_ms == o
        assert est.delay_ms == 2 * d

    @given(o=small_ints, d1=delays, d2=delays, t1=small_ints)
    def test_asymmetric_error_is_half_the_difference(self, o, d1, d2, t1):
        t2 = t1 + d1 + o
        t3 = t2
        t4 = t3 - o + d2
        est = best_estimate((SyncSample(t1, t2, t3, t4),))
        offset = est.offset_ms
        assert est.delay_ms == d1 + d2
        raw = 2 * o + (d1 - d2)
        expected = raw // 2 if raw >= 0 else -((-raw) // 2)  # toward zero
        assert offset == expected
        if (d1 - d2) % 2 == 0:
            assert abs(offset - o) == abs(d1 - d2) // 2

    def test_negative_delay_rejected(self):
        # server claims more processing time than the whole round trip
        with pytest.raises(ClockSyncError):
            best_estimate((SyncSample(t1=0, t2=0, t3=10, t4=5),))

    def test_sample_invariants(self):
        with pytest.raises(ValueError):
            SyncSample(t1=10, t2=0, t3=0, t4=5)  # t4 < t1
        with pytest.raises(ValueError):
            SyncSample(t1=0, t2=10, t3=5, t4=20)  # t3 < t2


class TestBestEstimate:
    def test_single_sample(self):
        est = best_estimate([SyncSample(0, 10, 12, 4)])
        assert (est.offset_ms, est.delay_ms, est.samples_used) == (9, 2, 1)

    def test_min_delay_selection(self):
        fast = SyncSample(0, 10, 10, 2)  # offset 9, delay 2
        slow = SyncSample(0, 65, 65, 50)  # offset 40, delay 50
        est = best_estimate([slow, fast])
        assert est.offset_ms == 9
        assert est.delay_ms == 2
        assert est.samples_used == 2

    def test_rejected_samples_not_counted(self):
        bad = SyncSample(0, 0, 10, 5)  # negative delay
        good = SyncSample(0, 10, 12, 4)
        est = best_estimate([bad, good])
        assert est.samples_used == 1
        assert est.offset_ms == 9

    def test_all_rejected_is_an_error(self):
        with pytest.raises(ClockSyncError):
            best_estimate([SyncSample(0, 0, 10, 5)])

    @given(st.permutations([SyncSample(0, 10, 12, 4), SyncSample(0, 65, 65, 50), SyncSample(0, 30, 30, 10)]))
    def test_permutation_invariant(self, samples):
        est = best_estimate(samples)
        assert est.offset_ms == 9

    # narrow ranges, so that equal delays and negative ones are common
    @given(st.lists(st.builds(
        lambda t1, rtt, t2, proc: SyncSample(t1, t2, t2 + proc, t1 + rtt),
        st.integers(-5, 5), st.integers(0, 6), st.integers(-5, 5), st.integers(0, 6),
    ), max_size=6))
    @example([SyncSample(0, 5, 5, 4), SyncSample(0, 3, 3, 4)])  # equal delays: least offset
    @example([SyncSample(0, 0, 10, 5), SyncSample(0, 0, 9, 5)])  # only negative delays
    def test_equals_the_definition(self, samples):
        accepted = []
        for t1, t2, t3, t4 in samples:
            delay = (t4 - t1) - (t3 - t2)
            if delay >= 0:
                accepted.append((delay, int(((t2 - t1) + (t3 - t4)) / 2)))  # toward zero
        if not accepted:
            with pytest.raises(ClockSyncError):
                best_estimate(samples)
            return
        delay, offset = min(accepted)
        est = best_estimate(samples)
        assert type(est) is ClockEstimate
        assert est == ClockEstimate(offset_ms=offset, delay_ms=delay, samples_used=len(accepted))


class TestClockEstimate:
    def test_checks(self):
        with pytest.raises(ValueError):
            ClockEstimate(offset_ms=0, delay_ms=-1, samples_used=1)
        with pytest.raises(ValueError):
            ClockEstimate(offset_ms=0, delay_ms=0, samples_used=0)
        assert ClockEstimate(-7, 0, 1) == (-7, 0, 1)


class TestWaitUntil:
    def test_past_target_fires_immediately(self):
        clock = FakeClock(start_ms=1000)
        wait_until(999, ClockEstimate(0, 0, 1), clock)
        assert clock.sleeps == []
        assert clock.t == 1000

    def test_zero_offset_waits_full_interval(self):
        clock = FakeClock(start_ms=0)
        wait_until(100, ClockEstimate(0, 0, 1), clock)
        assert clock.t == 100

    def test_positive_offset_shortens_local_wait(self):
        # counter is 50ms ahead of local; reaching counter time now+100
        # only takes 50 local ms
        clock = FakeClock(start_ms=0)
        wait_until(100, ClockEstimate(50, 0, 1), clock)
        assert clock.t == 50

    def test_never_fires_early(self):
        class StingyClock(FakeClock):
            def sleep_ms(self, duration_ms):
                # oversleeping is fine, undersleeping must be retried
                self.sleeps.append(duration_ms)
                self.t += max(duration_ms // 2, 1)

        clock = StingyClock(start_ms=0)
        wait_until(100, ClockEstimate(0, 0, 1), clock)
        assert clock.t >= 100

    def test_counter_now_conversion(self):
        assert ClockEstimate(50, 2, 3).counter_now(100) == 150
