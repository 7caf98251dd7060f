import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rollcall.stats import (
    COPING_EVIDENCE,
    NO_COPING_EVIDENCE,
    UNSTABLE_CALIBRATION,
    CalibrationDistribution,
    DegenerateCalibrationError,
    analyze,
    normal_cdf,
    normal_quantile,
    summarize,
    z_score,
)

count_lists = st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=40).filter(
    lambda xs: any(xs)
)


def brute_mean_std(values):
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


class TestSummarize:
    def test_worked_example(self):
        dist = summarize([98, 102, 100, 96, 104])
        assert dist.mean == 100.0
        assert dist.stddev == pytest.approx(math.sqrt(10), rel=1e-12)
        assert dist.stable

    def test_constant_series(self):
        dist = summarize([5, 5, 5])
        assert (dist.mean, dist.stddev, dist.stable) == (5.0, 0.0, True)

    def test_order_of_magnitude_threshold(self):
        assert not summarize([10, 100, 101]).stable  # 101/10 > 10
        assert summarize([10, 100, 100]).stable  # exactly 10x is still stable
        assert not summarize([0, 5]).stable  # a zero round is never stable

    def test_too_few_counts(self):
        with pytest.raises(ValueError):
            summarize([7])

    def test_all_zero_is_an_error(self):
        with pytest.raises(ValueError):
            summarize([0, 0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            summarize([5, -1])

    @given(count_lists)
    def test_matches_brute_force(self, counts):
        dist = summarize(counts)
        mean, sd = brute_mean_std(counts)
        assert dist.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert dist.stddev == pytest.approx(sd, rel=1e-12, abs=1e-12)


class TestZScore:
    def test_zero_when_equal_to_mean(self):
        assert z_score(summarize([98, 102, 100, 96, 104]), 100) == 0.0

    def test_formula(self):
        dist = summarize([90, 100, 110])  # mean 100, sample stddev 10
        assert dist.stddev == pytest.approx(10.0, rel=1e-12)
        assert z_score(dist, 80) == pytest.approx(-2.0, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateCalibrationError):
            z_score(summarize([5, 5, 5]), 3)

    @given(count_lists, st.integers(0, 10**6), st.integers(-1000, 1000))
    def test_shift_invariance(self, counts, n_star, c):
        dist = summarize(counts)
        if dist.stddev == 0.0:
            return
        shifted = summarize([x + c + 1001 for x in counts])  # keep counts non-negative
        assert z_score(shifted, n_star + c + 1001) == pytest.approx(
            z_score(dist, n_star), rel=1e-9, abs=1e-9
        )

    @given(count_lists, st.integers(0, 10**6), st.integers(2, 50))
    def test_scale_invariance(self, counts, n_star, k):
        dist = summarize(counts)
        if dist.stddev == 0.0:
            return
        scaled = summarize([x * k for x in counts])
        assert z_score(scaled, n_star * k) == pytest.approx(
            z_score(dist, n_star), rel=1e-12, abs=1e-12
        )


class TestNormalCdf:
    def test_phi_zero_exact(self):
        assert normal_cdf(0.0) == 0.5

    def test_oracle_checkpoints(self):
        # frozen from a 40-digit mpmath evaluation before the build
        assert normal_cdf(-1.6449) == pytest.approx(0.0499952174683, abs=1e-10)
        assert normal_cdf(-3.1623) == pytest.approx(0.000782641080495, abs=1e-10)
        assert normal_cdf(-2.0) == pytest.approx(0.0227501319482, abs=1e-10)

    def test_spec_tolerances(self):
        assert abs(normal_cdf(-1.6449) - 0.0500) <= 1e-4
        assert abs(normal_cdf(-3.1623) - 7.83e-4) <= 1e-6

    def test_open_interval(self):
        assert 0.0 < normal_cdf(-45.0) < normal_cdf(45.0) < 1.0

    def test_lower_tail_keeps_relative_precision(self):
        # an erf-based CDF underflows to 0 below z = -8.38, which the clamp
        # above would hide; the erfc form stays precise down to z = -37
        with mpmath.workdps(40):
            worst = max(
                abs(normal_cdf(z) - mpmath.ncdf(z)) / mpmath.ncdf(z)
                for z in (-37.0 * i / 4000 for i in range(4001))
            )
        assert worst <= 1e-12

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            normal_cdf(float("nan"))

    def test_infinities_are_clamped(self):
        assert normal_cdf(-math.inf) == 5e-324
        assert normal_cdf(math.inf) == math.nextafter(1.0, 0.0)

    @given(st.floats(min_value=-12, max_value=12, allow_nan=False))
    def test_symmetry(self, z):
        assert normal_cdf(z) + normal_cdf(-z) == pytest.approx(1.0, abs=1e-7)

    def test_monotone(self):
        rng = random.Random(5)
        zs = sorted(rng.uniform(-9, 9) for _ in range(400))
        values = [normal_cdf(z) for z in zs]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_quantile_inverts_cdf(self):
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)
        for p in (0.001, 0.025, 0.5, 0.8, 0.999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-11)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                normal_quantile(p)


class TestAnalyze:
    def test_coping_evidence_example(self):
        dist = summarize([90, 100, 110])
        result = analyze(dist, 80, alpha=0.05)  # z = -2
        assert result.verdict == COPING_EVIDENCE
        assert result.z == pytest.approx(-2.0, rel=1e-12)
        assert result.confidence == pytest.approx(0.977, abs=5e-4)
        assert result.confidence == pytest.approx(1 - result.p_of_z, abs=1e-15)

    def test_positive_z_is_no_evidence(self):
        dist = summarize([90, 100, 110])
        assert analyze(dist, 110).verdict == NO_COPING_EVIDENCE

    def test_boundary_needs_strict_inequality(self):
        dist = summarize([90, 100, 110])
        assert analyze(dist, 100).verdict == NO_COPING_EVIDENCE  # z = 0

    def test_unstable_gates_any_z(self):
        dist = CalibrationDistribution(counts=(1, 100), mean=100.0, stddev=10.0, stable=False)
        result = analyze(dist, 50)  # z = -5
        assert result.z == -5.0
        assert result.verdict == UNSTABLE_CALIBRATION

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateCalibrationError):
            analyze(summarize([5, 5, 5]), 4)

    def test_alpha_validated(self):
        dist = summarize([90, 100, 110])
        for alpha in (0.0, 0.6, -0.1):
            with pytest.raises(ValueError):
                analyze(dist, 80, alpha=alpha)

    def test_worked_decision_rule(self):
        # counts {98,102,100,96,104}, execution count 90
        dist = summarize([98, 102, 100, 96, 104])
        result = analyze(dist, 90, alpha=0.05)
        assert result.z == pytest.approx(-3.1623, abs=1e-3)
        assert result.confidence == pytest.approx(0.9992, abs=1e-3)
        assert result.verdict == COPING_EVIDENCE

    @given(st.permutations([98, 102, 100, 96, 104]))
    def test_verdict_permutation_invariant(self, counts):
        assert analyze(summarize(counts), 90).verdict == COPING_EVIDENCE


def student_t_false_positive_rate(n: int) -> float:
    """Under the null, (N* - mean) / (s * sqrt(1 + 1/n)) ~ t_{n-1}, so the rule
    z < -z_0.95 fires with probability P(t_{n-1} < -z_0.95 / sqrt(1 + 1/n))."""
    t = mpmath.mpf(-normal_quantile(0.95)) / mpmath.sqrt(1 + mpmath.mpf(1) / n)
    nu = n - 1
    return float(mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t**2), regularized=True) / 2)


def test_null_false_positive_rate_matches_student_t():
    n, runs = 10, 100_000
    oracle = student_t_false_positive_rate(n)
    assert oracle == pytest.approx(0.0756, abs=5e-5)
    draws = np.random.default_rng(20070).binomial(1000, 0.5, size=(runs, n + 1)).tolist()
    hits = sum(
        analyze(summarize(row[:n]), row[n]).verdict == COPING_EVIDENCE for row in draws
    )
    se = math.sqrt(oracle * (1 - oracle) / runs)
    assert abs(hits / runs - oracle) <= 4 * se
