"""Decision rule over the calibration distribution.

The calibration counts give a sample mean and sample standard deviation
(n-1 denominator); the execution count is standardized as
``z = (n_star - mean) / stddev`` and the one-sided verdict compares z against
the normal critical value for the chosen significance level. A calibration is
only usable when every count is positive and max/min stays within 10, the
literal reading of "within an order of magnitude".

`statistics` gives the mean (`fmean`), sample standard deviation (`stdev`)
and quantile (`NormalDist`). The CDF is ``0.5 * erfc(-z/√2)`` clamped into
(0, 1); `NormalDist().cdf` goes through `erf` and reads 0 below z = -8.38.

Known caveat, measured rather than corrected: with a sample mean/stddev and a
normal CDF the true null false-positive rate exceeds alpha for small n (the
Student-t effect); the simulator quantifies it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

# the two scenarios the rule tells apart: participation unchanged (DEFENSE)
# or suppressed in the execution round (COPING); the simulator draws them
DEFENSE = "DEFENSE"
COPING = "COPING"

COPING_EVIDENCE = "COPING_EVIDENCE"
NO_COPING_EVIDENCE = "NO_COPING_EVIDENCE"
UNSTABLE_CALIBRATION = "UNSTABLE_CALIBRATION"

DEFAULT_ALPHA = 0.05
STABILITY_RATIO = 10

_SQRT2 = math.sqrt(2.0)
_MIN_POSITIVE = 5e-324
_STANDARD_NORMAL = statistics.NormalDist()


class DegenerateCalibrationError(ValueError):
    """Calibration counts all zero or without any spread; the z-score is undefined."""


@dataclass(frozen=True)
class CalibrationDistribution:
    counts: tuple[int, ...]
    mean: float
    stddev: float
    stable: bool


@dataclass(frozen=True)
class AnalysisResult:
    n_star: int
    z: float
    p_of_z: float
    confidence: float
    verdict: str
    alpha: float


def summarize(counts: Iterable[int] | Sequence[int]) -> CalibrationDistribution:
    """Sample mean, sample (n-1) standard deviation and stability flag."""
    values = tuple(int(c) for c in counts)
    if len(values) < 2:
        raise ValueError("need at least 2 calibration counts")
    if any(c < 0 for c in values):
        raise ValueError("calibration counts must be non-negative")
    if not any(values):
        raise DegenerateCalibrationError("all calibration counts are zero; nothing was measured")
    mean = statistics.fmean(values)
    lo, hi = min(values), max(values)
    stable = lo > 0 and hi <= STABILITY_RATIO * lo
    return CalibrationDistribution(
        counts=values,
        mean=mean,
        stddev=statistics.stdev(values, mean),
        stable=stable,
    )


def z_score(dist: CalibrationDistribution, n_star: int) -> float:
    if dist.stddev == 0.0:
        raise DegenerateCalibrationError(
            "calibration counts show zero spread; the standardized score is undefined"
        )
    return (n_star - dist.mean) / dist.stddev


def normal_cdf(z: float) -> float:
    """Standard normal CDF, clamped into the open interval (0, 1)."""
    if math.isnan(z):
        raise ValueError("z must not be NaN")
    value = 0.5 * math.erfc(-z / _SQRT2)
    if value <= 0.0:
        return _MIN_POSITIVE
    if value >= 1.0:
        return math.nextafter(1.0, 0.0)
    return value


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return _STANDARD_NORMAL.inv_cdf(p)


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless `alpha` is a usable significance level; the
    simulator's batches call this before any run, verdict or not."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")


def analyze(
    dist: CalibrationDistribution, n_star: int, alpha: float = DEFAULT_ALPHA
) -> AnalysisResult:
    """Apply the one-sided decision rule to the execution count.

    The verdict is UNSTABLE_CALIBRATION whenever the calibration counts fail
    the stability check, regardless of z; otherwise COPING_EVIDENCE exactly
    when z falls below the negative critical value for `alpha`. The reported
    confidence is 1 - CDF(z) in every case.
    """
    _check_alpha(alpha)
    z = z_score(dist, n_star)
    p = normal_cdf(z)
    confidence = 1.0 - p
    if not dist.stable:
        verdict = UNSTABLE_CALIBRATION
    elif z < -normal_quantile(1.0 - alpha):
        verdict = COPING_EVIDENCE
    else:
        verdict = NO_COPING_EVIDENCE
    return AnalysisResult(
        n_star=int(n_star), z=z, p_of_z=p, confidence=confidence, verdict=verdict, alpha=alpha
    )
