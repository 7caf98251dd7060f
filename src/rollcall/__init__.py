"""rollcall: synchronized roll-call counting with a suppression test.

Volunteer clients report per-round participation tokens to a central counter;
the calibration rounds give a baseline distribution, the execution round gives
one more count, and a one-sided z-test decides whether execution-round
participation was suppressed. A deterministic simulator measures the rule's
false-positive rate and power.
"""

from .protocol import (
    ExperimentConfig,
    Report,
    RoundRef,
    derive_token,
    decode_message,
    encode_message,
    load_config,
    parse_config,
)
from .stats import (
    COPING,
    DEFENSE,
    AnalysisResult,
    CalibrationDistribution,
    analyze,
    normal_cdf,
    normal_quantile,
    summarize,
    z_score,
)

# the simulator, and numpy with it, loads on first use of one of its names,
# so the counter, the client and `analyze` start without either (PEP 562)
_SIM_NAMES = frozenset({
    "FaultPlan",
    "NetModel",
    "ScenarioSpec",
    "SimOutcome",
    "default_sim_config",
    "monte_carlo",
    "power_curve",
    "run_scenario",
})


def __getattr__(name: str):
    if name not in _SIM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sim

    return getattr(sim, name)


__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "CalibrationDistribution",
    "COPING",
    "DEFENSE",
    "ExperimentConfig",
    "FaultPlan",
    "NetModel",
    "Report",
    "RoundRef",
    "ScenarioSpec",
    "SimOutcome",
    "analyze",
    "decode_message",
    "default_sim_config",
    "derive_token",
    "encode_message",
    "load_config",
    "monte_carlo",
    "normal_cdf",
    "normal_quantile",
    "parse_config",
    "power_curve",
    "run_scenario",
    "summarize",
    "z_score",
    "__version__",
]
