"""Stochastic simulator for probability-current-driven reduction.

Superpositions of apparatus states entangled with an observer's brain
states evolve on a discretized coordinate; transfers feed ready pulses,
positive probability current drives a stochastic choice, and reduction
keeps every component with weight at the chosen site. Closed-form outcome
probabilities are verified against Monte Carlo batches.
"""

from .analysis import (
    HistogramCheck,
    ProbabilityReport,
    closed_form_p_hit,
    compare,
    hit_histogram,
)
from .config import ScenarioConfig, load_config, parse_config
from .dynamics import (
    CurrentReport,
    EnvelopeSchedule,
    RampKind,
    Transfer,
    drift_pulse,
    form_pulse,
    relative_intensity,
    rule4_pairs,
    step,
)
from .errors import (
    ConfigError,
    InvariantBreach,
    Rule4Violation,
    SimulationError,
)
from .reduction import (
    ReductionEvent,
    RngStream,
    hit_probability,
    reduce,
)
from .scenarios import (
    Backbone,
    ScenarioResult,
    TrajectoryLog,
    build_backbone,
    build_initial,
    run_batch,
    run_scenario,
    simulate_trajectory,
)
from .state import (
    BrainGrid,
    DisengagedX,
    FormationKind,
    FormationPolicy,
    Pulse,
    PulseKind,
    SingleState,
    SystemState,
    Term,
    delta_pulse,
    make_gaussian_pulse,
    pulse_overlap,
    total_square_modulus,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BrainGrid",
    "Pulse",
    "PulseKind",
    "SingleState",
    "DisengagedX",
    "Term",
    "SystemState",
    "make_gaussian_pulse",
    "delta_pulse",
    "pulse_overlap",
    "total_square_modulus",
    "EnvelopeSchedule",
    "RampKind",
    "Transfer",
    "CurrentReport",
    "FormationKind",
    "FormationPolicy",
    "step",
    "form_pulse",
    "drift_pulse",
    "relative_intensity",
    "rule4_pairs",
    "RngStream",
    "ReductionEvent",
    "hit_probability",
    "reduce",
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "Backbone",
    "ScenarioResult",
    "TrajectoryLog",
    "build_initial",
    "build_backbone",
    "simulate_trajectory",
    "run_batch",
    "run_scenario",
    "ProbabilityReport",
    "HistogramCheck",
    "closed_form_p_hit",
    "compare",
    "hit_histogram",
    "SimulationError",
    "ConfigError",
    "InvariantBreach",
    "Rule4Violation",
]
