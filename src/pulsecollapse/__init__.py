"""Stochastic simulator for probability-current-driven reduction.

Superpositions of apparatus states entangled with an observer's brain
states evolve on a discretized coordinate; transfers feed ready pulses,
positive probability current drives a stochastic choice, and reduction
keeps every component with weight at the chosen site. Closed-form outcome
probabilities are verified against Monte Carlo batches.

The package namespace is lazy (PEP 562): each public name imports its
module on first access. ``import pulsecollapse`` and ``load_config`` need
only PyYAML; numpy loads with the first simulator name or submodule used.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, each exported from the package under that name
_MODULES = {
    "state": (
        "BrainGrid", "Pulse", "PulseKind", "SingleState", "DisengagedX", "Term", "SystemState",
        "FormationKind", "FormationPolicy", "make_gaussian_pulse", "delta_pulse", "pulse_overlap",
        "total_square_modulus",
    ),
    "dynamics": (
        "EnvelopeSchedule", "RampKind", "Transfer", "CurrentReport", "step", "form_pulse",
        "drift_pulse", "relative_intensity", "rule4_pairs",
    ),
    "reduction": ("RngStream", "ReductionEvent", "hit_probability", "reduce"),
    "config": ("ScenarioConfig", "load_config", "parse_config"),
    "scenarios": (
        "Backbone", "ScenarioResult", "TrajectoryLog", "build_initial", "build_backbone",
        "simulate_trajectory", "run_batch", "run_scenario",
    ),
    "analysis": ("ProbabilityReport", "HistogramCheck", "closed_form_p_hit", "compare", "hit_histogram"),
    "errors": ("SimulationError", "ConfigError", "InvariantBreach", "Rule4Violation"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    """Import the module that defines public ``name`` and keep the value as a package global."""
    module = _EXPORTS.get(name)
    if module is None:  # a submodule not yet imported, or no such name
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
