"""The package namespace: each public name resolves, on first access, to its module's object,
and a config load imports neither numpy nor a simulator module."""

import importlib
import os
import subprocess
import sys

import pytest

import pulsecollapse

PUBLIC_NAMES = {
    "__version__",
    "BrainGrid", "Pulse", "PulseKind", "SingleState", "DisengagedX", "Term", "SystemState",
    "FormationKind", "FormationPolicy", "make_gaussian_pulse", "delta_pulse", "pulse_overlap",
    "total_square_modulus",
    "EnvelopeSchedule", "RampKind", "Transfer", "CurrentReport", "step", "form_pulse", "drift_pulse",
    "relative_intensity", "rule4_pairs",
    "RngStream", "ReductionEvent", "hit_probability", "reduce",
    "ScenarioConfig", "load_config", "parse_config",
    "Backbone", "ScenarioResult", "TrajectoryLog", "build_initial", "build_backbone",
    "simulate_trajectory", "run_batch", "run_scenario",
    "ProbabilityReport", "HistogramCheck", "closed_form_p_hit", "compare", "hit_histogram",
    "SimulationError", "ConfigError", "InvariantBreach", "Rule4Violation",
}

SIMULATOR_MODULES = ("numpy", *(f"pulsecollapse.{m}" for m in ("scenarios", "dynamics", "state", "analysis", "reduction")))


def test_all_lists_the_public_names_once():
    assert len(pulsecollapse.__all__) == len(PUBLIC_NAMES) == 47
    assert set(pulsecollapse.__all__) == PUBLIC_NAMES


def test_each_name_is_its_defining_module_object():
    for name in sorted(PUBLIC_NAMES - {"__version__"}):
        obj = getattr(pulsecollapse, name)
        assert obj.__module__.startswith("pulsecollapse."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        pulsecollapse.nope
    assert getattr(pulsecollapse, "nope", None) is None


def test_star_import_binds_every_name():
    namespace = {}
    exec("from pulsecollapse import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)


def test_submodules_import_from_the_package():
    from pulsecollapse import cli, scenarios

    assert cli is importlib.import_module("pulsecollapse.cli")
    assert scenarios is importlib.import_module("pulsecollapse.scenarios")


def test_config_load_imports_no_simulator():
    """In a fresh interpreter, ``dir`` lists every public name before any is used, and
    ``import pulsecollapse`` with ``load_config`` leaves numpy and the simulator modules unloaded."""
    src = os.path.dirname(os.path.dirname(pulsecollapse.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, pulsecollapse; "
        f"missing = {sorted(PUBLIC_NAMES)!r}; "
        "missing = [n for n in missing if n not in dir(pulsecollapse)]; "
        "assert not missing, missing; "
        "pulsecollapse.load_config(sys.argv[1]); "
        f"loaded = [m for m in {SIMULATOR_MODULES!r} if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    config = os.path.join(src, "pulsecollapse", "configs", "interaction.yaml")
    proc = subprocess.run([sys.executable, "-c", code, config], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
