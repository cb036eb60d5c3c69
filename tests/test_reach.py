"""Reach test: every package function runs under some command, or is listed here.

The test traces ``cli.main`` in process (``sys.settrace`` and
``threading.settrace``, so the batch's hashing thread is seen too) over
``run`` on every bundled config and a linear-envelope variant,
``montecarlo --trials 1000`` on every batch config, the three ``debug``
negative controls and ``verify``, each with its documented exit code. A
package function that none of them enters is code the system does not
run: it fails this test unless ``UNREACHED`` names it with its reason.
"""

import inspect
import os
import sys
import threading
import types

import yaml

import pulsecollapse
from pulsecollapse import cli, config, scenarios

CONFIG_DIR = os.path.join(os.path.dirname(cli.__file__), "configs")
PACKAGE_DIR = os.path.dirname(pulsecollapse.__file__)

# qualified name -> why no command needs to run it
UNREACHED = {
    "__init__.__getattr__": "no command uses the library namespace: the CLI imports the modules directly",
    "__init__.__dir__": "no command uses the library namespace: the CLI imports the modules directly",
    "dynamics.step": "stepped reference for the closed-form backbone and trajectories; perfbench patches it",
    "dynamics.CurrentReport.__post_init__": "built only by dynamics.step",
    "dynamics._site_masses": "per-site currents of dynamics.step; the site-table tests compare against it",
    "dynamics._advance_formation": "one formation step of dynamics.step; reference for FormationKernel",
    "dynamics.EnvelopeSchedule.hold": "the post-hit schedule of the stepped reference trajectory",
    "dynamics.EnvelopeSchedule.active_in": "read only by dynamics.step",
    "dynamics.drift_pulse": "one DriftKernel row on a whole state, for callers and tests; perfbench patches it",
    "dynamics.relative_intensity": "public API: the paper's intensity identity",
    "reduction.hit_probability": "rule-1 step probability of the stepped reference; perfbench patches it",
    "state.pulse_overlap": "public API",
    "state.DisengagedX.site_amplitudes": "brain-factor contract; a disengaged factor is never a hit target",
}


def _write(tmp_path, name, mapping):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def _load(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        return yaml.safe_load(fh)


def _commands(tmp_path):
    """(argv, documented exit code) of every traced command."""
    cmds = [(["run", "--config", os.path.join(CONFIG_DIR, name)], 0) for name in cli.BUNDLED_CONFIGS]
    linear = _load("interaction.yaml")
    linear["envelope"]["kind"] = "linear"
    cmds.append((["run", "--config", _write(tmp_path, "linear.yaml", linear)], 0))
    for name in cli.BUNDLED_CONFIGS:
        if scenarios.SCENARIOS[_load(name)["scenario"]["name"]].batch:
            cmds.append((["montecarlo", "--config", os.path.join(CONFIG_DIR, name), "--trials", "1000"], 0))
    controls = [
        ("interaction.yaml", "bias_site_selection", ["montecarlo", "--trials", "20000"], 3),
        ("pulse_drift.yaml", "tamper_phantom", ["run"], 2),
        ("pulse_drift.yaml", "intra_ready_transfer", ["run"], 2),
    ]
    for name, switch, argv, code in controls:
        mapping = _load(name)
        mapping["debug"] = {switch: True}
        cmds.append((argv + ["--config", _write(tmp_path, f"{switch}.yaml", mapping)], code))
    cmds.append((["verify"], 0))
    return [(argv + ["--out", str(tmp_path / f"o{n}")], code) for n, (argv, code) in enumerate(cmds)]


def _package_functions():
    """Qualified name -> (file, first line, name) of every function defined in the package's source."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                qual = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    found[qual] = (const.co_filename, const.co_firstlineno, const.co_name)
                walk(const, qual)

    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if fname.endswith(".py"):
            path = os.path.join(PACKAGE_DIR, fname)
            with open(path, encoding="utf-8") as fh:
                walk(compile(fh.read(), path, "exec"), fname[:-3])
    return found


def test_every_package_function_is_reached_or_listed(tmp_path, capsys):
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    commands = _commands(tmp_path)
    # built once per process: build them under the trace
    cli._build_parser.cache_clear()
    config._loader.cache_clear()
    codes = []
    previous = sys.gettrace()
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        for argv, _ in commands:
            codes.append(cli.main(argv))
    finally:
        sys.settrace(previous)
        threading.settrace(None)
    capsys.readouterr()
    assert codes == [code for _, code in commands]

    functions = _package_functions()
    assert set(UNREACHED) <= set(functions), "an allowlisted function no longer exists"
    never = sorted(q for q, key in functions.items() if key not in entered and q not in UNREACHED)
    assert never == [], f"package functions no command runs: {never}"
    reached = sorted(q for q in UNREACHED if functions[q] in entered)
    assert reached == [], "allowlisted functions a command now runs"
