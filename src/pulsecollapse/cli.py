"""Command-line entry point.

Subcommands: ``run`` (one trajectory, full artifact set), ``montecarlo``
(batch trials judged by the gates the scenario's ``SCENARIOS`` entry
declares), ``verify`` (invariant suite over bundled or given configs, with
the rows each scenario's entry returns). No scenario is named here, and no
summary key is read here.

The value flags can also come from an environment variable with the
``PULSECOLLAPSE_`` prefix (PULSECOLLAPSE_CONFIG, PULSECOLLAPSE_SEED,
PULSECOLLAPSE_TRIALS, PULSECOLLAPSE_OUT, PULSECOLLAPSE_FORMATION). Flags
win over environment, environment over the config file. Any other
variable with the prefix is a configuration error, as an unknown flag or
config key is.

The output directory is checked before a command runs (it must be empty
unless ``--force``) and created only when the first file is written, so a
refused run leaves no directory behind.

Exit codes: 0 success, 1 configuration error, 2 invariant breach (the
violated invariant is named on stderr), 3 statistical failure.

All output files are deterministic functions of (config, seed); the wall
clock appears only in manifest.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, asdict
from datetime import datetime, timezone
from importlib import resources
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .config import ScenarioConfig, load_config
from .errors import ConfigError, InvariantBreach, SimulationError, TooFewEvents, TooFewTrials
from .scenarios import SCENARIOS, TrajectoryLog, run_scenario, simulate_trajectory

ENV_PREFIX = "PULSECOLLAPSE_"
ENV_NAMES = ("CONFIG", "SEED", "TRIALS", "OUT", "FORMATION")  # each read as ENV_PREFIX + name

BUNDLED_CONFIGS = (
    "interaction.yaml",
    "interaction_halted.yaml",
    "observation_overlap.yaml",
    "observation_disjoint.yaml",
    "observation_single.yaml",
    "turn_off_overlap.yaml",
    "turn_off_disjoint.yaml",
    "disengage.yaml",
    "pulse_drift.yaml",
    "fade_in.yaml",
)


@dataclass
class RunManifest:
    """Echo of everything that determined a run, written next to its outputs."""

    command: str
    config_path: str
    scenario: str
    seed: int
    n_trials: int
    out_dir: str
    formation_mode: Optional[str]
    emit_trajectory: bool
    emit_events: bool
    emit_summary: bool
    package_version: str
    created_utc: str


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _plain(value):
    """Recursively convert numpy scalars, arrays, and complex to JSON types.

    Non-finite floats (an infinite z-score or chi-square, a NaN fit) become
    null, so every output file is strict JSON.
    """
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, complex) or isinstance(value, np.complexfloating):
        return [_plain(float(value.real)), _plain(float(value.imag))]
    if isinstance(value, (np.floating, float)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    return value


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_trajectory_csv(path: str, log: TrajectoryLog) -> None:
    header = log.header()
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([line % tuple(row) for row in log.table()]))


def _event_record(event) -> Dict:
    return {
        "t_sc": event.t_sc,
        "term_hit": event.term_hit,
        "u_sc": event.u_sc,
        "pre_norm": event.pre_norm,
        "post_coefficients": {
            str(k): [v.real, v.imag] for k, v in sorted(event.post_coefficients.items())
        },
        "rng_draws": list(event.rng_draws),
        "ramp_progress": event.ramp_progress,
    }


def _check_out(out_dir: str, force: bool) -> None:
    """Refuse an output path that is a file, or a non-empty directory without ``--force``."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ConfigError(f"output path {out_dir!r} is not a directory")
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise ConfigError(
            f"output directory {out_dir!r} is not empty; pass --force to overwrite"
        )


def _out_file(out_dir: str, name: str) -> str:
    """The path of one output file, creating the directory on the first write."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _manifest(args, cfg: ScenarioConfig, command: str) -> RunManifest:
    return RunManifest(
        command=command,
        config_path=args.config,
        scenario=cfg.name,
        seed=cfg.seed,
        n_trials=cfg.trials,
        out_dir=args.out,
        formation_mode=cfg.get("formation.mode"),
        emit_trajectory=not args.no_trajectory,
        emit_events=not args.no_events,
        emit_summary=not args.no_summary,
        package_version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
    )


# ---------------------------------------------------------------------------
# config resolution (flags > environment > file)
# ---------------------------------------------------------------------------


def _env(name: str) -> Optional[str]:
    return os.environ.get(ENV_PREFIX + name)


def _check_env() -> None:
    """Refuse a ``PULSECOLLAPSE_`` variable that names no flag, as an unknown flag is refused."""
    known = {ENV_PREFIX + name for name in ENV_NAMES}
    unknown = sorted(key for key in os.environ if key.startswith(ENV_PREFIX) and key not in known)
    if unknown:
        raise ConfigError(
            f"unknown environment variable {', '.join(unknown)}; known: {', '.join(sorted(known))}"
        )


def _resolve_config(args) -> ScenarioConfig:
    path = args.config or _env("CONFIG")
    if not path:
        raise ConfigError("no config given; pass --config or set PULSECOLLAPSE_CONFIG")
    args.config = path
    cfg = load_config(path)

    seed = args.seed if args.seed is not None else _env("SEED")
    trials = args.trials if args.trials is not None else _env("TRIALS")
    formation = args.formation if args.formation is not None else _env("FORMATION")
    try:
        seed = int(seed) if seed is not None else None
        trials = int(trials) if trials is not None else None
    except ValueError as exc:
        raise ConfigError(f"override must be an integer: {exc}")
    return cfg.with_overrides(seed=seed, trials=trials, formation_mode=formation)


def _resolve_out(args) -> None:
    args.out = args.out or _env("OUT") or "out"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    _resolve_out(args)
    _check_out(args.out, args.force)
    manifest = _manifest(args, cfg, "run")

    if SCENARIOS[cfg.name].batch:
        out = simulate_trajectory(cfg, trial=0)
        log = out.log
        events = [out.event] if out.event else []
        summary = {
            "scenario": cfg.name,
            "seed": cfg.seed,
            "hit": out.event is not None,
            "budget_consumed": float(out.log.budget[-1]),
        }
        if out.event is not None:
            ev = out.event
            summary.update(
                {
                    "t_sc": ev.t_sc,
                    "u_sc": ev.u_sc,
                    "term_hit": ev.term_hit,
                    "multiplicity": len(ev.post_coefficients),
                    "pre_norm": ev.pre_norm,
                    "post_norm": sum(abs(c) ** 2 for c in ev.post_coefficients.values()),
                }
            )
        summary.update({k: v for k, v in out.extras.items() if np.isscalar(v)})
    else:
        result = run_scenario(cfg)
        log, events, summary = result.trajectory, result.events, result.summary

    if manifest.emit_trajectory and log is not None:
        _write_trajectory_csv(_out_file(args.out, "trajectory.csv"), log)
    if manifest.emit_events:
        _write_json(_out_file(args.out, "events.json"), [_event_record(e) for e in events])
    if manifest.emit_summary:
        _write_json(_out_file(args.out, "summary.json"), summary)
    _write_json(_out_file(args.out, "manifest.json"), asdict(manifest))
    print(f"run complete: scenario={cfg.name} seed={cfg.seed} out={args.out}")
    return 0


def cmd_montecarlo(args) -> int:
    cfg = _resolve_config(args)
    _resolve_out(args)
    if cfg.trials < 1000:
        raise ConfigError(f"montecarlo needs at least 1000 trials, got {cfg.trials}")
    if not SCENARIOS[cfg.name].batch:
        raise ConfigError(
            f"scenario {cfg.name!r} has no Monte Carlo batch; "
            f"supported: {', '.join(name for name, sc in SCENARIOS.items() if sc.batch)}"
        )
    _check_out(args.out, args.force)
    manifest = _manifest(args, cfg, "montecarlo")

    try:
        result = run_scenario(cfg)
    except (TooFewTrials, TooFewEvents) as exc:
        raise ConfigError(f"scenario.trials = {cfg.trials} gives too few hits for the statistics: {exc}")
    failures = SCENARIOS[cfg.name].failed_gates(result.summary)
    report = {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "n_trials": cfg.trials,
        "summary": result.summary,
        "failures": failures,
        "passed": not failures,
    }
    _write_json(_out_file(args.out, "report.json"), report)
    _write_json(_out_file(args.out, "manifest.json"), asdict(manifest))
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(
        f"montecarlo {'pass' if not failures else 'FAIL'}: "
        f"scenario={cfg.name} trials={cfg.trials} out={args.out}"
    )
    return 0 if not failures else 3


def _verify_one(cfg: ScenarioConfig, checks: List[Dict], label: str) -> None:
    """Append the scenario's invariant check records for one config."""
    for invariant, passed, detail in SCENARIOS[cfg.name].checks(cfg):
        checks.append({"invariant": invariant, "config": label, "passed": bool(passed), "detail": detail})


def cmd_verify(args) -> int:
    _resolve_out(args)
    _check_out(args.out, args.force)
    checks: List[Dict] = []

    if args.config or _env("CONFIG"):
        cfgs = [(_resolve_config(args), os.path.basename(args.config))]
    else:
        args.config = "<bundled>"
        cfgs = []
        for name in BUNDLED_CONFIGS:
            ref = resources.files("pulsecollapse").joinpath("configs", name)
            with resources.as_file(ref) as path:
                cfgs.append((load_config(str(path)), name))

    for cfg, label in cfgs:
        _verify_one(cfg, checks, label.removesuffix(".yaml"))

    failed = [c for c in checks if not c["passed"]]
    report = {
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": len(failed),
        "passed": not failed,
    }
    _write_json(_out_file(args.out, "report.json"), report)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['invariant']:<20} {c['config']:<40} {c['detail']}")
    if failed:
        names = ", ".join(sorted({c["invariant"] for c in failed}))
        print(f"verify FAILED: {names}", file=sys.stderr)
        return 2
    print(f"verify passed: {len(checks)} checks")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building costs about 20 parses."""
    parser = argparse.ArgumentParser(
        prog="pulsecollapse",
        description="Stochastic reduction simulator: run trajectories, "
        "verify closed-form probabilities by Monte Carlo, audit invariants.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("--config", required=False, help="scenario config file (YAML)")
        p.add_argument("--seed", type=int, default=None, help="override scenario.seed")
        p.add_argument("--trials", type=int, default=None, help="override scenario.trials")
        p.add_argument("--out", default=None, help="output directory (default: out)")
        p.add_argument(
            "--formation",
            choices=("instant", "staged"),
            default=None,
            help="override formation.mode",
        )
        p.add_argument("--force", action="store_true", help="write into a non-empty directory")
        p.add_argument("--no-trajectory", action="store_true", help="skip trajectory.csv")
        p.add_argument("--no-events", action="store_true", help="skip events.json")
        p.add_argument("--no-summary", action="store_true", help="skip summary.json")

    p_run = sub.add_parser("run", help="one trajectory with full artifacts")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_mc = sub.add_parser("montecarlo", help="batch trials against closed forms")
    common(p_mc)
    p_mc.set_defaults(func=cmd_montecarlo)

    p_v = sub.add_parser("verify", help="invariant suite over bundled configs")
    common(p_v)
    p_v.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_env()
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantBreach as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"invariant breach: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
