"""One workload, run in its own process through ``pulsecollapse.cli.main``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It runs one warm-up op, then whole cycles of the workload's ops until the
time is up, checks every op's outputs, and writes its figures as JSON to
``--result``. With ``--trace 1`` it then runs a third as long again with the
span tracer installed and adds the per-layer figures.

Closed loop, one client, no threads: each op is one ``cli.main(argv)``
call into a fresh output directory, and the next op starts when it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import random
import shutil
import statistics
import sys
import time

import spans

MC_TRIALS = 1_000_000
TRACED_SHARE = 1 / 3  # the traced ops run for this share of --seconds
TINY_TRIALS = 1_000  # the smallest count montecarlo accepts

# workload -> (subcommand, bundled configs cycled through, one per op)
WORKLOADS = {
    "mc_batch": (
        "montecarlo",
        ("interaction_halted", "observation_overlap", "turn_off_overlap"),
    ),
    "trajectory": (
        "run",
        ("interaction", "observation_overlap", "turn_off_overlap", "disengage", "fade_in"),
    ),
    # verify runs every bundled config with the config's own seed
    "verify_suite": ("verify", (None,)),
}

EXPECTED_FILES = {
    "run": ("trajectory.csv", "events.json", "summary.json", "manifest.json"),
    "montecarlo": ("report.json", "manifest.json"),
    "verify": ("report.json",),
}

# the package's own audit tolerances
PULSE_NORM_TOL = 1e-9
PROVENANCE_TOL = 1e-12
AUDIT_LIMITS = {
    "max_pulse_norm_error": PULSE_NORM_TOL,
    "max_formation_norm_err": PULSE_NORM_TOL,
    "formation_norm_err": PULSE_NORM_TOL,
    "max_provenance_error": PROVENANCE_TOL,
}


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _strict_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def grid_steps(cfg) -> int:
    """Time steps on a config's grid: ramp plus tail, or the drift duration."""
    if "drift" in cfg.data:
        return round(cfg.data["drift"]["duration"] / cfg.dt)
    env = cfg.data["envelope"]
    return round((env["t_end"] - env["t_start"]) / cfg.dt) + cfg.data["scenario"]["tail_steps"]


class Workload:
    """Generates a workload's ops from the seed and checks their outputs."""

    def __init__(self, name: str, seed: int, src_dir: str, work_dir: str, tiny: bool):
        from pulsecollapse import cli, load_config

        self.command, self.configs = WORKLOADS[name]
        self.work_dir = work_dir
        self.main = cli.main
        self.trials = (TINY_TRIALS if tiny else MC_TRIALS) if self.command == "montecarlo" else None
        cfg_dir = os.path.join(src_dir, "pulsecollapse", "configs")
        self.paths = {c: os.path.join(cfg_dir, c + ".yaml") for c in self.configs if c}
        bundled = [os.path.join(cfg_dir, c) for c in cli.BUNDLED_CONFIGS]
        self.first_config = self.paths.get(self.configs[0], bundled[0])
        # steps of an op that writes no trajectory: the grid steps of its configs
        if self.command == "verify":
            self.grid_steps = {None: sum(grid_steps(load_config(p)) for p in bundled)}
        else:
            self.grid_steps = {c: grid_steps(load_config(p)) for c, p in self.paths.items()}
        self.counter = None  # a spans.TrialCounter while the untraced ops run
        self._rng = random.Random(f"{name}/{seed}")
        self._count = itertools.count()

    def next_op(self) -> dict:
        k = next(self._count)
        config = self.configs[k % len(self.configs)]
        op = {
            "id": k,
            "config": config or "<bundled>",
            "pos": k % len(self.configs),
            "grid_steps": self.grid_steps[config],
        }
        if self.command == "verify":
            op["argv"] = ["verify"]
            return op
        op["seed"] = self._rng.randrange(2**31)
        op["argv"] = [self.command, "--config", self.paths[config], "--seed", str(op["seed"])]
        if self.trials:
            op["argv"] += ["--trials", str(self.trials)]
        return op

    def bad_op(self) -> dict:
        """A run on a config with an unknown key; the CLI must refuse it."""
        k = next(self._count)
        path = os.path.join(self.work_dir, "bad_config.yaml")
        with open(self.first_config, encoding="utf-8") as src:
            text = src.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\nunknown_section:\n  key: 1\n")
        return {"id": k, "config": "bad_config", "pos": -1, "grid_steps": 0, "argv": ["run", "--config", path]}

    def run(self, op: dict, tracer=None) -> dict:
        """Run and check one op; the record holds its wall time and any failure cause."""
        out = os.path.join(self.work_dir, f"op-{op['id']}")
        argv = op["argv"] + ["--out", out]
        sink = io.StringIO()
        code, crash = None, None
        gc.collect()  # garbage left by the previous op is not this op's cost
        trials0 = self.counter.trials if self.counter else 0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = self.main(argv)
                else:
                    tracer.op = op["id"]
                    code = tracer.call("cli.main", self.main, argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the loop must go on; the op is failed with its cause
            crash = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        rec = {"id": op["id"], "config": op["config"], "pos": op["pos"], "ms": ms}
        if "seed" in op:
            rec["seed"] = op["seed"]
        if self.counter:
            rec["trials"] = self.counter.trials - trials0
        rec.update(self._check(op, out, code, crash, sink.getvalue()))
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def _check(self, op, out, code, crash, output) -> dict:
        causes = []
        if crash is not None:
            causes.append(f"raised {crash}")
        elif code != 0:
            last = output.strip().splitlines()[-1:] or [""]
            causes.append(f"exit code {code}: {last[0]}")
        command = op["argv"][0]
        docs = {}
        for fname in EXPECTED_FILES[command]:
            path = os.path.join(out, fname)
            if not os.path.isfile(path):
                causes.append(f"missing {fname}")
            elif fname.endswith(".json"):
                try:
                    docs[fname] = _strict_json(path)
                except ValueError as exc:
                    causes.append(f"{fname} is not strict JSON: {exc}")
        report = docs.get("report.json", {})
        summary = report.get("summary", docs.get("summary.json", {}))
        gate_failed = command == "montecarlo" and report and report.get("passed") is not True
        if gate_failed:
            causes.append(f"montecarlo passed=false: {'; '.join(report.get('failures', []))}")
        if command == "verify" and report and report.get("passed") is not True:
            bad = [f"{c['invariant']}/{c['config']}" for c in report.get("checks", []) if not c["passed"]]
            causes.append(f"verify passed=false: {', '.join(bad)}")
        for key, limit in AUDIT_LIMITS.items():
            value = summary.get(key)
            if isinstance(value, (int, float)) and not value <= limit:
                causes.append(f"{key}={value:.3e} exceeds {limit:g}")
        rec = {
            "ok": not causes,
            # exit 3 and passed=false and nothing else: the gate's own statistical verdict
            "statistical": bool(gate_failed) and code == 3 and len(causes) == 2,
            "causes": causes,
            "steps": op["grid_steps"],
            "bytes": sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(out) for f in fs),
        }
        csv_path = os.path.join(out, "trajectory.csv")
        if command == "run":
            rec["steps"] = 0
            if os.path.isfile(csv_path):
                with open(csv_path, encoding="utf-8") as fh:
                    rec["steps"] = max(sum(1 for _ in fh) - 2, 0)  # header and initial row
        if "events_digest" in summary:
            rec["events_digest"] = summary["events_digest"]
        return rec

    def measure(self, seconds: float, tracer=None) -> list:
        """Whole cycles of ops until ``seconds`` have passed (at least one cycle)."""
        records = []
        deadline = time.perf_counter() + seconds
        while not records or time.perf_counter() < deadline:
            for _ in self.configs:
                records.append(self.run(self.next_op(), tracer))
        return records


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(records) -> dict:
    """End-to-end figures of the untraced ops (setup_s and peak_rss_mb come from run.py).

    A cycle is one op on each of the workload's configs. Its time is the sum
    of the per-config median op times, and the rates are a cycle's trials
    and steps over that time, so that one slow op does not move them.
    """
    ms = [r["ms"] for r in records]
    by_pos = {}
    for r in records:
        by_pos.setdefault(r["pos"], []).append(r)

    def cycle(key):
        return sum(statistics.median(r[key] for r in rs) for rs in by_pos.values())

    cycle_s = cycle("ms") / 1e3
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": nearest_rank(ms, 0.9),
        "trials_per_s": cycle("trials") / cycle_s,
        "steps_per_s": cycle("steps") / cycle_s,
        "suite_s": cycle_s,
    }


def layer_figures(tracer, records) -> dict:
    """Per-layer figures of the traced ops, as amounts per op."""
    n = len(records)
    agg = tracer.per_name()
    c = tracer.counts

    def calls(name):
        return agg[name][0] / n

    def ms(name):
        return agg[name][1] * 1e3 / n

    def self_ms(name):
        return agg[name][2] * 1e3 / n

    def us_per_call(name):
        return agg[name][1] * 1e6 / agg[name][0] if agg[name][0] else 0.0

    batch_self_s = agg["scenarios.run_batch"][2]
    trials = c["batch_trials"] + c["trajectories"]
    return {
        "config.load_config.ms": ms("config.load_config"),
        "config.load_config.calls": calls("config.load_config"),
        "scenarios.build_backbone.ms": ms("scenarios.build_backbone"),
        "scenarios.build_backbone.calls": calls("scenarios.build_backbone"),
        "scenarios.build_backbone.us_per_step": (
            agg["scenarios.build_backbone"][1] * 1e6 / c["backbone_steps"] if c["backbone_steps"] else 0.0
        ),
        "scenarios.run_batch.self_ms": self_ms("scenarios.run_batch"),
        "scenarios.run_batch.ns_per_trial": (
            batch_self_s * 1e9 / c["batch_trials"] if c["batch_trials"] else 0.0
        ),
        "scenarios.run_batch.trials": c["batch_trials"] / n,
        "scenarios.run_batch.bytes_per_trial": (
            c["batch_bytes"] / c["batch_trials"] if c["batch_trials"] else 0.0
        ),
        "scenarios.run_scenario.self_ms": self_ms("scenarios.run_scenario"),
        "scenarios.simulate_trajectory.self_ms": self_ms("scenarios.simulate_trajectory"),
        "scenarios.simulate_trajectory.calls": calls("scenarios.simulate_trajectory"),
        "scenarios.simulate_trajectory.hit_ratio": (
            c["trajectory_hits"] / c["trajectories"] if c["trajectories"] else 0.0
        ),
        "scenarios.run_pulse_drift.ms": ms("scenarios.run_pulse_drift"),
        "scenarios.run_pulse_drift.calls": calls("scenarios.run_pulse_drift"),
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.step.us_per_call": us_per_call("dynamics.step"),
        "dynamics.drift_pulse.calls": calls("dynamics.drift_pulse"),
        "dynamics.drift_pulse.us_per_call": us_per_call("dynamics.drift_pulse"),
        "dynamics.form_pulse.calls": calls("dynamics.form_pulse"),
        "dynamics.form_pulse.us_per_call": us_per_call("dynamics.form_pulse"),
        "state.Term.square_modulus.calls": calls("state.Term.square_modulus"),
        "state.Term.square_modulus.self_ms": self_ms("state.Term.square_modulus"),
        "state.Pulse.norm_sq.calls": calls("state.Pulse.norm_sq"),
        "state.Pulse.norm_sq.self_ms": self_ms("state.Pulse.norm_sq"),
        "state.total_square_modulus.calls": calls("state.total_square_modulus"),
        "reduction.hit_probability.calls": calls("reduction.hit_probability"),
        "reduction.reduce.calls": calls("reduction.reduce"),
        "reduction.reduce.us_per_call": us_per_call("reduction.reduce"),
        "reduction.hits_per_trial": (
            (c["batch_hits"] + c["trajectory_hits"]) / trials if trials else 0.0
        ),
        "analysis.hit_histogram.ms": ms("analysis.hit_histogram"),
        "analysis.compare.ms": ms("analysis.compare"),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.bytes_written": sum(r["bytes"] for r in records) / n,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--work", required=True, help="scratch directory for op outputs")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    ap.add_argument("--tiny", action="store_true", help="smallest op sizes")
    ap.add_argument("--bad-op", action="store_true", help="add one op the CLI must refuse")
    args = ap.parse_args(argv)

    import numpy
    import pulsecollapse
    import scipy
    import yaml

    pkg_dir = os.path.join(os.path.realpath(args.src), "pulsecollapse")
    if os.path.dirname(os.path.realpath(pulsecollapse.__file__)) != pkg_dir:
        print(f"pulsecollapse imported from {pulsecollapse.__file__}, not {pkg_dir}", file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed, args.src, args.work, args.tiny)
    extra = [wl.run(wl.next_op())]  # warm-up: checked, not timed
    if args.bad_op:
        extra.append(wl.run(wl.bad_op()))

    wl.counter = spans.TrialCounter()
    patch = wl.counter.install()
    try:
        records = wl.measure(args.seconds)
    finally:
        patch.undo()
        wl.counter = None
    result = {
        "records": records,
        "extra_records": extra,
        "metrics": end_to_end(records),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "PyYAML": yaml.__version__,
            "pulsecollapse": pulsecollapse.__version__,
        },
        "first_config": wl.first_config,
    }

    if args.trace:
        tracer = spans.Tracer()
        patch = tracer.install()
        try:
            traced = wl.measure(args.seconds * TRACED_SHARE, tracer)
        finally:
            patch.undo()
        result["traced_records"] = traced
        layers = layer_figures(tracer, traced)
        layers["trace.overhead_ms"] = (
            statistics.median(r["ms"] for r in traced) - result["metrics"]["op_ms_p50"]
        )
        result["layers"] = layers
        result["trace_file"] = os.path.join(args.work, "spans.csv.gz")
        tracer.write(result["trace_file"])

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
