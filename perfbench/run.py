"""pulsecollapse benchmark: one workload, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload mc_batch --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above this file. Uses only
the standard library. The workload runs in a child process with
``PYTHONPATH`` set to the checkout's ``src``; set-up time is the median of
several fresh children that import the package and load one config.

Human-readable lines come first. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("mc_batch", "trajectory", "verify_suite")
SETUP_RUNS = 3
RUN_LIMIT_S = 170  # every child is killed before a run takes longer than this
SETUP_CODE = "import sys, pulsecollapse; pulsecollapse.load_config(sys.argv[1])"
IMPORTS = {"numpy": "numpy", "yaml": "yaml", "scipy_stats": "scipy.stats", "pulsecollapse": "pulsecollapse"}
# a montecarlo op that fails only its own statistical gate (3-sigma z-score,
# chi-square p <= 0.01) is expected at about 1.3 percent per op; more
# failures than this rate makes plausible mean the law itself is off
STAT_FAIL_RATE = 0.02
STAT_FAIL_P_MIN = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "trials_per_s": "1/s",
    "steps_per_s": "1/s",
    "suite_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    **{f"setup.import_ms.{k}": "ms" for k in IMPORTS},
    "config.load_config.ms": "ms",
    "config.load_config.calls": "count",
    "scenarios.build_backbone.ms": "ms",
    "scenarios.build_backbone.calls": "count",
    "scenarios.build_backbone.us_per_step": "us",
    "scenarios.run_batch.self_ms": "ms",
    "scenarios.run_batch.ns_per_trial": "ns",
    "scenarios.run_batch.trials": "count",
    "scenarios.run_batch.bytes_per_trial": "B",
    "scenarios.run_scenario.self_ms": "ms",
    "scenarios.simulate_trajectory.self_ms": "ms",
    "scenarios.simulate_trajectory.calls": "count",
    "scenarios.simulate_trajectory.hit_ratio": "1",
    "scenarios.run_pulse_drift.ms": "ms",
    "scenarios.run_pulse_drift.calls": "count",
    "dynamics.step.calls": "count",
    "dynamics.step.us_per_call": "us",
    "dynamics.drift_pulse.calls": "count",
    "dynamics.drift_pulse.us_per_call": "us",
    "dynamics.form_pulse.calls": "count",
    "dynamics.form_pulse.us_per_call": "us",
    "state.Term.square_modulus.calls": "count",
    "state.Term.square_modulus.self_ms": "ms",
    "state.Pulse.norm_sq.calls": "count",
    "state.Pulse.norm_sq.self_ms": "ms",
    "state.total_square_modulus.calls": "count",
    "reduction.hit_probability.calls": "count",
    "reduction.reduce.calls": "count",
    "reduction.reduce.us_per_call": "us",
    "reduction.hits_per_trial": "1",
    "analysis.hit_histogram.ms": "ms",
    "analysis.compare.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.bytes_written": "B",
    "trace.overhead_ms": "ms",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_setup(config: str, importtime: bool, deadline: float):
    """Wall seconds of fresh children that import the package and load ``config``.

    With ``importtime`` the children import numpy, yaml, scipy.stats and the
    package one after another under ``-X importtime``, and the median import
    time of each is returned too; each figure excludes what was imported
    before it, so the package's figure is its own modules only.
    """
    walls, imports = [], {k: [] for k in IMPORTS}
    code = SETUP_CODE
    if importtime:
        code = f"import {', '.join(IMPORTS.values())}; " + code
    cmd = [sys.executable] + ["-X", "importtime"] * importtime + ["-c", code, config]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 0.1),
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        if importtime:
            top = top_level_imports(proc.stderr)
            for key, module in IMPORTS.items():
                # scipy imports scipy.stats lazily: its submodules show up at top level
                imports[key].append(sum(ms for name, ms in top if name.split(".")[0] == module.split(".")[0]))
    return walls, {k: statistics.median(v) for k, v in imports.items() if v}


def top_level_imports(stderr: str):
    """(module, cumulative ms) for each top-level line of ``-X importtime`` output."""
    out = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            if parts[2].startswith(" ") and not parts[2].startswith("  "):
                out.append((parts[2].strip(), int(parts[1]) / 1e3))
    return out


def src_lines() -> int:
    total = 0
    for d, _, files in os.walk(os.path.join(SRC, "pulsecollapse")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def binomial_tail(n: int, k: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest op sizes (self-test)")
    ap.add_argument("--bad-op", action="store_true", help="add one op the CLI must refuse (self-test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "pulsecollapse", "__init__.py")):
        return fail(f"no package source at {os.path.join(SRC, 'pulsecollapse')}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(OUT, tag)
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", SRC, "--work", work, "--result", result_path,
    ]
    cmd += ["--tiny"] * args.tiny + ["--bad-op"] * args.bad_op
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        return fail(f"workload child still running after {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        return fail(f"workload child exited with code {proc.returncode}")
    # the workload child is the only child reaped so far
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    try:
        walls, import_ms = run_setup(res["first_config"], bool(args.trace), deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    e2e = dict(res["metrics"], setup_s=statistics.median(walls), peak_rss_mb=peak_rss_mb)
    records = res["records"] + res.get("traced_records", [])
    every = records + res["extra_records"]
    failed = [r for r in every if not r["ok"]]
    stat = [r for r in failed if r["statistical"]]
    mc_ops = sum(1 for r in every if "events_digest" in r)
    correct = len(stat) == len(failed) and (
        not stat or binomial_tail(mc_ops, len(stat), STAT_FAIL_RATE) >= STAT_FAIL_P_MIN
    )

    n = len(res["records"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in END_TO_END_UNITS.items():
        if args.trace and name == "setup_s":
            continue  # the set-up children ran under -X importtime
        samples = SETUP_RUNS if name == "setup_s" else 1 if name == "peak_rss_mb" else n
        print(f"  {name:<16} {e2e[name]:>14.6g} {unit:<5} n={samples}")
    print(f"  {'ops_failed_ratio':<16} {len(failed) / len(every):>14.6g} {'1':<5} "
          f"{len(failed)} failed / {len(every)} attempted ({len(stat)} by the statistical gate)")
    for r in failed:
        print(f"  FAILED op {r['id']} {r['config']} seed {r.get('seed', '-')}: {'; '.join(r['causes'])}")
    if args.trace:
        layers = dict(res["layers"], **{f"setup.import_ms.{k}": v for k, v in import_ms.items()})
        print(f"  per-layer figures are amounts per traced op over {len(res['traced_records'])} ops; "
              f"bytes_per_trial is computed from EventBatch nbytes; spans in {res['trace_file']}")
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<42} {layers[name]:>14.6g} {unit}")

    provenance = {
        "versions": res["versions"],
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "events_digests": [
            {"config": r["config"], "seed": r["seed"], "events_digest": r["events_digest"]}
            for r in every if "events_digest" in r
        ],
    }
    with open(os.path.join(work, "provenance.json"), "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, indent=1)
    v = res["versions"]
    print(f"provenance: python {v['python']} numpy {v['numpy']} scipy {v['scipy']} "
          f"PyYAML {v['PyYAML']} nproc {provenance['nproc']} src_lines {provenance['src_lines']} "
          f"digests {len(provenance['events_digests'])} in {os.path.join(work, 'provenance.json')}")

    if args.trace:
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": len(every), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
