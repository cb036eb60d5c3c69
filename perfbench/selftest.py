"""Self-test of the benchmark: tiny runs of every workload, one bad op, one bare directory.

    python3 perfbench/selftest.py

Checks that each workload, with and without tracing, exits 0 and prints
every metric named in BENCHMARK.json with its unit, both in the readable
lines and in the final JSON line; that a deliberately bad op (a config with
an unknown key) is counted as a failed op instead of stopping the run; and
that the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


class SelfTestFailure(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SelfTestFailure(message)


def bench(args, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, run, *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def final(lines):
    doc = json.loads(lines[-1])
    check(set(doc) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(doc)}")
    check(isinstance(doc["attempted"], int) and doc["attempted"] >= 1, "attempted < 1")
    check(isinstance(doc["failed"], int), "failed is not an integer")
    return doc


def test_workloads(spec) -> None:
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            code, lines, err = bench(args)
            check(code == 0, f"{workload} trace {trace}: exit {code}: {err[-800:]}")
            doc = final(lines)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            check(got == want, f"{workload} trace {trace}: metrics differ from BENCHMARK.json {key}")
            for name, entry in doc["metrics"].items():
                check(isinstance(entry["value"], (int, float)), f"{name} is not a number")
                check(
                    any(line.split()[:1] == [name] and entry["unit"] in line.split() for line in lines[:-1]),
                    f"{workload} trace {trace}: no readable line for {name} [{entry['unit']}]",
                )
            check(any(line.split()[:1] == ["ops_failed_ratio"] for line in lines), "no ops_failed_ratio line")
            print(f"ok  {workload} trace {trace}: {len(doc['metrics'])} metrics, "
                  f"{doc['failed']} failed / {doc['attempted']} attempted")


def test_bad_op() -> None:
    code, lines, err = bench(
        ["--workload", "trajectory", "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny", "--bad-op"]
    )
    check(code == 0, f"bad op stopped the benchmark: exit {code}: {err[-800:]}")
    doc = final(lines)
    check(doc["failed"] >= 1, "bad op was not counted as failed")
    check(doc["correct"] is False, "a refused config left correct=true")
    check(
        any("FAILED" in line and "bad_config" in line and "exit code 1" in line for line in lines),
        "bad op failure cause not listed",
    )
    ratio = [line for line in lines if line.split()[:1] == ["ops_failed_ratio"]][0]
    check(float(ratio.split()[1]) > 0, "ops_failed_ratio stayed 0")
    print(f"ok  bad op: {doc['failed']} failed / {doc['attempted']} attempted, correct=false")


def test_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    try:
        code, lines, _ = bench(
            ["--workload", "mc_batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            run=os.path.join(bare, "perfbench", "run.py"),
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(code != 0, "benchmark succeeded without the package source")
    check(not any(line.startswith("{") for line in lines), "printed a result without the package source")
    print(f"ok  bare directory: exit {code}, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        test_bare_directory()
        test_bad_op()
        test_workloads(spec)
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
