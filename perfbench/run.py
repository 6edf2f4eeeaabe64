#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (release,
offline) into $CARGO_TARGET_DIR (default: .bench_build), then runs the timed
binary (--trace 0) or the traced binary (--trace 1). Their report is passed
through; the last line printed is one JSON object with the keys correct,
attempted, failed and metrics, where metrics holds exactly the end_to_end
(--trace 0) or per_layer (--trace 1) metrics listed in BENCHMARK.json. A
listed metric that the binary did not report as a number, or reported with
another unit, is an error. Exits non-zero, without a result line, if the
build or the traced run's fidelity check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def select_metrics(result, listed):
    """Picks the listed metrics out of the binary's result, checking units."""
    picked = {}
    for spec in listed:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None:
            raise ValueError(f"metric {name} was not reported")
        value = got["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"metric {name} has no value on this workload")
        if got["unit"] != unit:
            raise ValueError(f"metric {name} is in {got['unit']}, not {unit}")
        picked[name] = {"value": value, "unit": unit}
    return picked


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1

    binary = "perfbench-trace" if args.trace else "perfbench"
    cmd = [os.path.join(target, "release", binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{binary} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        print(f"{binary} exited {run.returncode} without a result", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    try:
        metrics = select_metrics(result, spec["per_layer" if args.trace else "end_to_end"])
    except ValueError as e:
        sys.stdout.write(run.stdout)
        print(e, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
