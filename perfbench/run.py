#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or its self-test.

    python3 perfbench/run.py --workload <stream|study|epoch|serve> \
        --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built in release mode into CARGO_TARGET_DIR,
or .bench_build when that is unset. The last line of standard output is
the run's JSON result. --self-test also checks that BENCHMARK.json names
exactly the metrics, with the units, that the program reports.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's output goes to stderr so that stdout ends with the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def check_catalogue(binary):
    """BENCHMARK.json must list the program's metrics, names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.split("\n")
    problems = []
    for kind in ("end_to_end", "per_layer"):
        program = [tuple(line.split()[1:]) for line in listed
                   if line.startswith(kind + " ")]
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if program != declared:
            problems.append(f"{kind}: BENCHMARK.json {declared} != program {program}")
    if "setup_s" not in [m["name"] for m in spec["end_to_end"]]:
        problems.append("end_to_end lacks setup_s")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(["stream", "study", "epoch", "serve"]):
        problems.append(f"workloads {names} differ from the program's")
    return problems


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--self-test"]:
        problems = check_catalogue(binary)
        for p in problems:
            print(f"SELF-TEST FAILED: {p}", file=sys.stderr)
        code = subprocess.run([binary, "--self-test"], cwd=ROOT).returncode
        sys.exit(1 if problems or code else 0)
    sys.exit(subprocess.run([binary] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
