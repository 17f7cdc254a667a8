#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
The last line printed is the result object; its metric names and units are
checked against BENCHMARK.json before it is printed. --selftest builds and
runs the benchmark's unit tests and checks that the metrics and workloads
the driver reports are exactly the ones BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Upper bound on one measured run once built, so a wedged engine fails the
# run instead of hanging its caller.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                fail("build failed: " + " ".join(step))
    return out


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def listed_metrics(binary):
    listing = subprocess.run([binary, "--list-metrics"], capture_output=True,
                             text=True, timeout=60, check=True).stdout
    sections = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in listing.splitlines():
        kind, _, rest = line.partition(" ")
        sections[kind].append(tuple(rest.split(" ")))
    return sections


def check_names(spec, sections):
    """Returns the mismatches between the driver's metrics and BENCHMARK.json."""
    problems = []
    declared = sorted(w["name"] for w in spec["workloads"])
    if declared != sorted(name for (name,) in sections["workload"]):
        problems.append("workloads differ: %s vs %s" % (declared, sections["workload"]))
    for kind in ("end_to_end", "per_layer"):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        have = dict(sections[kind])
        if want != have:
            missing = sorted(set(want) - set(have))
            extra = sorted(set(have) - set(want))
            units = sorted(n for n in set(want) & set(have) if want[n] != have[n])
            problems.append("%s: missing %s, extra %s, unit mismatch %s"
                            % (kind, missing, extra, units))
    return problems


def selftest():
    out = build(["perfbench", "perfbench_tests"])
    tests = subprocess.run([os.path.join(out, "perfbench_tests")], timeout=300)
    problems = check_names(benchmark_spec(),
                           listed_metrics(os.path.join(out, "perfbench")))
    for problem in problems:
        print("metric names: " + problem, file=sys.stderr)
    if tests.returncode or problems:
        fail("selftest failed")
    print("selftest passed")


def run(args):
    out = build(["perfbench"])
    spec = benchmark_spec()
    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--spans",
               os.path.join(out, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    if result.returncode:
        fail("driver exited with %d" % result.returncode)
    lines = result.stdout.rstrip("\n").split("\n")
    outcome = json.loads(lines[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    have = {name: m["unit"] for name, m in outcome["metrics"].items()}
    if want != have or sorted(outcome) != ["attempted", "correct", "failed", "metrics"]:
        fail("the result does not match BENCHMARK.json's %s metrics" % kind)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(outcome))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")
    run(args)


if __name__ == "__main__":
    main()
