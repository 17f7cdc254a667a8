#!/usr/bin/env python3
"""Lists the src/ code that no figure, bench section or benchmark executes.

Builds the repository's `figures` and `dataplane` benches, and the
benchmark package (perfbench/), under a temporary directory with
`--coverage -O1`. From a temporary working directory (so no committed
BENCH_dataplane/ file is rewritten) it then runs, at smoke scale:

  - `figures` (every paper table and figure);
  - `dataplane` setups, profile, chaos, fusion, sustained and
    `scaling --parallelism 1,4`;
  - perfbench's three workloads for 3 s each, untraced and traced.

It merges `gcov --json-format` output from both builds and prints, per
src/ file, unexecuted/total lines and the files never linked into a binary
that ran. It then builds the rest of the repository, runs `ctest` and
perfbench's own tests in the same builds, and splits the functions with
zero hits in those measured runs into two lists: "tests only" (a test runs
them) and "nothing" (not even a test does). A header template that no
measured object instantiates appears in neither list, so a third one names
the functions that only test or example objects instantiate: their (file,
start line) shows up in the test-phase data and in no measured object.
This third list is informational and does not change the exit code.

Exits 1 when a src/**/*.cpp has no executed line and is not on KEEP, 2 when
a build fails or a measured run dies (its coverage would be lost), else 0.
A failing test suite is reported but does not change the exit code.

Usage:
    python3 scripts/coverage_unused.py
"""

import collections
import concurrent.futures
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Translation units allowed to run only under tests, each with its guard.
KEEP = {
    "beam/runners/direct_runner.cpp": "the differential oracle",
}

FIGURES = ["figures"]
DATAPLANE_SECTIONS = [["setups"], ["profile"], ["chaos"], ["fusion"],
                      ["sustained"], ["scaling", "--parallelism", "1,4"]]
WORKLOADS = ["identity_batch", "grep_batch", "identity_stream"]
SMOKE_ENV = {"STREAMSHIM_RECORDS": "5000", "STREAMSHIM_RUNS": "1",
             "STREAMSHIM_SUSTAINED_RECORDS": "12000"}
COVERAGE_FLAGS = ["-DCMAKE_BUILD_TYPE=Coverage",
                  "-DCMAKE_CXX_FLAGS=--coverage -O1",
                  "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]
RUN_TIMEOUT_S = 900
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build(source, out, targets, log):
    for step in (["cmake", "-S", source, "-B", out] + COVERAGE_FLAGS,
                 ["cmake", "--build", out, "-j", JOBS, "--target"] + targets):
        if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
            return False
    return True


def run_all(repo_build, bench_build, cwd, log):
    """Runs every measured binary; returns the runs whose coverage is lost."""
    env = dict(os.environ, **SMOKE_ENV)
    bench_dir = os.path.join(repo_build, "bench")
    commands = [[os.path.join(bench_dir, name)] for name in FIGURES]
    commands += [[os.path.join(bench_dir, "dataplane")] + section
                 for section in DATAPLANE_SECTIONS]
    commands += [[os.path.join(bench_build, "perfbench"), "--workload", name,
                  "--seed", "1", "--seconds", "3", "--trace", trace]
                 for name in WORKLOADS for trace in ("0", "1")]
    lost = []
    for command in commands:
        label = " ".join([os.path.basename(command[0])] + command[1:])
        print("run: " + label, file=sys.stderr, flush=True)
        try:
            code = subprocess.run(command, cwd=cwd, env=env, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
        if code is None or code < 0:
            # A killed process writes no .gcda, so its lines would read as
            # never executed.
            lost.append(label)
        elif code:
            # A failed shape or self check still ran its code.
            print("  exited %d (its coverage still counts)" % code,
                  file=sys.stderr)
    return lost


def run_tests(repo_build, bench_build, log):
    """Builds every remaining target and runs the test suites; returns the
    suites that failed (a killed test process loses its coverage)."""
    failed = []
    suites = [("ctest", ["cmake", "--build", repo_build, "-j", JOBS],
               ["ctest", "-j", JOBS, "--output-on-failure"]),
              ("perfbench_tests",
               ["cmake", "--build", bench_build, "-j", JOBS, "--target",
                "perfbench_tests"],
               [os.path.join(bench_build, "perfbench_tests")])]
    for label, build_step, test_step in suites:
        print("run: " + label, file=sys.stderr, flush=True)
        for step in (build_step, test_step):
            try:
                code = subprocess.run(step, cwd=repo_build, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=RUN_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = None
            if code != 0:
                failed.append(label)
                break
    return failed


def gcov_json(gcno):
    """gcov's JSON for one object; missing .gcda reads as all-zero counts."""
    result = subprocess.run(["gcov", "--json-format", "--stdout", gcno],
                            cwd=os.path.dirname(gcno), capture_output=True,
                            text=True)
    return [json.loads(line) for line in result.stdout.splitlines()
            if line.startswith("{")]


def collect(build_dirs):
    """Merges line and function counts per src/ file over every object."""
    lines = collections.defaultdict(dict)      # rel -> {line: count}
    functions = collections.defaultdict(dict)  # rel -> {start: [name, count]}
    linked = set()                             # rel seen in a run object
    gcnos = [path for d in build_dirs
             for path in glob.glob(os.path.join(d, "**", "*.gcno"),
                                   recursive=True)]
    with concurrent.futures.ThreadPoolExecutor(int(JOBS)) as pool:
        reports = pool.map(gcov_json, gcnos)
        for gcno, docs in zip(gcnos, reports):
            ran = os.path.exists(gcno[:-len(".gcno")] + ".gcda")
            for doc in docs:
                cwd = doc.get("current_working_directory", "")
                for entry in doc["files"]:
                    path = os.path.realpath(os.path.join(cwd, entry["file"]))
                    if not path.startswith(SRC + os.sep):
                        continue
                    rel = os.path.relpath(path, SRC)
                    if ran:
                        linked.add(rel)
                    counts = lines[rel]
                    for line in entry["lines"]:
                        number = line["line_number"]
                        counts[number] = counts.get(number, 0) + line["count"]
                    for fn in entry["functions"]:
                        slot = functions[rel].setdefault(
                            fn["start_line"], [fn["demangled_name"], 0])
                        slot[1] += fn["execution_count"]
    return lines, functions, linked


def report(lines, functions, linked, tested_functions):
    sources = {os.path.relpath(p, SRC)
               for p in glob.glob(os.path.join(SRC, "**", "*.cpp"),
                                  recursive=True)}
    print("%-45s %10s %7s" % ("src/ file", "unexec", "total"))
    for rel in sorted(lines):
        counts = lines[rel]
        unexecuted = sum(1 for c in counts.values() if c == 0)
        print("%-45s %10d %7d" % (rel, unexecuted, len(counts)))

    never_linked = sorted((set(lines) | sources) - linked)
    print("\nnever linked into a binary that ran (%d):" % len(never_linked))
    for rel in never_linked:
        print("  " + rel)

    zero = {"tests only": [], "nothing": []}
    for rel in sorted(functions):
        for start, (name, count) in sorted(functions[rel].items()):
            if count == 0:
                tested = tested_functions.get(rel, {}).get(start, [name, 0])
                zero["tests only" if tested[1] else "nothing"].append(
                    "  %s:%d  %s" % (rel, start, name))
    for label, entries in zero.items():
        print("\nfunctions with zero hits in the measured runs, executed by "
              "%s (%d):" % (label, len(entries)))
        for entry in entries:
            print(entry)

    test_only = ["  %s:%d  %s" % (rel, start, name)
                 for rel in sorted(tested_functions)
                 for start, (name, _) in sorted(tested_functions[rel].items())
                 if start not in functions.get(rel, {})]
    print("\nfunctions instantiated only by tests or examples (%d):"
          % len(test_only))
    for entry in test_only:
        print(entry)

    dead = sorted(rel for rel in sources
                  if not any(lines.get(rel, {}).values()))
    print("\n.cpp files with no executed line:")
    for rel in dead:
        print("  %s  (%s)" % (rel, KEEP.get(rel, "UNUSED")))
    return [rel for rel in dead if rel not in KEEP]


def main():
    with tempfile.TemporaryDirectory(prefix="coverage_unused-") as tmp:
        repo_build = os.path.join(tmp, "repo")
        bench_build = os.path.join(tmp, "perfbench")
        cwd = os.path.join(tmp, "run")
        os.makedirs(cwd)
        log_path = os.path.join(tmp, "log.txt")
        with open(log_path, "w") as log:
            print("building under " + tmp, file=sys.stderr, flush=True)
            built = (build(ROOT, repo_build, FIGURES + ["dataplane"], log) and
                     build(os.path.join(ROOT, "perfbench"), bench_build,
                           ["perfbench"], log))
            lost = run_all(repo_build, bench_build, cwd, log) if built else []
        if not built or lost:
            with open(log_path) as failed:
                sys.stderr.write("".join(failed.readlines()[-40:]))
            print("coverage_unused: " + ("build failed" if not built else
                  "no coverage from: " + ", ".join(lost)), file=sys.stderr)
            return 2
        measured = collect([repo_build, bench_build])
        with open(log_path, "a") as log:
            failed_tests = run_tests(repo_build, bench_build, log)
        if failed_tests:
            # Only the tests-only/nothing split depends on these runs.
            with open(log_path) as failed:
                sys.stderr.write("".join(failed.readlines()[-40:]))
            print("coverage_unused: failed: " + ", ".join(failed_tests) +
                  "; a function listed under 'nothing' may still be tested",
                  file=sys.stderr)
        tested_functions = collect([repo_build, bench_build])[1]
        unused = report(*measured, tested_functions)
    if unused:
        print("\nFAIL: no figure, dataplane section or perfbench workload "
              "executes " + ", ".join(unused))
        return 1
    print("\nOK: every src/ .cpp outside the keep list executes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
