#!/usr/bin/env python3
"""Smoke test for bench/dataplane and scripts/check_perf_regression.py.

Runs the setups, fusion, async_sinks, chaos and scaling sections at smoke
scale in a scratch working directory and checks that:

  - each section creates exactly its own BENCH_dataplane/<section>.json and
    leaves every other section's file byte-identical;
  - every row carries exactly the fields the committed baseline's rows do;
  - the perf gate loads and passes the directory against itself, so a
    malformed file or a field the gate reads going missing fails here.

Usage: dataplane_smoke.py DATAPLANE_BINARY CHECK_PERF_REGRESSION_PY
"""

import json
import os
import subprocess
import sys
import tempfile

SECTIONS = [
    ["setups"],
    ["fusion"],
    ["async_sinks"],
    ["chaos"],
    ["scaling", "--parallelism", "1,2"],
]

SETUP_ROW = {"setup", "query", "seconds", "best_seconds", "records_per_sec"}
ROW_KEYS = {
    "setups": SETUP_ROW,
    "slowdown_factors": {"engine", "query", "factor"},
    "fusion": {
        "engine", "query", "native_seconds", "unfused_seconds",
        "fused_seconds", "unfused_factor", "fused_factor",
        "recovered_fraction",
    },
    "async_sinks": {
        "engine", "query", "records", "native_sync_seconds",
        "native_async_seconds", "beam_sync_seconds", "beam_async_seconds",
        "beam_sync_factor", "beam_async_factor", "native_speedup",
        "beam_speedup", "recovered_fraction",
    },
    "chaos": {
        "setup", "clean_ms", "faulted_ms", "faults_injected", "restarts",
        "replayed_records",
    },
    "scaling": {
        "setup", "query", "parallelism", "records_per_sec", "speedup",
        "efficiency", "slowdown",
    },
}
TOP_KEYS = {
    "setups": {
        "records", "runs", "broker_rtt_us", "setups", "slowdown_factors",
        "metrics",
    },
}


def snapshot(directory):
    if not os.path.isdir(directory):
        return {}
    files = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as f:
            files[name] = f.read()
    return files


def check_section(section, doc):
    expected_top = TOP_KEYS.get(section, {section})
    if set(doc) != expected_top:
        sys.exit(f"{section}.json: top-level keys {sorted(doc)}, "
                 f"expected {sorted(expected_top)}")
    for key, rows in doc.items():
        if key not in ROW_KEYS:
            continue
        if not rows:
            sys.exit(f"{section}.json: {key} has no rows")
        for row in rows:
            if set(row) != ROW_KEYS[key]:
                sys.exit(f"{section}.json: {key} row {row} does not have "
                         f"fields {sorted(ROW_KEYS[key])}")


def main():
    driver, gate = sys.argv[1], sys.argv[2]
    env = dict(os.environ, STREAMSHIM_RECORDS="500", STREAMSHIM_RUNS="1")
    with tempfile.TemporaryDirectory() as work:
        out_dir = os.path.join(work, "BENCH_dataplane")
        for args in SECTIONS:
            section = args[0]
            before = snapshot(out_dir)
            subprocess.run([driver] + args, cwd=work, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            after = snapshot(out_dir)
            own = section + ".json"
            if set(after) != set(before) | {own}:
                sys.exit(f"{section}: wrote {sorted(set(after) - set(before))}"
                         f", expected only {own}")
            for name, content in before.items():
                if name != own and after[name] != content:
                    sys.exit(f"{section}: modified {name}")
            with open(os.path.join(out_dir, own)) as f:
                check_section(section, json.load(f))
        subprocess.run([sys.executable, gate, out_dir, out_dir], check=True,
                       stdout=subprocess.DEVNULL)
    print("dataplane smoke passed")


if __name__ == "__main__":
    main()
