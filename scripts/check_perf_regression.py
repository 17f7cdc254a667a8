#!/usr/bin/env python3
"""Perf-regression gate over BENCH_dataplane/.

`bench/dataplane <section>` writes one file per section,
BENCH_dataplane/<section>.json. This script merges each directory's files
into one document and compares a fresh run against the committed baseline,
failing on regressions beyond the threshold (default 25%):

  - "setups" (dataplane setups): every (setup, query) records_per_sec.
  - "scaling" (dataplane scaling): every (setup, query, parallelism)
    records_per_sec. Gated only for keys present in BOTH directories, so a
    smoke sweep over a parallelism subset never fails spuriously; extra
    coverage on either side is reported as informational.
  - "async_sinks" (dataplane async_sinks): every (engine, query, mode)
    records_per_sec, where mode is one of native_sync / native_async /
    beam_sync / beam_async. Intersecting keys only, like "scaling" — the
    section may be absent or run at a different record count.
  - "sustained" (dataplane sustained): every (setup, query) row gates its
    max sustainable rate (max_rate, drop direction) and its event-time
    latency tail (p99_us, increase direction). Intersecting keys only — the
    sweep may be absent or run at a smoke scale.
    Sub-millisecond baseline p99 cells are scheduler-noise dominated and
    are reported informationally instead of gated.

Entries present only in the baseline "setups" section (coverage removed)
fail; entries present only in the current run (coverage added) pass — new
rows become gated once the baseline is regenerated and committed.

The "profile" section (dataplane profile) is gated absolutely, not against
the baseline: the armed cost-attribution profiler must stay inside its <2%
overhead budget, and every profiled setup must attribute non-zero time
(zero attribution means an engine's execution path fell off the unified
operator invoker) and no more than its threads' busy time (busy_ms).

The "fusion" and "chaos" sections are not gated; a malformed file in
either directory still fails the load.

Usage:
    check_perf_regression.py BASELINE_DIR CURRENT_DIR [--threshold 0.25]

Stdlib only.
"""

import argparse
import glob
import json
import os
import sys


def load_doc(directory):
    """Merges every <section>.json in `directory` into one document."""
    doc = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            section = json.load(f)
        clash = set(doc) & set(section)
        if clash:
            raise SystemExit(f"{path}: keys {sorted(clash)} already loaded")
        doc.update(section)
    return doc


def setups_rows(doc):
    rows = {}
    for entry in doc.get("setups", []):
        key = (entry["setup"], entry["query"])
        rows[key] = float(entry["records_per_sec"])
    return rows


def scaling_rows(doc):
    rows = {}
    for entry in doc.get("scaling", []):
        key = (entry["setup"], entry["query"], int(entry["parallelism"]))
        rows[key] = float(entry["records_per_sec"])
    return rows


def async_sinks_rows(doc):
    """(engine, query, mode) -> records_per_sec, derived from the per-mode
    execution seconds and the sweep's record count. Sub-millisecond cells
    (the low-output queries on the fastest paths) are scheduler-noise
    dominated and are excluded from gating on whichever side they occur."""
    rows = {}
    for entry in doc.get("async_sinks", []):
        records = float(entry.get("records", 0))
        for mode in ("native_sync", "native_async", "beam_sync", "beam_async"):
            seconds = float(entry.get(f"{mode}_seconds", 0))
            if records > 0 and seconds >= 1e-3:
                rows[(entry["engine"], entry["query"], mode)] = (
                    records / seconds
                )
    return rows


def sustained_rate_rows(doc):
    rows = {}
    for entry in doc.get("sustained", {}).get("rows", []):
        rate = float(entry.get("max_rate", 0.0))
        if rate > 0:
            rows[(entry["setup"], entry["query"])] = rate
    return rows


def sustained_p99_rows(doc):
    rows = {}
    for entry in doc.get("sustained", {}).get("rows", []):
        p99 = float(entry.get("p99_us", 0.0))
        if p99 > 0:
            rows[(entry["setup"], entry["query"])] = p99
    return rows


def gate_latency(label, baseline, current, threshold, noise_floor_us=1000.0):
    """Latency gate: higher is worse, so a fractional *increase* beyond the
    threshold fails. Cells whose baseline sits under the noise floor are
    informational only."""
    failures = []
    for key, base_us in sorted(baseline.items()):
        name = " / ".join(str(part) for part in key)
        if key not in current:
            print(f"  [skip] {label}: {name} (not in current run)")
            continue
        cur_us = current[key]
        if base_us < noise_floor_us:
            print(
                f"  [info] {label}: {name:40s} "
                f"{base_us:10.0f} -> {cur_us:10.0f} us (under noise floor)"
            )
            continue
        rise = cur_us / base_us - 1.0
        marker = "FAIL" if rise > threshold else "ok"
        print(
            f"  [{marker}] {label}: {name:40s} "
            f"{base_us:10.0f} -> {cur_us:10.0f} us ({rise:+.1%})"
        )
        if rise > threshold:
            failures.append(
                f"{label}: {name}: {base_us:.0f} -> {cur_us:.0f} us "
                f"({rise:.1%} rise > {threshold:.0%} allowed)"
            )
    for key in sorted(set(current) - set(baseline)):
        name = " / ".join(str(part) for part in key)
        print(f"  [new ] {label}: {name} (no baseline yet)")
    return failures


def profile_failures(doc, overhead_budget_pct):
    """Absolute gates on the dataplane profile section (when present): armed
    profiler overhead under budget, and per setup an attribution that is
    non-zero and within the profiled threads' busy time."""
    profile = doc.get("profile")
    if not profile:
        print("  [skip] profile: no profile section in current run")
        return []
    failures = []
    overhead = profile.get("overhead", {})
    pct = float(overhead.get("overhead_pct", 0.0))
    marker = "FAIL" if pct >= overhead_budget_pct else "ok"
    print(
        f"  [{marker}] profile: armed overhead {pct:+.2f}% "
        f"(budget < {overhead_budget_pct:.0f}%)"
    )
    if pct >= overhead_budget_pct:
        failures.append(
            f"profile: armed profiler overhead {pct:.2f}% "
            f">= {overhead_budget_pct:.0f}% budget"
        )
    for entry in profile.get("setups", []):
        attributed_ms = float(entry.get("attributed_ms", 0.0))
        if attributed_ms <= 0.0:
            failures.append(
                f"profile: {entry.get('setup', '?')} attributed no time "
                "(execution path off the unified invoker?)"
            )
        busy_ms = entry.get("busy_ms")
        if busy_ms is not None and attributed_ms > float(busy_ms):
            failures.append(
                f"profile: {entry.get('setup', '?')} attributed "
                f"{attributed_ms} ms > busy {busy_ms} ms"
            )
    return failures


def gate(label, baseline, current, threshold, missing_fails):
    """Compares one section; returns the list of failure strings."""
    failures = []
    for key, base_rps in sorted(baseline.items()):
        name = " / ".join(str(part) for part in key)
        if key not in current:
            if missing_fails:
                failures.append(f"{name}: missing from current run")
            else:
                print(f"  [skip] {label}: {name} (not in current run)")
            continue
        cur_rps = current[key]
        if base_rps <= 0:
            continue
        drop = 1.0 - cur_rps / base_rps
        marker = "FAIL" if drop > threshold else "ok"
        print(
            f"  [{marker}] {label}: {name:40s} "
            f"{base_rps:14.1f} -> {cur_rps:14.1f} rec/s ({-drop:+.1%})"
        )
        if drop > threshold:
            failures.append(
                f"{label}: {name}: {base_rps:.0f} -> {cur_rps:.0f} rec/s "
                f"({drop:.1%} drop > {threshold:.0%} allowed)"
            )

    for key in sorted(set(current) - set(baseline)):
        name = " / ".join(str(part) for part in key)
        print(f"  [new ] {label}: {name} (no baseline yet)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum allowed fractional drop in records_per_sec",
    )
    parser.add_argument(
        "--overhead-budget",
        type=float,
        default=2.0,
        help="maximum allowed armed-profiler overhead in percent",
    )
    args = parser.parse_args()

    baseline_doc = load_doc(args.baseline)
    current_doc = load_doc(args.current)

    baseline_setups = setups_rows(baseline_doc)
    if not baseline_setups:
        print("perf gate: baseline has no setups — nothing to compare")
        return 1

    failures = gate(
        "setups",
        baseline_setups,
        setups_rows(current_doc),
        args.threshold,
        missing_fails=True,
    )
    # The scaling sweep may cover a parallelism subset in CI smoke runs;
    # only intersecting keys gate.
    failures += gate(
        "scaling",
        scaling_rows(baseline_doc),
        scaling_rows(current_doc),
        args.threshold,
        missing_fails=False,
    )
    # Same intersecting-keys policy: the async sweep may run at a different
    # scale in CI (non-comparable rps) or be absent from older baselines.
    failures += gate(
        "async_sinks",
        async_sinks_rows(baseline_doc),
        async_sinks_rows(current_doc),
        args.threshold,
        missing_fails=False,
    )
    # Sustained-throughput knee and latency tail, intersecting keys only
    # (the open-loop sweep may be absent or run at smoke scale in CI).
    # The latency threshold is doubled relative to the rate threshold: a
    # p99 bucket step near the knee is coarser than a throughput delta.
    failures += gate(
        "sustained.max_rate",
        sustained_rate_rows(baseline_doc),
        sustained_rate_rows(current_doc),
        args.threshold,
        missing_fails=False,
    )
    failures += gate_latency(
        "sustained.p99",
        sustained_p99_rows(baseline_doc),
        sustained_p99_rows(current_doc),
        2.0 * args.threshold,
    )
    # Absolute budget, not baseline-relative: the profiler must stay cheap
    # no matter what the committed baseline says.
    failures += profile_failures(current_doc, args.overhead_budget)

    if failures:
        print(f"\nperf gate FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    gated = (
        len(baseline_setups)
        + len(set(scaling_rows(baseline_doc)) & set(scaling_rows(current_doc)))
        + len(
            set(async_sinks_rows(baseline_doc))
            & set(async_sinks_rows(current_doc))
        )
        + len(
            set(sustained_rate_rows(baseline_doc))
            & set(sustained_rate_rows(current_doc))
        )
    )
    print(f"\nperf gate passed: {gated} entries within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
