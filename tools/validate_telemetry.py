#!/usr/bin/env python3
"""Validate telemetry artifacts emitted by the benches.

Checks two things, with stdlib json only:

  1. A run report (BENCH_<name>.json) parses, carries the
     tango.run_report.v1 schema, and has every required top-level key.

  2. Optionally, a Chrome trace (BENCH_<name>.trace.json) parses, has
     well-formed trace events, and — when the report carries a
     trace_makespan_ns result — the per-switch lanes *reconstruct* that
     makespan: the latest end of any executor request span across the
     switch lanes, relative to the start of the controller's execute span,
     must equal the execute span's duration and the reported makespan.

A soak sweep report (CHAOS_soak.json, HA_soak.json or SERVICE_soak.json
from tools/chaos_soak) is additionally validated as a sweep, chosen by the
report's name: the <family>.* result keys must be present and consistent
with the per-run rows (run and violation counts, seed range, fingerprint
format, opt-in wall fields), plus each family's own checks — every
violating chaos run references its repro file, HA totals (failover counts,
takeover latency, replication lag, stale-epoch rejections) match the rows,
and the service rollback-run count matches the rows.

Usage:
  tools/validate_telemetry.py BENCH_fig10_network_wide.json \
      [BENCH_fig10_network_wide.trace.json]
  tools/validate_telemetry.py CHAOS_soak.json

Exits non-zero with a message on the first violation.
"""

import json
import sys

REPORT_SCHEMA = "tango.run_report.v1"
REPORT_KEYS = [
    "schema", "name", "results", "rows",
    "counters", "gauges", "histograms", "spans",
]
# Sim-time in the trace is microseconds with ns precision (3 decimals);
# allow one ns of slack per comparison.
EPS_US = 0.002


def fail(msg):
    print(f"validate_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_report(path):
    with open(path) as f:
        report = json.load(f)
    for key in REPORT_KEYS:
        if key not in report:
            fail(f"{path}: missing top-level key {key!r}")
    if report["schema"] != REPORT_SCHEMA:
        fail(f"{path}: schema {report['schema']!r} != {REPORT_SCHEMA!r}")
    for name, value in report["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} is not a non-negative integer")
    for name, h in report["histograms"].items():
        if len(h["counts"]) != len(h["bounds"]) + 1:
            fail(f"{path}: histogram {name!r}: counts/bounds length mismatch")
        if sum(h["counts"]) != h["count"]:
            fail(f"{path}: histogram {name!r}: bucket counts do not sum to count")
    for span in report["spans"]:
        for key in ("cat", "name", "lane", "begin_ns", "dur_ns"):
            if key not in span:
                fail(f"{path}: span missing key {key!r}")
    print(f"  report ok: {path} ({len(report['rows'])} rows, "
          f"{len(report['counters'])} counters, {len(report['spans'])} spans)")
    return report


def validate_trace(path, report):
    with open(path) as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")
    for ev in events:
        for key in ("ph", "pid", "tid", "name"):
            if key not in ev:
                fail(f"{path}: event missing key {key!r}: {ev}")
        if ev["ph"] == "X" and "dur" not in ev:
            fail(f"{path}: complete span missing dur: {ev}")

    lanes = {ev["args"]["name"]: ev["tid"] for ev in events
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    if 0 not in lanes.values():
        fail(f"{path}: no controller lane (tid 0) metadata")
    switch_lanes = {tid for tid in lanes.values() if tid != 0}
    if not switch_lanes:
        fail(f"{path}: no per-switch lanes")

    execute = [ev for ev in events
               if ev["ph"] == "X" and ev["name"] == "execute" and ev["tid"] == 0]
    if not execute:
        fail(f"{path}: no executor 'execute' span on the controller lane")
    run = execute[-1]

    # Reconstruct the makespan from the switch lanes alone: the last end of
    # any request span, measured from the execute span's start.
    requests = [ev for ev in events
                if ev["ph"] == "X" and ev["name"] == "request"
                and ev["tid"] in switch_lanes
                and ev["ts"] + ev["dur"] >= run["ts"] - EPS_US]
    if not requests:
        fail(f"{path}: no per-switch request spans inside the execute span")
    last_end = max(ev["ts"] + ev["dur"] for ev in requests)
    reconstructed_us = last_end - run["ts"]
    if abs(reconstructed_us - run["dur"]) > EPS_US:
        fail(f"{path}: per-switch lanes reconstruct {reconstructed_us:.3f} us "
             f"but the execute span reports {run['dur']:.3f} us")

    reported_ns = report.get("results", {}).get("trace_makespan_ns")
    if reported_ns is not None:
        if abs(reconstructed_us - reported_ns / 1e3) > EPS_US:
            fail(f"{path}: reconstructed makespan {reconstructed_us:.3f} us "
                 f"!= reported trace_makespan_ns {reported_ns / 1e3:.3f} us")
    print(f"  trace ok: {path} ({len(events)} events, "
          f"{len(switch_lanes)} switch lanes, "
          f"makespan {reconstructed_us / 1e6:.6f} s reconstructed)")


SWEEP_RESULT_KEYS = ["runs", "violations", "seed_lo", "seed_hi",
                     "sweep_fingerprint"]
SWEEP_ROW_KEYS = ["seed", "violations"]
CHAOS_WORKLOADS = {"fig10", "te", "acl"}
CHAOS_POLICIES = {"roll-forward", "roll-back"}
CHAOS_HORIZONS = {"short", "medium", "long"}
HA_SCENARIOS = {"controller_crash", "controller_partition", "replication_loss",
                "crash_during_takeover", "crash_after_commit"}


def validate_fingerprint(path, results, key):
    fp = results[key]
    if not (isinstance(fp, str) and fp.startswith("0x") and len(fp) == 18):
        fail(f"{path}: {key} {fp!r} is not a 0x-prefixed 64-bit hex string")


def validate_wall(path, results, rows, prefix):
    """Opt-in wall-clock surfacing (--wall): when any wall field is present,
    the whole family must be, and every value must be a sane duration.
    These feed tools/bench_compare.py speedup gates, so garbage here would
    silently disarm a perf regression check."""
    keys = [f"{prefix}.wall_ms", f"{prefix}.sweep_wall_ms"]
    present = [k for k in keys if k in results]
    row_wall = any("wall_ms" in row for row in rows)
    if not present and not row_wall:
        return
    for key in keys:
        if key not in results:
            fail(f"{path}: wall-clock reporting is partial: missing {key!r}")
    for key in keys:
        if not isinstance(results[key], (int, float)) or results[key] < 0:
            fail(f"{path}: {key} is not a non-negative number")
    for i, row in enumerate(rows):
        if "wall_ms" not in row:
            fail(f"{path}: row {i}: missing wall_ms while sweep reports wall")
        if row["wall_ms"] < 0:
            fail(f"{path}: row {i}: negative wall_ms")
    speedup = results.get("speedup_parallel")
    if speedup is not None and (not isinstance(speedup, (int, float))
                                or speedup <= 0):
        fail(f"{path}: speedup_parallel must be a positive number")


def check_grid_row(path, i, row):
    if row["workload"] not in CHAOS_WORKLOADS:
        fail(f"{path}: row {i}: workload {row['workload']!r} invalid")
    if row["policy"] not in CHAOS_POLICIES:
        fail(f"{path}: row {i}: policy {row['policy']!r} invalid")


def check_horizon(path, results, prefix):
    if results[f"{prefix}.horizon"] not in CHAOS_HORIZONS:
        fail(f"{path}: {prefix}.horizon {results[prefix + '.horizon']!r} "
             "invalid")


def check_chaos(path, results, rows):
    check_horizon(path, results, "chaos")
    for i, row in enumerate(rows):
        check_grid_row(path, i, row)
        if row["makespan_ns"] < 0:
            fail(f"{path}: row {i}: negative count")
        if row["violations"] > 0 and "repro" not in row:
            fail(f"{path}: row {i}: violating run has no repro reference")
    return f"horizon {results['chaos.horizon']}"


def check_ha(path, results, rows):
    check_horizon(path, results, "ha")
    failovers = 0
    rejections = 0
    takeover_ms_max = 0.0
    lag_ns_max = 0.0
    for i, row in enumerate(rows):
        check_grid_row(path, i, row)
        if row["scenario"] not in HA_SCENARIOS:
            fail(f"{path}: row {i}: scenario {row['scenario']!r} invalid")
        for key in ("failovers", "takeover_ms", "replication_lag_ns",
                    "stale_epoch_rejections"):
            if row[key] < 0:
                fail(f"{path}: row {i}: negative {key}")
        # A scenario run that held its oracles always failed over at least
        # once (double failover counts twice).
        expected = 2 if row["scenario"] == "crash_during_takeover" else 1
        if row["violations"] == 0 and row["failovers"] != expected:
            fail(f"{path}: row {i}: clean {row['scenario']} run has "
                 f"{row['failovers']} failovers, expected {expected}")
        failovers += row["failovers"]
        rejections += row["stale_epoch_rejections"]
        takeover_ms_max = max(takeover_ms_max, row["takeover_ms"])
        lag_ns_max = max(lag_ns_max, row["replication_lag_ns"])
    if results["ha.failover_count"] != failovers:
        fail(f"{path}: ha.failover_count {results['ha.failover_count']} != "
             f"{failovers} summed from rows")
    if results["ha.stale_epoch_rejections"] != rejections:
        fail(f"{path}: ha.stale_epoch_rejections "
             f"{results['ha.stale_epoch_rejections']} != {rejections} summed")
    if abs(results["ha.takeover_ms_max"] - takeover_ms_max) > 1e-6:
        fail(f"{path}: ha.takeover_ms_max {results['ha.takeover_ms_max']} != "
             f"{takeover_ms_max} from rows")
    if abs(results["ha.replication_lag_ns_max"] - lag_ns_max) > 1e-6:
        fail(f"{path}: ha.replication_lag_ns_max "
             f"{results['ha.replication_lag_ns_max']} != {lag_ns_max} from rows")
    return f"{failovers} failovers, max takeover {takeover_ms_max:.3f} ms"


def check_service(path, results, rows):
    rollback_runs = 0
    for i, row in enumerate(rows):
        for key in ("tenants", "rollbacks", "fairness", "max_concurrency",
                    "makespan_ns"):
            if row[key] < 0:
                fail(f"{path}: row {i}: negative {key}")
        rollback_runs += 1 if row["rollbacks"] > 0 else 0
    if results["service.rollback_runs"] != rollback_runs:
        fail(f"{path}: service.rollback_runs "
             f"{results['service.rollback_runs']} != {rollback_runs} rows "
             "with rollbacks")
    if results["service.faults"] not in (0, 1):
        fail(f"{path}: service.faults {results['service.faults']!r} invalid")
    return f"{rollback_runs} exercised a rollback"


# Report name -> (result-key prefix, extra result keys, extra row keys,
# family check returning a summary for the OK line).
SWEEPS = {
    "CHAOS_soak": ("chaos", ["repros_written", "horizon"],
                   ["workload", "policy", "events", "makespan_ns"],
                   check_chaos),
    "HA_soak": ("ha", ["failover_count", "takeover_ms_max",
                       "replication_lag_ns_max", "stale_epoch_rejections",
                       "horizon"],
                ["workload", "policy", "scenario", "failovers", "takeover_ms",
                 "replication_lag_ns", "stale_epoch_rejections"],
                check_ha),
    "SERVICE_soak": ("service", ["rollback_runs", "tenants", "faults"],
                     ["tenants", "rollbacks", "fairness", "max_concurrency",
                      "makespan_ns"],
                     check_service),
}


def validate_sweep(path, report):
    """Checks shared by every soak sweep report, then its family's own."""
    prefix, result_keys, row_keys, check = SWEEPS[report["name"]]
    results = report["results"]
    for key in SWEEP_RESULT_KEYS + result_keys:
        if f"{prefix}.{key}" not in results:
            fail(f"{path}: missing {prefix} result key {prefix + '.' + key!r}")
    seed_lo = results[f"{prefix}.seed_lo"]
    seed_hi = results[f"{prefix}.seed_hi"]
    if seed_lo > seed_hi:
        fail(f"{path}: {prefix}.seed_lo > {prefix}.seed_hi")

    rows = report["rows"]
    if results[f"{prefix}.runs"] != len(rows):
        fail(f"{path}: {prefix}.runs {results[prefix + '.runs']} != "
             f"{len(rows)} rows")
    violating = 0
    for i, row in enumerate(rows):
        for key in SWEEP_ROW_KEYS + row_keys:
            if key not in row:
                fail(f"{path}: row {i}: missing key {key!r}")
        if not seed_lo <= row["seed"] <= seed_hi:
            fail(f"{path}: row {i}: seed {row['seed']} outside sweep range")
        if row["violations"] < 0:
            fail(f"{path}: row {i}: negative violations")
        violating += 1 if row["violations"] > 0 else 0
    if results[f"{prefix}.violations"] != violating:
        fail(f"{path}: {prefix}.violations "
             f"{results[prefix + '.violations']} != {violating} rows with "
             "violations")
    validate_fingerprint(path, results, f"{prefix}.sweep_fingerprint")
    validate_wall(path, results, rows, prefix)
    summary = check(path, results, rows)
    print(f"  {prefix} ok: {path} ({len(rows)} runs, {violating} with "
          f"violations, {summary})")


def main(argv):
    args = argv[1:]
    if len(args) < 1 or len(args) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    report = validate_report(args[0])
    if report["name"] in SWEEPS:
        validate_sweep(args[0], report)
    if len(args) == 2:
        validate_trace(args[1], report)
    print("validate_telemetry: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
