#!/usr/bin/env python3
"""Diff BENCH_*.json run reports against checked-in baselines.

Reads tango.run_report.v1 files (see src/telemetry/run_report.h) and
compares their numeric `results` against a baseline copy of the same
report, with a relative tolerance band. Exit status is the CI gate.

Which metrics gate:

  * Keys starting with ``speedup_`` are machine-independent ratios
    (indexed implementation vs in-process reference). They gate by
    default as floors: current must be >= baseline * (1 - tolerance).
  * Keys starting with ``allocs_``, ``scaling_`` or ``share_`` are
    machine-independent costs (heap allocations per operation, wall-time
    ratios across problem sizes, layer shares) where lower is better. They
    gate by default as ceilings: current must be <= baseline * (1 + tolerance).
  * Absolute metrics (``*_ops_per_sec``, latencies, counts) vary with
    host load, so they are reported but do NOT gate unless
    ``--gate-absolute`` is passed (then they use the same lower band).
  * A gated key present in the baseline but missing from the current
    report fails; keys new in the current report are listed, pass, and
    remind you to refresh the baseline.

Usage:
  tools/bench_compare.py --baselines bench/baselines --tolerance 0.25 \
      build/bench/BENCH_micro_tables.json [more reports...]

Exits non-zero on the first report whose gated metrics regress.
"""

import argparse
import json
import os
import sys


def load_results(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "tango.run_report.v1":
        raise SystemExit(f"bench_compare: {path}: not a tango.run_report.v1 file")
    results = report.get("results", {})
    numeric = {k: v for k, v in results.items() if isinstance(v, (int, float))}
    return report.get("name", os.path.basename(path)), numeric


CEILING_PREFIXES = ("allocs_", "scaling_", "share_")


def is_ceiling(key):
    return key.startswith(CEILING_PREFIXES)


def is_gated(key, gate_absolute):
    return key.startswith("speedup_") or is_ceiling(key) or gate_absolute


def compare(name, current, baseline, tolerance, gate_absolute):
    failures = []
    rows = []
    for key in sorted(set(baseline) | set(current)):
        base = baseline.get(key)
        cur = current.get(key)
        gated = is_gated(key, gate_absolute)
        if base is None:
            rows.append((key, "-", f"{cur:.6g}", "-", "NEW (refresh baseline)"))
            continue
        if cur is None:
            status = "MISSING" if gated else "missing (ungated)"
            rows.append((key, f"{base:.6g}", "-", "-", status))
            if gated:
                failures.append(f"{key}: present in baseline, missing from current report")
            continue
        delta = (cur - base) / base if base != 0 else float("inf")
        if is_ceiling(key):
            bound = base * (1.0 + tolerance)
            within, relation, kind = cur <= bound, ">", "ceiling"
        else:
            bound = base * (1.0 - tolerance)
            within, relation, kind = cur >= bound, "<", "floor"
        if not gated:
            status = "info"
        elif within:
            status = "ok"
        else:
            status = "REGRESSION"
            failures.append(
                f"{key}: {cur:.6g} {relation} {kind} {bound:.6g} "
                f"(baseline {base:.6g}, tolerance {tolerance:.0%})")
        rows.append((key, f"{base:.6g}", f"{cur:.6g}", f"{delta:+.1%}", status))

    width = max(len(r[0]) for r in rows) if rows else 10
    print(f"== {name} (tolerance {tolerance:.0%}) ==")
    print(f"{'metric':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>8}  status")
    for key, base, cur, delta, status in rows:
        print(f"{key:<{width}}  {base:>12}  {cur:>12}  {delta:>8}  {status}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("reports", nargs="+", help="current BENCH_*.json files")
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory holding baseline copies (same file names)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative shortfall for gated metrics")
    ap.add_argument("--gate-absolute", action="store_true",
                    help="also gate absolute metrics (ops/sec etc.)")
    args = ap.parse_args()

    all_failures = []
    for path in args.reports:
        base_path = os.path.join(args.baselines, os.path.basename(path))
        if not os.path.exists(base_path):
            print(f"bench_compare: no baseline {base_path}; record one first",
                  file=sys.stderr)
            all_failures.append(f"{path}: missing baseline {base_path}")
            continue
        name, current = load_results(path)
        _, baseline = load_results(base_path)
        all_failures += compare(name, current, baseline,
                                args.tolerance, args.gate_absolute)

    if all_failures:
        print("\nbench_compare: FAIL", file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("\nbench_compare: OK")


if __name__ == "__main__":
    main()
