#!/usr/bin/env python3
"""End-to-end benchmark of the Tango controller library.

Builds perfbench_driver from the checkout's sources, runs one workload in a
closed loop for a fixed wall time, checks every op's output and prints the
metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md in this directory).

    python3 perfbench/run.py --workload te_update --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --workload chaos_recovery --record 600

--record N runs N ops on the default seed and stores their output digests
as the expected outputs later runs are compared against.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
EXPECTED = os.path.join(HERE, "expected")
DEFAULT_SEED = 1

WORKLOADS = ("te_update", "switch_inference", "chaos_recovery")

# End-to-end metrics: (name, unit). Each workload reports every one; the
# names below say what each one means on that workload.
E2E = (
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
E2E_NAMES = {
    "te_update": {"op_p50_ms": "update_p50_ms", "op_tail_ms": "update_tail_ms",
                  "work_per_s": "requests_per_s"},
    "switch_inference": {"op_p50_ms": "learn_p50_ms", "op_tail_ms": "learn_tail_ms",
                         "work_per_s": "probes_per_s"},
    "chaos_recovery": {"op_p50_ms": "chaos_run_p50_ms",
                       "op_tail_ms": "chaos_run_tail_ms",
                       "work_per_s": "chaos_runs_per_s"},
}

# Per-layer metrics: (name, unit). Per-op means over the traced ops unless
# the unit says otherwise; 0 where the workload leaves a layer idle.
PER_LAYER = (
    ("schedulers.order_ms", "ms/op"),
    ("schedulers.order_share", "ratio"),
    ("schedulers.rounds", "count/op"),
    ("schedulers.ready_mean", "count"),
    ("schedulers.ready_max", "count"),
    ("executor.self_ms", "ms/op"),
    ("executor.issued", "count/op"),
    ("executor.retries", "count/op"),
    ("executor.timeouts", "count/op"),
    ("executor.retry_share", "ratio"),
    ("transaction.begin_ms", "ms/op"),
    ("transaction.readbacks", "count/op"),
    ("transaction.readback_lost", "count/op"),
    ("transaction.reconciled_share", "ratio"),
    ("reconciler.rounds", "count/op"),
    ("reconciler.repairs", "count/op"),
    ("reconciler.stale_removed", "count/op"),
    ("sim.loop_ms", "ms/op"),
    ("sim.loop_share", "ratio"),
    ("net.ns_per_message", "ns"),
    ("net.messages", "count/op"),
    ("net.bytes", "bytes/op"),
    ("net.flow_mods", "count/op"),
    ("net.packets_out", "count/op"),
    ("net.crashes", "count/op"),
    ("net.partitions", "count/op"),
    ("net.frames_dropped", "count/op"),
    ("tango.self_ms", "ms/op"),
    ("tango.policy_rounds", "count/op"),
    ("tango.cost_learn_ms", "ms"),
    ("chaos.violations", "count/op"),
    ("chaos.schedule_ms", "ms"),
    ("workload.gen_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
)

# The tail is the highest percentile with at least this many inputs beyond
# it, but never above TAIL_MAX_PCT. The slowest 2% of chaos runs are host
# hiccups (one 24 ms run read 54 ms once in four); the p95 of the 600 chaos
# inputs lies inside the cluster of the slowest kinds of run.
TAIL_BEYOND = 10
TAIL_MAX_PCT = 95.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; returns False when that fails."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log(f"perfbench: build failed, see {logfile}")
                return False
    return True


def run_driver(workload, seed, seconds=None, ops=None, trace=False):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    cmd += ["--ops", str(ops)] if ops else ["--seconds", str(seconds)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          timeout=None if ops else seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_driver exited with {proc.returncode}")
    return json.loads(proc.stdout)


def expected_digests(workload):
    path = os.path.join(EXPECTED, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)["digests"]


def check_ops(workload, ops):
    """Failed ops: self-check errors, digests that differ from the recorded
    ones, and an input whose repeats disagree (nondeterminism)."""
    expected = expected_digests(workload)
    seen = {}
    failures = []
    for op in ops:
        key = op["key"]
        why = op["error"]
        if not why and key in expected and op["digest"] != expected[key]:
            why = f"digest {op['digest']} != recorded {expected[key]}"
        if not why and seen.setdefault(key, op["digest"]) != op["digest"]:
            why = f"digest {op['digest']} != {seen[key]} of an earlier repeat"
        if why:
            failures.append(f"op {op['index']} ({key}): {why}")
    return failures


def quantile(ordered, p, steps=8):
    """Harrell-Davis estimate of the p-quantile of sorted values: their mean
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each one's rank
    interval (midpoint rule, `steps` points per interval). The host runs a
    varying share of ops about a third faster; a single order statistic
    jumps between the two modes as that share crosses its rank, this
    estimate moves smoothly."""
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((i + (j + 0.5) / steps) / n
                      for i in range(n) for j in range(steps))]
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values):
    """(value, percentile, values beyond it) of the tail percentile."""
    ordered = sorted(values)
    n = len(ordered)
    k = min(n - 1 - TAIL_BEYOND, math.ceil(TAIL_MAX_PCT / 100 * n) - 1)
    if k < n // 2:  # too few for ten beyond a high percentile: the slowest
        return ordered[-1], 100.0, 0
    return quantile(ordered, (k + 1) / n), 100.0 * (k + 1) / n, n - 1 - k


def input_ns(ops):
    """Each input's time: the median over its repeats in the run. Chaos
    inputs repeat once per pass, on another CPU each time, so a CPU's slow
    spell or a hiccup does not become the input's time; te_update and
    switch_inference inputs never repeat."""
    repeats = {}
    for op in ops:
        repeats.setdefault(op["key"], []).append(op["ns"])
    return [statistics.median(ns) for ns in repeats.values()]


def e2e_metrics(data):
    ops = [op for op in data["ops"] if not op["traced"]]
    ns = input_ns(ops)
    tail_ns, tail_pct, beyond = tail(ns)
    values = {
        "op_p50_ms": quantile(sorted(ns), 0.5) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "work_per_s": (sum(op["work"] for op in ops)
                       / (sum(op["ns"] for op in ops) / 1e9)),
        "setup_s": statistics.median(data["setup_ns"]) / 1e9,
        "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
    }
    return values, (f"p{tail_pct:.1f} of {len(ns)} inputs in {len(ops)} ops, "
                    f"{beyond} beyond it")


def run_workload(workload, seed, seconds, trace):
    data = run_driver(workload, seed, seconds=seconds, trace=trace)
    failures = check_ops(workload, data["ops"])
    attempted = len(data["ops"])
    names = E2E_NAMES[workload]
    print(f"{workload}: seed {seed}, {attempted} ops in {seconds} s"
          f"{' (untraced/traced pairs)' if trace else ''}, {len(failures)} failed")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    if trace:
        metrics = {name: {"value": data["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        for name, m in metrics.items():
            print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    else:
        values, tail_note = e2e_metrics(data)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
        for name, unit in E2E:
            label = names.get(name, name)
            note = f"  ({tail_note})" if name == "op_tail_ms" else ""
            print(f"  {label:20s} {values[name]:14.6g} {unit}{note}")
        print(f"  {'failed_op_share':20s} {len(failures) / attempted:14.6g} "
              f"({len(failures)} of {attempted} ops)")
    if data["max_table_rules"]:
        print(f"  largest table left behind: {data['max_table_rules']} rules")
    return {"correct": not failures and attempted >= 1, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def record(workload, n):
    data = run_driver(workload, DEFAULT_SEED, ops=n)
    errors = [op for op in data["ops"] if op["error"]]
    if errors:
        log(f"perfbench: not recording, op {errors[0]['index']}: {errors[0]['error']}")
        return 1
    os.makedirs(EXPECTED, exist_ok=True)
    digests = {op["key"]: op["digest"] for op in data["ops"]}
    with open(os.path.join(EXPECTED, f"{workload}.json"), "w") as f:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, f, indent=0,
                  sort_keys=True)
        f.write("\n")
    log(f"perfbench: recorded {len(digests)} {workload} digests")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, metavar="N",
                        help="record expected outputs of N default-seed ops")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1
    if args.record:
        if args.workload == "all":
            parser.error("--record takes one workload")
        return record(args.workload, args.record)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if args.workload == "all":
        metrics = {}
        for w, r in results.items():
            for name, m in r["metrics"].items():
                metrics[f"{w}.{E2E_NAMES[w].get(name, name)}"] = m
            if not args.trace:
                metrics[f"{w}.failed_op_share"] = {
                    "value": r["failed"] / r["attempted"], "unit": "ratio"}
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": metrics}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
