// The seed-sweep engine shared by the soak tool, the differential test
// layer, and the bench drivers.
//
// Each harness family expands its config into a job grid (identical to
// the loops the serial tools used to run) and adapts every run into one
// job record; one engine executes the jobs on runner::run_indexed — every
// job is a pure function building its own isolated world — and folds the
// records into a SweepOutcome *in job order*. The outcome
// carries everything the tools print or write: the RunReport (rows in
// grid order), the console narrative, and a sweep fingerprint folding
// every per-run fingerprint. None of it depends on the worker count:
// a sweep run with 1, 2, or 8 workers produces byte-identical JSON,
// byte-identical text, and the same sweep fingerprint — the property
// tests/test_runner.cpp enforces differentially.
//
// Wall-clock is the one deliberate exception: per-run wall_ms columns and
// the total-wall result key are nondeterministic by nature and therefore
// opt-in (SweepOptions::wall); the differential layer and the nightly
// serial-vs-parallel spot check keep it off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "chaos/schedule.h"
#include "telemetry/run_report.h"

namespace tango::runner {

struct SweepOptions {
  /// Pool width; 0 = runner::default_workers(), 1 = in-thread serial.
  std::size_t workers = 1;
  /// Surface per-run wall_ms columns and <prefix>.wall_ms results.
  bool wall = false;
  /// Include per-run "ok" lines in the narrative (FAIL lines are always
  /// included).
  bool verbose = false;
};

/// Grid config for the switch-fault chaos sweep and the controller-fault
/// (HA) sweep: seeds × workloads × policies, seed-major — the exact order
/// rows appear in the report.
struct ChaosSweepConfig {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 20;
  chaos::Horizon horizon = chaos::Horizon::kShort;
  std::vector<chaos::Workload> workloads = {
      chaos::Workload::kFig10, chaos::Workload::kTrafficEngineering,
      chaos::Workload::kAcl};
  std::vector<sched::RecoveryPolicy> policies = {
      sched::RecoveryPolicy::kRollForward, sched::RecoveryPolicy::kRollBack};
  bool misbehavior = false;
  /// Delta-debug violating schedules to minimal repro files (chaos only).
  bool shrink = true;
  /// Directory repro files land in; empty = don't write files.
  std::string out_dir = ".";
};

struct ServiceSweepConfig {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 20;
  std::uint32_t tenants = 3;
  std::uint32_t intents = 3;
  bool faults = true;
};

struct SweepOutcome {
  telemetry::RunReport report;
  /// Per-run console lines (ok/FAIL/shrunk/repro), job order, exactly the
  /// bytes the serial tools printed; tools fputs() it verbatim.
  std::string text;
  /// Abnormal-condition lines (unwritable repro files); tools print to
  /// stderr.
  std::string errors;
  std::size_t runs = 0;
  std::size_t violations = 0;
  std::size_t repros_written = 0;  // chaos sweep only
  std::size_t rollback_runs = 0;   // service sweep only
  /// FNV-1a fold of every per-run fingerprint in job order — one integer
  /// comparison proves two sweeps (e.g. serial vs parallel) identical.
  std::uint64_t sweep_fingerprint = chaos::kFnvOffsetBasis;
  /// Wall-clock of the whole sweep (around the pool), always measured.
  std::uint64_t total_wall_ns = 0;

  [[nodiscard]] bool ok() const { return violations == 0; }

  explicit SweepOutcome(std::string report_name)
      : report(std::move(report_name)) {}
};

/// Switch-side wire/misbehavior chaos sweep (report name CHAOS_soak).
SweepOutcome run_chaos_sweep(const ChaosSweepConfig& cfg,
                             const SweepOptions& opt);

/// Controller-fault sweep; scenario = seed % 5 (report name HA_soak).
SweepOutcome run_ha_sweep(const ChaosSweepConfig& cfg, const SweepOptions& opt);

/// Multi-tenant isolation sweep (report name SERVICE_soak).
SweepOutcome run_service_sweep(const ServiceSweepConfig& cfg,
                               const SweepOptions& opt);

}  // namespace tango::runner
