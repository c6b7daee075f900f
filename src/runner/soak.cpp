#include "runner/soak.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>

#include "chaos/ha_harness.h"
#include "chaos/shrinker.h"
#include "chaos/tenant_isolation.h"
#include "runner/pool.h"

namespace tango::runner {

namespace {

/// printf into a std::string sized to fit — the narrative must match the
/// historical tool output byte for byte, so numbers keep their printf
/// formats.
template <typename... Args>
std::string format(const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  std::string s(n < 0 ? 0 : static_cast<std::size_t>(n), '\0');
  std::snprintf(s.data(), s.size() + 1, fmt, args...);
  return s;
}

std::string hex(std::uint64_t v) {
  return format("0x%016llx", static_cast<unsigned long long>(v));
}

/// Everything one sweep job produces; workers do no I/O and no
/// aggregation — both happen in run_sweep's job-ordered collector loop.
struct Job {
  std::uint64_t fingerprint = 0;
  std::uint64_t wall_ns = 0;
  /// Rendered oracle violations; empty for a clean run.
  std::vector<std::string> violations;
  /// The report row, short of the repro and wall_ms columns run_sweep adds.
  telemetry::RunReport::Row row;
  /// Console lines read "ok    <label><ok_note>" or "FAIL  <label>: ...".
  std::string label;
  std::string ok_note;
  /// Violating chaos runs only: the shrinker's summary line and the repro
  /// file (name relative to the sweep's out_dir, and contents).
  std::string shrink_note;
  std::string repro_name;
  std::string repro_json;
};

Job job_of(const chaos::RunResult& result) {
  Job job;
  job.fingerprint = result.fingerprint;
  job.wall_ns = result.wall_ns;
  for (const auto& v : result.violations) {
    job.violations.push_back(chaos::to_string(v));
  }
  return job;
}

/// Run `n` jobs on the pool and fold them, in job order, into one outcome:
/// the sweep fingerprint, report rows, console text, repro files written
/// into `out_dir` (none when empty), and the `<prefix>.*` results every
/// sweep reports. Family-specific results are the caller's to add.
SweepOutcome run_sweep(std::string name, const std::string& prefix,
                       std::uint64_t seed_lo, std::uint64_t seed_hi,
                       std::size_t n, const std::string& out_dir,
                       const SweepOptions& opt,
                       const std::function<Job(std::size_t)>& run_job) {
  SweepOutcome out(std::move(name));
  const auto begin = std::chrono::steady_clock::now();
  auto jobs = run_indexed(n, opt.workers, run_job);
  out.total_wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());

  double wall_ms_sum = 0;
  for (auto& job : jobs) {
    ++out.runs;
    chaos::fnv_fold(out.sweep_fingerprint, job.fingerprint);
    auto& row = out.report.add_row() = std::move(job.row);
    if (job.violations.empty()) {
      if (opt.verbose) out.text += "ok    " + job.label + job.ok_note + "\n";
    } else {
      ++out.violations;
      out.text += "FAIL  " + job.label + ": " +
                  std::to_string(job.violations.size()) + " violation(s)\n";
      for (const auto& v : job.violations) out.text += "      " + v + "\n";
      if (!job.shrink_note.empty()) {
        out.text += "      " + job.shrink_note + "\n";
      }
      if (!job.repro_name.empty() && !out_dir.empty()) {
        const std::string path = out_dir + "/" + job.repro_name;
        std::ofstream repro(path);
        if (repro) {
          repro << job.repro_json;
          ++out.repros_written;
          out.text += "      repro written to " + path + "\n";
          // Basename, not path: the repro sits next to the report, and the
          // report must stay byte-identical across output directories (the
          // nightly serial-vs-parallel spot-check diffs two different dirs).
          row.col("repro", job.repro_name);
        } else {
          out.errors += "chaos_soak: cannot write " + path + "\n";
        }
      }
    }
    if (opt.wall) {
      const double ms = static_cast<double>(job.wall_ns) / 1e6;
      wall_ms_sum += ms;
      row.col("wall_ms", ms);
    }
  }

  out.report.set_result(prefix + ".runs", static_cast<double>(out.runs));
  out.report.set_result(prefix + ".violations",
                        static_cast<double>(out.violations));
  out.report.set_result(prefix + ".seed_lo", static_cast<double>(seed_lo));
  out.report.set_result(prefix + ".seed_hi", static_cast<double>(seed_hi));
  out.report.set_result(prefix + ".sweep_fingerprint",
                        hex(out.sweep_fingerprint));
  if (opt.wall) {
    out.report.set_result(prefix + ".wall_ms", wall_ms_sum);
    out.report.set_result(prefix + ".sweep_wall_ms",
                          static_cast<double>(out.total_wall_ns) / 1e6);
  }
  return out;
}

struct GridJob {
  std::uint64_t seed = 0;
  chaos::Workload workload = chaos::Workload::kFig10;
  sched::RecoveryPolicy policy = sched::RecoveryPolicy::kRollForward;
};

/// Seed-major grid expansion — the row order of the serial tools.
std::vector<GridJob> expand_grid(const ChaosSweepConfig& cfg) {
  std::vector<GridJob> jobs;
  for (std::uint64_t seed = cfg.seed_lo; seed <= cfg.seed_hi; ++seed) {
    for (const auto workload : cfg.workloads) {
      for (const auto policy : cfg.policies) {
        jobs.push_back({seed, workload, policy});
      }
    }
  }
  return jobs;
}

std::string label_of(const GridJob& g) {
  return "seed " + std::to_string(g.seed) + " " +
         chaos::to_string(g.workload) + "/" + sched::to_string(g.policy);
}

/// Switch-fault run; a violating schedule is shrunk to its repro.
Job chaos_job(const ChaosSweepConfig& cfg, const GridJob& g) {
  chaos::ChaosSpec spec;
  spec.seed = g.seed;
  spec.workload = g.workload;
  spec.policy = g.policy;
  spec.horizon = cfg.horizon;
  spec.misbehavior = cfg.misbehavior;
  const auto schedule = chaos::generate_schedule(spec);
  auto result = chaos::run_chaos(schedule);
  const std::size_t events = schedule.events.size();
  Job job = job_of(result);
  job.row.col("seed", static_cast<double>(g.seed))
      .col("workload", chaos::to_string(g.workload))
      .col("policy", sched::to_string(g.policy))
      .col("events", static_cast<double>(events))
      .col("violations", static_cast<double>(job.violations.size()))
      .col("makespan_ns",
           static_cast<double>(result.report.exec.makespan.ns()));
  job.label = label_of(g);
  job.ok_note = format(" (%zu events, fp %s)", events,
                       hex(result.fingerprint).c_str());
  if (result.ok()) return job;

  chaos::ChaosSchedule minimal = schedule;
  if (cfg.shrink) {
    const auto shrunk = chaos::shrink_schedule(
        schedule, [](const chaos::ChaosSchedule& candidate) {
          return !chaos::run_chaos(candidate).ok();
        });
    minimal = shrunk.schedule;
    job.shrink_note = format("shrunk %zu -> %zu events in %zu probes", events,
                             minimal.events.size(), shrunk.probes);
    // Re-run the minimal schedule so the repro captures ITS fingerprint
    // and violations, not the original's.
    result = chaos::run_chaos(minimal);
  }
  job.repro_name =
      "chaos_repro_seed" + std::to_string(g.seed) + "_" +
      chaos::to_string(g.workload) + "_" +
      (g.policy == sched::RecoveryPolicy::kRollForward ? "fwd" : "back") +
      ".json";
  job.repro_json = chaos::to_repro_json(minimal, result.fingerprint,
                                        result.violation_names());
  return job;
}

}  // namespace

SweepOutcome run_chaos_sweep(const ChaosSweepConfig& cfg,
                             const SweepOptions& opt) {
  const auto grid = expand_grid(cfg);
  auto out = run_sweep("CHAOS_soak", "chaos", cfg.seed_lo, cfg.seed_hi,
                       grid.size(), cfg.out_dir, opt,
                       [&](std::size_t i) { return chaos_job(cfg, grid[i]); });
  out.report.set_result("chaos.repros_written",
                        static_cast<double>(out.repros_written));
  out.report.set_result("chaos.horizon", chaos::to_string(cfg.horizon));
  out.report.set_result("chaos.misbehavior", cfg.misbehavior ? 1.0 : 0.0);
  return out;
}

SweepOutcome run_ha_sweep(const ChaosSweepConfig& cfg,
                          const SweepOptions& opt) {
  const auto grid = expand_grid(cfg);
  // Per-run inputs of the ha.* totals, one slot per job.
  struct Tally {
    std::uint64_t failovers = 0;
    std::uint64_t stale_epoch_rejections = 0;
    double takeover_ms = 0;
    double replication_lag_ns = 0;
  };
  std::vector<Tally> tallies(grid.size());
  auto out = run_sweep(
      "HA_soak", "ha", cfg.seed_lo, cfg.seed_hi, grid.size(), "", opt,
      [&](std::size_t i) {
        const auto& g = grid[i];
        chaos::HaChaosSpec spec;
        spec.seed = g.seed;
        spec.workload = g.workload;
        spec.policy = g.policy;
        spec.horizon = cfg.horizon;
        spec.scenario = chaos::scenario_of(g.seed);
        const auto result = chaos::run_ha_chaos(spec);
        auto& t = tallies[i];
        for (const auto& rep : result.takeovers) {
          t.takeover_ms = std::max(t.takeover_ms, rep.takeover_ms);
        }
        t.replication_lag_ns =
            static_cast<double>(result.standby.max_replication_lag.ns());
        t.failovers = result.ha.failover_count;
        t.stale_epoch_rejections = result.stale_epoch_rejections;
        Job job = job_of(result);
        job.row.col("seed", static_cast<double>(g.seed))
            .col("workload", chaos::to_string(g.workload))
            .col("policy", sched::to_string(g.policy))
            .col("scenario", chaos::to_string(spec.scenario))
            .col("failovers", static_cast<double>(t.failovers))
            .col("takeover_ms", t.takeover_ms)
            .col("replication_lag_ns", t.replication_lag_ns)
            .col("stale_epoch_rejections",
                 static_cast<double>(t.stale_epoch_rejections))
            .col("violations", static_cast<double>(job.violations.size()));
        job.label = label_of(g) + " " + chaos::to_string(spec.scenario);
        job.ok_note = " (fp " + hex(result.fingerprint) + ")";
        return job;
      });

  Tally total;
  for (const auto& t : tallies) {
    total.failovers += t.failovers;
    total.stale_epoch_rejections += t.stale_epoch_rejections;
    total.takeover_ms = std::max(total.takeover_ms, t.takeover_ms);
    total.replication_lag_ns =
        std::max(total.replication_lag_ns, t.replication_lag_ns);
  }
  out.report.set_result("ha.failover_count",
                        static_cast<double>(total.failovers));
  out.report.set_result("ha.takeover_ms_max", total.takeover_ms);
  out.report.set_result("ha.replication_lag_ns_max", total.replication_lag_ns);
  out.report.set_result("ha.stale_epoch_rejections",
                        static_cast<double>(total.stale_epoch_rejections));
  out.report.set_result("ha.horizon", chaos::to_string(cfg.horizon));
  return out;
}

SweepOutcome run_service_sweep(const ServiceSweepConfig& cfg,
                               const SweepOptions& opt) {
  const std::size_t n =
      cfg.seed_hi >= cfg.seed_lo ? cfg.seed_hi - cfg.seed_lo + 1 : 0;
  std::vector<std::size_t> rollbacks(n);
  auto out = run_sweep(
      "SERVICE_soak", "service", cfg.seed_lo, cfg.seed_hi, n, "", opt,
      [&](std::size_t i) {
        chaos::TenantChaosSpec spec;
        spec.seed = cfg.seed_lo + i;
        spec.n_tenants = cfg.tenants;
        spec.intents_per_tenant = cfg.intents;
        spec.faults = cfg.faults;
        const auto result = chaos::run_tenant_chaos(spec);
        const auto& rep = result.report;
        rollbacks[i] = result.rollbacks;
        Job job = job_of(result);
        job.row.col("seed", static_cast<double>(spec.seed))
            .col("tenants", static_cast<double>(result.spec.n_tenants))
            .col("violations", static_cast<double>(job.violations.size()))
            .col("rollbacks", static_cast<double>(result.rollbacks))
            .col("fairness", rep.fairness_index)
            .col("max_concurrency", static_cast<double>(rep.max_concurrency))
            .col("makespan_ns", static_cast<double>(rep.makespan.ns()));
        job.label = "seed " + std::to_string(spec.seed);
        job.ok_note = format(
            ": %zu intents committed, %zu rollback(s), fairness %.3f, fp %s",
            rep.completed, result.rollbacks, rep.fairness_index,
            hex(result.fingerprint).c_str());
        return job;
      });

  out.rollback_runs = static_cast<std::size_t>(
      std::count_if(rollbacks.begin(), rollbacks.end(),
                    [](std::size_t r) { return r > 0; }));
  out.report.set_result("service.rollback_runs",
                        static_cast<double>(out.rollback_runs));
  out.report.set_result("service.tenants", static_cast<double>(cfg.tenants));
  out.report.set_result("service.faults", cfg.faults ? 1.0 : 0.0);
  return out;
}

}  // namespace tango::runner
