// Differential acceptance layer for the parallel seed-sweep engine: the
// same sweep config run with 1, 2, and 8 workers must produce
// byte-identical soak reports (the exact JSON the tools write),
// byte-identical console narratives, and the same sweep fingerprint —
// across all three harness families (chaos, HA, tenant isolation). Plus
// unit properties of the pool itself: index-ordered results regardless of
// completion order, and deterministic exception propagation.
//
// This test is also the ThreadSanitizer workload for the runner: it
// drives every harness through real concurrent workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "runner/pool.h"
#include "runner/soak.h"

namespace tango::runner {
namespace {

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Chaos runs log fault storms; keep test output clean like the tools.
    log::set_threshold(log::Level::kError);
    log::set_rate_limit(20);
  }
};

// ---------------------------------------------------------------------------
// Pool properties
// ---------------------------------------------------------------------------

TEST_F(RunnerTest, PoolReturnsResultsInIndexOrder) {
  // Early jobs sleep longest, so completion order is roughly reversed —
  // the output order must not care.
  const auto out = run_indexed(16, 8, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
    return i * 10;
  });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);
}

TEST_F(RunnerTest, PoolRunsEveryJobExactlyOnce) {
  std::atomic<std::uint64_t> sum{0};
  const auto out = run_indexed(100, 8, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
    return i;
  });
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(sum.load(), 4950u);
}

TEST_F(RunnerTest, PoolRethrowsLowestIndexedFailure) {
  // Jobs 3 and 7 throw; job 3's exception must surface regardless of
  // scheduling, and the healthy jobs must still have run.
  std::atomic<int> ran{0};
  try {
    run_indexed(10, 4, [&](std::size_t i) -> int {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::runtime_error("three");
      if (i == 7) throw std::runtime_error("seven");
      return static_cast<int>(i);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "three");
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST_F(RunnerTest, PoolSerialPathMatchesParallel) {
  const auto serial = run_indexed(9, 1, [](std::size_t i) { return i * i; });
  const auto parallel = run_indexed(9, 3, [](std::size_t i) { return i * i; });
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Differential sweeps: serial vs 2 vs 8 workers, byte for byte
// ---------------------------------------------------------------------------

void expect_identical(const SweepOutcome& a, const SweepOutcome& b,
                      const char* what) {
  EXPECT_EQ(a.report.to_json(), b.report.to_json()) << what;
  EXPECT_EQ(a.text, b.text) << what;
  EXPECT_EQ(a.sweep_fingerprint, b.sweep_fingerprint) << what;
  EXPECT_EQ(a.runs, b.runs) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
}

TEST_F(RunnerTest, ChaosSweepIsWorkerCountInvariant) {
  ChaosSweepConfig cfg;
  cfg.seed_lo = 1;
  cfg.seed_hi = 3;  // x 3 workloads x 2 policies = 18 runs
  cfg.out_dir.clear();
  SweepOptions serial;
  serial.workers = 1;
  serial.verbose = true;  // ok-lines carry fingerprints: compare them too
  const auto base = run_chaos_sweep(cfg, serial);
  EXPECT_EQ(base.runs, 18u);
  for (const std::size_t w : {2u, 8u}) {
    SweepOptions opt = serial;
    opt.workers = w;
    expect_identical(base, run_chaos_sweep(cfg, opt),
                     ("chaos workers=" + std::to_string(w)).c_str());
  }
}

TEST_F(RunnerTest, HaSweepIsWorkerCountInvariant) {
  ChaosSweepConfig cfg;
  cfg.seed_lo = 1;
  cfg.seed_hi = 5;  // seeds 1..5 cover all five failover scenarios
  cfg.workloads = {chaos::Workload::kFig10};
  cfg.out_dir.clear();
  SweepOptions serial;
  serial.workers = 1;
  serial.verbose = true;
  const auto base = run_ha_sweep(cfg, serial);
  EXPECT_EQ(base.runs, 10u);
  for (const std::size_t w : {2u, 8u}) {
    SweepOptions opt = serial;
    opt.workers = w;
    expect_identical(base, run_ha_sweep(cfg, opt),
                     ("ha workers=" + std::to_string(w)).c_str());
  }
}

TEST_F(RunnerTest, ServiceSweepIsWorkerCountInvariant) {
  ServiceSweepConfig cfg;
  cfg.seed_lo = 1;
  cfg.seed_hi = 8;
  cfg.tenants = 3;
  cfg.intents = 2;
  SweepOptions serial;
  serial.workers = 1;
  serial.verbose = true;
  const auto base = run_service_sweep(cfg, serial);
  EXPECT_EQ(base.runs, 8u);
  for (const std::size_t w : {2u, 8u}) {
    SweepOptions opt = serial;
    opt.workers = w;
    expect_identical(base, run_service_sweep(cfg, opt),
                     ("service workers=" + std::to_string(w)).c_str());
  }
}

// ---------------------------------------------------------------------------
// Recorded outputs: each CI grid's sweep fingerprint plus FNV-1a digests of
// the report JSON and the verbose console text, as recorded before the
// sweep engine and the harnesses were refactored. A refactor must keep
// every byte; a deliberate behaviour change re-records them.
// ---------------------------------------------------------------------------

std::uint64_t digest(const std::string& s) {
  std::uint64_t h = chaos::kFnvOffsetBasis;
  chaos::fnv_fold_str(h, s);
  return h;
}

struct Recorded {
  std::uint64_t sweep_fingerprint;
  std::uint64_t json_digest;
  std::uint64_t text_digest;
};

void expect_recorded(const SweepOutcome& out, const Recorded& want,
                     const char* what) {
  EXPECT_EQ(out.sweep_fingerprint, want.sweep_fingerprint) << what;
  EXPECT_EQ(digest(out.report.to_json()), want.json_digest) << what;
  EXPECT_EQ(digest(out.text), want.text_digest) << what;
}

TEST_F(RunnerTest, CiGridsMatchRecordedOutputs) {
  SweepOptions opt;
  opt.workers = 4;
  opt.verbose = true;

  ChaosSweepConfig chaos_cfg;
  chaos_cfg.seed_lo = 1;
  chaos_cfg.seed_hi = 3;
  chaos_cfg.out_dir.clear();
  expect_recorded(run_chaos_sweep(chaos_cfg, opt),
                  {0x52e9f1e15faca12bull, 0x02827ed5256919a9ull,
                   0x6f5ac967395ebb2dull}, "chaos short 1-3");
  chaos_cfg.misbehavior = true;
  expect_recorded(run_chaos_sweep(chaos_cfg, opt),
                  {0xe96783d44e573d3bull, 0x826617f5a0c8e07eull,
                   0xc0ae88438f3e57d4ull}, "misbehavior short 1-3");

  ChaosSweepConfig ha_cfg;
  ha_cfg.seed_lo = 1;
  ha_cfg.seed_hi = 5;
  ha_cfg.out_dir.clear();
  expect_recorded(run_ha_sweep(ha_cfg, opt),
                  {0x3e34109fec5786c6ull, 0x5b560c4d62535ddcull,
                   0xb6f30963a8304a18ull}, "ha short 1-5");

  ServiceSweepConfig service_cfg;
  expect_recorded(run_service_sweep(service_cfg, opt),
                  {0xdf7c6a9f4b102470ull, 0xaef3a92bc8145f0bull,
                   0x0a8d14f4ef1a123bull}, "service 1-20");
  service_cfg.seed_hi = 5;
  service_cfg.faults = false;
  expect_recorded(run_service_sweep(service_cfg, opt),
                  {0xc2e348e2fa49eb31ull, 0x75b2aeeb576da4e1ull,
                   0x35b26de06aa2e850ull}, "service 1-5 no faults");
}

TEST_F(RunnerTest, LongReproPathIsReportedWhole) {
  // Seed 4 acl/roll-back violates under misbehavior (a stale rule after a
  // stats freeze), so the sweep tries to write a repro; the directory does
  // not exist, and the error line must carry the whole 600-byte path.
  ChaosSweepConfig cfg;
  cfg.seed_lo = cfg.seed_hi = 4;
  cfg.workloads = {chaos::Workload::kAcl};
  cfg.policies = {sched::RecoveryPolicy::kRollBack};
  cfg.misbehavior = true;
  cfg.out_dir = std::string(600, 'x');
  const auto out = run_chaos_sweep(cfg, SweepOptions{});
  EXPECT_EQ(out.violations, 1u);
  EXPECT_EQ(out.errors, "chaos_soak: cannot write " + cfg.out_dir +
                            "/chaos_repro_seed4_acl_back.json\n");
}

// ---------------------------------------------------------------------------
// Wall-clock surfacing
// ---------------------------------------------------------------------------

TEST_F(RunnerTest, WallClockIsOptInAndOutsideTheFingerprint) {
  ChaosSweepConfig cfg;
  cfg.seed_lo = 1;
  cfg.seed_hi = 1;
  cfg.workloads = {chaos::Workload::kFig10};
  cfg.out_dir.clear();
  SweepOptions plain;
  plain.workers = 1;
  const auto base = run_chaos_sweep(cfg, plain);
  SweepOptions wall = plain;
  wall.wall = true;
  const auto timed = run_chaos_sweep(cfg, wall);
  // Same simulated behaviour…
  EXPECT_EQ(base.sweep_fingerprint, timed.sweep_fingerprint);
  // …but the timed report carries the extra columns/keys.
  const auto json = timed.report.to_json();
  EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"chaos.wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"chaos.sweep_wall_ms\""), std::string::npos);
  EXPECT_EQ(base.report.to_json().find("wall_ms"), std::string::npos);
  // And the sweep wall is measured whether or not it is reported.
  EXPECT_GT(base.total_wall_ns, 0u);
  EXPECT_GT(timed.total_wall_ns, 0u);
}

}  // namespace
}  // namespace tango::runner
