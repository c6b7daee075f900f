// Indexed-vs-reference table microbenchmark: times the production (indexed)
// Tcam / SoftwareTable / MicroflowCache against the pre-index linear-scan
// reference implementations (tests/reference_table.h) in one process, and
// records both absolute throughputs and the machine-independent speedup
// ratios in BENCH_micro_tables.json. Before timing each case it runs one
// short op sequence through both sides and exits 1 if any entries() order,
// returned id, shift count, lookup winner or victim differs. The speedup_*
// results are the CI perf gate (tools/bench_compare.py --tolerance 0.25
// against bench/baselines/BENCH_micro_tables.json); the *_ops_per_sec
// results are informational — they track the host, not the code.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "tables/cache_policy.h"
#include "tables/software_table.h"
#include "tables/tcam.h"
#include "tango/probe_engine.h"
#include "tests/reference_table.h"

namespace {

using namespace tango;
using tables::testing::ReferenceMicroflowCache;
using tables::testing::ReferenceSoftwareTable;
using tables::testing::ReferenceTcam;

/// Keep a value alive without letting the optimizer fold the computation.
template <typename T>
inline void keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

/// Best-of-3 time-budgeted throughput: runs `op` in small batches until the
/// budget elapses, three times, and keeps the fastest rate (robust against
/// background load on shared runners).
template <typename Op>
double ops_per_sec(Op&& op, double budget_s = 0.1) {
  using clock = std::chrono::steady_clock;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    op();  // warm caches outside the timed region
    std::size_t iters = 0;
    const auto start = clock::now();
    const auto deadline = start + std::chrono::duration_cast<clock::duration>(
                                      std::chrono::duration<double>(budget_s));
    auto now = start;
    while (now < deadline) {
      for (int i = 0; i < 4; ++i) {
        op();
        ++iters;
      }
      now = clock::now();
    }
    const double secs = std::chrono::duration<double>(now - start).count();
    if (secs > 0) best = std::max(best, static_cast<double>(iters) / secs);
  }
  return best;
}

tables::FlowEntry make_entry(std::uint32_t index, std::uint16_t priority) {
  tables::FlowEntry e;
  e.id = index;
  e.priority = priority;
  e.match = core::ProbeEngine::probe_match(index);
  e.attrs.insert_time = SimTime(static_cast<std::int64_t>(index) * 1000);
  e.attrs.last_use_time = SimTime(static_cast<std::int64_t>(index) * 1000);
  return e;
}

template <typename Table>
void fill(Table& t, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    t.insert(make_entry(static_cast<std::uint32_t>(i),
                        static_cast<std::uint16_t>(1000 + i)));
  }
}

/// Set when a pre-timing check finds production and reference differ.
bool g_differ = false;

/// One case's pre-timing comparison; prints each difference it finds.
struct Check {
  const char* what;
  std::size_t n;

  void same(bool equal, const char* result) const {
    if (equal) return;
    g_differ = true;
    std::printf("  %s n=%zu: production and reference %s differ\n", what, n, result);
  }

  template <typename Ref, typename Idx>
  void same_order(const Ref& ref, const Idx& idx) const {
    auto ids = [](const auto& entries) {
      std::vector<FlowId> out;
      for (const auto& e : entries) out.push_back(e.id);
      return out;
    };
    same(ids(ref.entries()) == ids(idx.entries()), "entries() orders");
  }

  /// Lookups of the packets installs() targets.
  template <typename Ref, typename Idx>
  void same_winners(Ref& ref, Idx& idx) const {
    for (const std::uint32_t index : {kCheckId, static_cast<std::uint32_t>(n / 2), 0u}) {
      const auto pkt = core::ProbeEngine::probe_packet(index);
      const tables::FlowEntry* a = ref.lookup(pkt);
      const tables::FlowEntry* b = idx.lookup(pkt);
      same(a == nullptr ? b == nullptr : b != nullptr && a->id == b->id, "lookup winners");
    }
  }

  static constexpr std::uint32_t kCheckId = 1u << 21;

  /// The check's installs: one above the fill, one tying the middle entry's
  /// match and priority (so a lookup runs the table's tie rule), and one
  /// below the fill under the bottom entry's match.
  [[nodiscard]] std::vector<tables::FlowEntry> installs() const {
    const auto mid = static_cast<std::uint32_t>(n / 2);
    auto tie = make_entry(kCheckId + 1, static_cast<std::uint16_t>(1000 + mid));
    tie.match = core::ProbeEngine::probe_match(mid);
    auto below = make_entry(kCheckId + 2, 1);
    below.match = core::ProbeEngine::probe_match(0);
    return {make_entry(kCheckId, 0xF000), tie, below};
  }
};

/// Installs, lookups, the victim when a policy is given, then the removal
/// of each install, through both TCAMs.
void check_tcam(const Check& check, ReferenceTcam& ref, tables::Tcam& idx,
                const tables::LexCachePolicy* policy = nullptr) {
  for (const auto& e : check.installs()) {
    const auto a = ref.insert(e);
    const auto b = idx.insert(e);
    check.same(a.accepted == b.accepted && a.shifts == b.shifts, "insert shifts");
  }
  check.same_winners(ref, idx);
  if (policy != nullptr) check.same(ref.victim_id(*policy) == idx.victim_id(), "victims");
  for (const auto& e : check.installs()) {
    const auto a = ref.erase(e.id);
    std::size_t shifts = 0;
    const auto b = idx.take(e.id, &shifts);
    check.same(a.removed == 1 && b && b->id == e.id && a.shifts == shifts,
               "removed ids or shifts");
  }
  check.same_order(ref, idx);
}

/// Installs, lookups, then the removal of each install, through both
/// software tables.
void check_soft(const Check& check, ReferenceSoftwareTable& ref, tables::SoftwareTable& idx) {
  for (const auto& e : check.installs()) {
    ref.insert(e);
    idx.insert(e);
  }
  check.same_winners(ref, idx);
  for (const auto& e : check.installs()) {
    const auto a = ref.erase(e.id);
    const auto b = idx.take(e.id);
    check.same(a && b && a->id == e.id && b->id == e.id, "removed ids");
  }
  check.same_order(ref, idx);
}

struct Pair {
  double ref = 0;
  double idx = 0;
  [[nodiscard]] double speedup() const { return ref > 0 ? idx / ref : 0; }
};

void record(bench::BenchReport& report, const std::string& what, std::size_t n,
            const Pair& p) {
  const std::string suffix = what + "_" + std::to_string(n);
  report.json().set_result("ref_" + suffix + "_ops_per_sec", p.ref);
  report.json().set_result("idx_" + suffix + "_ops_per_sec", p.idx);
  report.json().set_result("speedup_" + suffix, p.speedup());
  std::printf("  %-28s n=%-6zu ref %12.0f/s   idx %12.0f/s   speedup %8.1fx\n",
              what.c_str(), n, p.ref, p.idx, p.speedup());
}

Pair bench_tcam_lookup(std::size_t n) {
  ReferenceTcam ref({n + 16, tables::TcamMode::kSingleWide});
  tables::Tcam idx({n + 16, tables::TcamMode::kSingleWide});
  fill(ref, n);
  fill(idx, n);
  check_tcam({"tcam_lookup", n}, ref, idx);
  // probe 0 sits at the bottom of the physical array: the linear scan from
  // the top walks all n entries before finding it (its worst case).
  const auto pkt = core::ProbeEngine::probe_packet(0);
  Pair p;
  p.ref = ops_per_sec([&] { keep(ref.lookup(pkt)); });
  p.idx = ops_per_sec([&] { keep(idx.lookup(pkt)); });
  return p;
}

Pair bench_tcam_churn(std::size_t n) {
  // Append-above-all install followed by delete of the same rule — the
  // probe-engine hot path. The reference delete re-finds the id linearly.
  ReferenceTcam ref({n + 16, tables::TcamMode::kSingleWide});
  tables::Tcam idx({n + 16, tables::TcamMode::kSingleWide});
  fill(ref, n);
  fill(idx, n);
  check_tcam({"tcam_churn", n}, ref, idx);
  // 0xF000 stays above the fill priorities (1000..1000+n) for every n we
  // run, so the install really appends at the top instead of shifting the
  // middle of the array.
  std::uint32_t next = 1u << 20;
  Pair p;
  p.ref = ops_per_sec([&] {
    ref.insert(make_entry(next, 0xF000));
    ref.erase(next);
    ++next;
  });
  next = 1u << 20;
  p.idx = ops_per_sec([&] {
    idx.insert(make_entry(next, 0xF000));
    idx.take(next);
    ++next;
  });
  return p;
}

Pair bench_tcam_shift_churn(std::size_t n) {
  // Install below every rule, then delete it: the middle-of-table case,
  // where the install shifts all n residents up and the delete shifts them
  // back down.
  ReferenceTcam ref({n + 16, tables::TcamMode::kSingleWide});
  tables::Tcam idx({n + 16, tables::TcamMode::kSingleWide});
  fill(ref, n);
  fill(idx, n);
  check_tcam({"tcam_shift_churn", n}, ref, idx);
  std::uint32_t next = 1u << 20;
  Pair p;
  p.ref = ops_per_sec([&] {
    ref.insert(make_entry(next, 1));
    ref.erase(next);
    ++next;
  });
  next = 1u << 20;
  p.idx = ops_per_sec([&] {
    idx.insert(make_entry(next, 1));
    idx.take(next);
    ++next;
  });
  return p;
}

Pair bench_soft_erase_oldest(std::size_t n) {
  // Erase the oldest entry, then append a new one: the front of a long
  // software table leaves on every cycle, as under FIFO promotion.
  ReferenceSoftwareTable ref;
  tables::SoftwareTable idx;
  fill(ref, n);
  fill(idx, n);
  check_soft({"soft_erase_oldest", n}, ref, idx);
  std::uint32_t oldest = 0;
  Pair p;
  p.ref = ops_per_sec([&] {
    ref.erase(oldest);
    ref.insert(make_entry(static_cast<std::uint32_t>(oldest + n), 1000));
    ++oldest;
  });
  oldest = 0;
  p.idx = ops_per_sec([&] {
    idx.take(oldest);
    idx.insert(make_entry(static_cast<std::uint32_t>(oldest + n), 1000));
    ++oldest;
  });
  return p;
}

Pair bench_victim_select(std::size_t n) {
  const auto policy = tables::LexCachePolicy::lru();
  ReferenceTcam ref({n + 16, tables::TcamMode::kSingleWide});
  tables::Tcam idx({n + 16, tables::TcamMode::kSingleWide});
  fill(ref, n);
  idx.set_eviction_policy(&policy);
  fill(idx, n);
  check_tcam({"victim_select", n}, ref, idx, &policy);
  Pair p;
  p.ref = ops_per_sec([&] { keep(ref.victim_id(policy)); });
  p.idx = ops_per_sec([&] { keep(idx.victim_id()); });
  return p;
}

Pair bench_soft_lookup(std::size_t n) {
  ReferenceSoftwareTable ref;
  tables::SoftwareTable idx;
  fill(ref, n);
  fill(idx, n);
  check_soft({"soft_lookup", n}, ref, idx);
  const auto pkt = core::ProbeEngine::probe_packet(0);
  Pair p;
  p.ref = ops_per_sec([&] { keep(ref.lookup(pkt)); });
  p.idx = ops_per_sec([&] { keep(idx.lookup(pkt)); });
  return p;
}

Pair bench_microflow_invalidate(std::size_t n) {
  // Cache pre-loaded with n microflows spread over many rules; each cycle
  // installs 16 microflows for one hot rule and invalidates it. The
  // reference implementation sweeps the whole cache per invalidation.
  constexpr std::size_t kKeysPerCycle = 16;
  const FlowId hot_rule = 1u << 20;
  auto load = [&](auto& cache) {
    for (std::size_t i = 0; i < n; ++i) {
      cache.insert(core::ProbeEngine::probe_packet(static_cast<std::uint32_t>(i)),
                   /*source_rule=*/i / 8, of::output_to(2),
                   SimTime(static_cast<std::int64_t>(i)));
    }
  };
  ReferenceMicroflowCache ref(2 * n + 64);
  tables::MicroflowCache idx(2 * n + 64);
  load(ref);
  load(idx);
  auto hot_key = [&](std::size_t k) {
    return core::ProbeEngine::probe_packet(static_cast<std::uint32_t>(3 * n + k));
  };
  auto cycle = [&](auto& cache) {
    for (std::size_t k = 0; k < kKeysPerCycle; ++k) {
      cache.insert(hot_key(k), hot_rule, of::output_to(2), SimTime(1));
    }
    cache.invalidate_rule(hot_rule);
  };
  // Pre-timing check: every loaded and hot key hits the same rule on both
  // sides, and one cycle leaves both caches the same size.
  const Check check{"microflow_invalidate", n};
  for (std::size_t k = 0; k < kKeysPerCycle; ++k) {
    for (const auto& key : {core::ProbeEngine::probe_packet(static_cast<std::uint32_t>(k)),
                            hot_key(k)}) {
      const auto a = ref.lookup(key, SimTime(2));
      const auto b = idx.lookup(key, SimTime(2));
      check.same(a ? b && a->source_rule == b->source_rule : !b, "lookup winners");
    }
  }
  cycle(ref);
  cycle(idx);
  check.same(ref.size() == idx.size(), "sizes");
  Pair p;
  p.ref = ops_per_sec([&] { cycle(ref); });
  p.idx = ops_per_sec([&] { cycle(idx); });
  return p;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_micro_tables: indexed table core vs linear-scan reference",
      "table/data-structure scaling; observable behaviour is bit-identical "
      "(tests/test_table_diff.cpp), only the complexity changes");
  bench::BenchReport report("micro_tables");

  const std::vector<std::size_t> sizes = {1000, 10000, 50000};
  for (const std::size_t n : sizes) {
    record(report, "tcam_lookup", n, bench_tcam_lookup(n));
    record(report, "tcam_churn", n, bench_tcam_churn(n));
    record(report, "tcam_shift_churn", n, bench_tcam_shift_churn(n));
    record(report, "soft_erase_oldest", n, bench_soft_erase_oldest(n));
    record(report, "victim_select", n, bench_victim_select(n));
    record(report, "soft_lookup", n, bench_soft_lookup(n));
  }
  // The microflow cache sweep cost depends on cache size, not table size;
  // one representative size keeps the runtime bounded.
  record(report, "microflow_invalidate", 50000, bench_microflow_invalidate(50000));

  bench::print_footer();
  return g_differ ? 1 : 0;
}
