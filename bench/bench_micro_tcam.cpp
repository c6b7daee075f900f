// Google-benchmark microbenchmarks for the TCAM model: insertion at the
// three characteristic positions (append, middle, bottom), lookup, and the
// policy-cache eviction decision.
#include <benchmark/benchmark.h>

#include "tables/cache_policy.h"
#include "tables/tcam.h"
#include "tango/probe_engine.h"

namespace {

using namespace tango;

tables::FlowEntry make_entry(std::uint32_t index, std::uint16_t priority) {
  tables::FlowEntry e;
  e.id = index;
  e.priority = priority;
  e.match = core::ProbeEngine::probe_match(index);
  return e;
}

tables::Tcam filled_tcam(std::size_t n) {
  tables::Tcam t({n + 16, tables::TcamMode::kSingleWide});
  for (std::size_t i = 0; i < n; ++i) {
    t.insert(make_entry(static_cast<std::uint32_t>(i),
                        static_cast<std::uint16_t>(1000 + i)));
  }
  return t;
}

void BM_TcamInsertAppend(benchmark::State& state) {
  auto t = filled_tcam(static_cast<std::size_t>(state.range(0)));
  std::uint32_t next = 1 << 20;
  for (auto _ : state) {
    t.insert(make_entry(next, 0x7000));  // above all: append
    t.take(next);
    ++next;
  }
}
BENCHMARK(BM_TcamInsertAppend)->Arg(256)->Arg(2048);

void BM_TcamInsertBottom(benchmark::State& state) {
  auto t = filled_tcam(static_cast<std::size_t>(state.range(0)));
  std::uint32_t next = 1 << 20;
  for (auto _ : state) {
    t.insert(make_entry(next, 1));  // below all: full shift
    t.take(next);
    ++next;
  }
}
BENCHMARK(BM_TcamInsertBottom)->Arg(256)->Arg(2048);

void BM_TcamLookupHit(benchmark::State& state) {
  auto t = filled_tcam(static_cast<std::size_t>(state.range(0)));
  const auto pkt = core::ProbeEngine::probe_packet(0);  // lowest priority: worst case
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(pkt));
  }
}
BENCHMARK(BM_TcamLookupHit)->Arg(256)->Arg(2048);

void BM_PolicyVictimSelection(benchmark::State& state) {
  auto t = filled_tcam(static_cast<std::size_t>(state.range(0)));
  const auto policy = tables::LexCachePolicy::lru();
  std::vector<const tables::FlowEntry*> entries;
  for (const auto& e : t.entries()) entries.push_back(&e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.victim_index({entries.data(), entries.size()}));
  }
}
BENCHMARK(BM_PolicyVictimSelection)->Arg(256)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
