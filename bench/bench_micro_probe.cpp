// Probe round-trip microbenchmark: the heap allocations and wall time of one
// Network::probe (PACKET_OUT down, the data-plane trip, a PACKET_IN on a
// miss, and the completion notice back).
//
// It installs 400 probe rules on an LRU-100 policy cache and sends 100,000
// probes drawn from 500 indices, so a probe hits the cache, hits the
// software table behind it, or misses and comes back as a PACKET_IN. The run
// happens on a plain network and on a twin whose channel carries a
// zero-rate fault injector. Both carry every frame and notice in the
// channel's pooled slots; the twin differs only by drawing each one's fate,
// and no fault fires. Global operator new/delete are replaced with counting
// versions. The bench exits 1 if any probe outcome, RTT or channel stat
// differs between the twins, or if the twin allocates more than the plain
// network (drawing a fate allocates nothing), and writes
// BENCH_micro_probe.json:
//
//   allocs_per_probe, allocs_per_probe_injector  heap allocations per probe
//   ns_per_probe_plain, ns_per_probe_injector    best-of-3 wall time per probe
//   speedup_probe                                injector time / plain time
//
// CI gates allocs_* as ceilings and speedup_* as a floor
// (tools/bench_compare.py --tolerance 0.5 against
// bench/baselines/BENCH_micro_probe.json); the ns_* results are
// informational — they track the host, not the code.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "net/network.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"

namespace {

/// Global operator new calls so far (the bench is single-threaded).
std::size_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace tango;

constexpr std::uint32_t kRules = 400;
constexpr std::uint32_t kIndices = 500;
constexpr std::size_t kProbes = 100000;
constexpr int kReps = 3;

struct Run {
  std::vector<net::Network::ProbeResult> results;
  net::ChannelStats stats;
  std::size_t allocs = 0;
  double ns = 0;
};

/// One twin: a fresh network with the rules installed, then the timed
/// probes. Only the probe loop is counted and timed.
Run run(bool injector, const std::vector<std::uint32_t>& order) {
  net::Network net;
  const SwitchId id = net.add_switch(switchsim::profiles::policy_cache(
      "lru-100", {100}, tables::LexCachePolicy::lru()));
  if (injector) net.enable_faults(id, net::FaultConfig{});
  core::ProbeEngine engine(net, id);
  for (std::uint32_t i = 0; i < kRules; ++i) engine.install(i);
  net.barrier_sync(id);
  std::vector<of::PacketHeader> headers;
  for (std::uint32_t i = 0; i < kIndices; ++i) {
    headers.push_back(core::ProbeEngine::probe_packet(i));
  }

  Run out;
  out.results.reserve(order.size());
  const std::size_t allocs_before = g_allocs;
  const auto start = std::chrono::steady_clock::now();
  for (const std::uint32_t i : order) {
    out.results.push_back(net.probe(id, headers[i]));
  }
  out.ns = std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
               .count();
  out.allocs = g_allocs - allocs_before;
  out.stats = net.stats(id);
  return out;
}

bool same_run(const Run& a, const Run& b) {
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    if (x.outcome.kind != y.outcome.kind || x.outcome.level != y.outcome.level ||
        x.outcome.delay != y.outcome.delay ||
        x.outcome.out_port != y.outcome.out_port || x.rtt != y.rtt ||
        x.lost != y.lost) {
      std::printf("  probe %zu differs between the twins\n", i);
      return false;
    }
  }
  const auto& s = a.stats;
  const auto& t = b.stats;
  if (s.messages_to_switch != t.messages_to_switch ||
      s.bytes_to_switch != t.bytes_to_switch ||
      s.messages_to_controller != t.messages_to_controller ||
      s.bytes_to_controller != t.bytes_to_controller ||
      s.flow_mods != t.flow_mods || s.packets_out != t.packets_out) {
    std::printf("  channel stats differ between the twins\n");
    return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_micro_probe: Network::probe round trip, plain vs zero-rate"
      " injector",
      "probe outcomes identical on both twins (tests/test_fault_injection.cpp"
      " ChannelPathDiff); the injector twin only draws fates");
  Rng rng(7);
  std::vector<std::uint32_t> order(kProbes);
  for (auto& i : order) i = static_cast<std::uint32_t>(rng.index(kIndices));

  bool same = true;
  Run plain;
  Run injector;
  double best_plain = 0;
  double best_injector = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    // Alternate which twin runs first so a slow spell of the host hits both.
    if (rep % 2 == 0) {
      plain = run(false, order);
      injector = run(true, order);
    } else {
      injector = run(true, order);
      plain = run(false, order);
    }
    same = same_run(plain, injector) && same;
    if (rep == 0 || plain.ns < best_plain) best_plain = plain.ns;
    if (rep == 0 || injector.ns < best_injector) best_injector = injector.ns;
  }

  std::size_t misses = 0;
  for (const auto& r : plain.results) {
    if (r.outcome.kind == switchsim::ForwardOutcome::Kind::kToController) {
      ++misses;
    }
  }
  const double n = static_cast<double>(kProbes);
  const double allocs_plain = static_cast<double>(plain.allocs) / n;
  const double allocs_injector = static_cast<double>(injector.allocs) / n;
  const double speedup = best_plain > 0 ? best_injector / best_plain : 0;

  bench::BenchReport report("micro_probe");
  auto& json = report.json();
  json.set_result("probes", n);
  json.set_result("probe_misses", static_cast<double>(misses));
  json.set_result("allocs_per_probe", allocs_plain);
  json.set_result("allocs_per_probe_injector", allocs_injector);
  json.set_result("ns_per_probe_plain", best_plain / n);
  json.set_result("ns_per_probe_injector", best_injector / n);
  json.set_result("speedup_probe", speedup);
  std::printf("  %zu probes over %u indices (%zu misses), %u rules on LRU-100\n",
              kProbes, kIndices, misses, kRules);
  std::printf("  plain     %6.2f allocs/probe  %7.1f ns/probe\n",
              allocs_plain, best_plain / n);
  std::printf("  injector  %6.2f allocs/probe  %7.1f ns/probe\n",
              allocs_injector, best_injector / n);
  std::printf("  speedup   %6.2fx\n", speedup);
  if (!same) std::printf("  FAIL: the twins disagree\n");
  const bool lean = injector.allocs <= plain.allocs;
  if (!lean) std::printf("  FAIL: drawing fates allocates\n");
  bench::print_footer();
  return same && lean ? 0 : 1;
}
