// Edge-case batch across modules: executor flow control extremes, policy
// total-order consistency, framing under coalescing, wire-size accounting
// for the extended message set, and channel-latency effects.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/network.h"
#include "openflow/codec.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"

namespace tango {
namespace {

namespace profiles = switchsim::profiles;
using core::ProbeEngine;

TEST(ExecutorEdge, WindowOfOneStillCompletesAndOrders) {
  net::Network net;
  const auto s1 = net.add_switch(profiles::switch1());
  sched::RequestDag dag;
  std::vector<std::size_t> chain;
  for (std::uint32_t i = 0; i < 20; ++i) {
    sched::SwitchRequest r;
    r.location = s1;
    r.type = sched::RequestType::kAdd;
    r.priority = static_cast<std::uint16_t>(100 + i);
    r.match = ProbeEngine::probe_match(i);
    r.actions = of::output_to(2);
    const auto id = dag.add(r);
    if (!chain.empty()) dag.add_dependency(chain.back(), id);
    chain.push_back(id);
  }
  sched::DionysusScheduler sched;
  sched::ExecutorOptions options;
  options.per_switch_window = 1;
  const auto report = sched::execute(net, dag, sched, options);
  EXPECT_EQ(report.issued, 20u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(net.sw(s1).total_rules(), 21u);  // + default route
}

TEST(ExecutorEdge, EmptyDagIsANoop) {
  net::Network net;
  net.add_switch(profiles::ovs());
  sched::RequestDag dag;
  sched::DionysusScheduler sched;
  const auto report = sched::execute(net, dag, sched);
  EXPECT_EQ(report.issued, 0u);
  EXPECT_EQ(report.makespan.ns(), 0);
}

TEST(ExecutorEdge, CyclicDagFailsEveryRequestUnsent) {
  // A cycle never drains. A ready root in front of one must not reach the
  // scheduler (Dionysus's depth pass would recurse forever), and a bare
  // cycle must not end with requests neither sent nor failed.
  for (const bool behind_root : {false, true}) {
    for (const bool use_tango : {false, true}) {
      for (const bool async : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "behind_root=" << behind_root
                     << " tango=" << use_tango << " async=" << async);
        net::Network net;
        const auto s1 = net.add_switch(profiles::switch1());
        sched::RequestDag dag;
        auto add = [&](std::uint32_t i) {
          sched::SwitchRequest r;
          r.location = s1;
          r.priority = static_cast<std::uint16_t>(100 + i);
          r.match = ProbeEngine::probe_match(i);
          r.actions = of::output_to(2);
          return dag.add(r);
        };
        const auto a = add(0);
        const auto b = add(1);
        const auto c = add(2);
        dag.add_dependency(a, b);
        dag.add_dependency(b, c);
        dag.add_dependency(c, a);
        if (behind_root) dag.add_dependency(add(3), a);

        std::size_t failed = 0;
        sched::ExecutorOptions options;
        options.on_failed = [&](std::size_t) { ++failed; };
        sched::DionysusScheduler dionysus;
        sched::BasicTangoScheduler tango({{s1, core::OpCostEstimate{}}});
        sched::UpdateScheduler& scheduler =
            use_tango ? static_cast<sched::UpdateScheduler&>(tango) : dionysus;
        sched::ExecutionReport report;
        if (async) {
          auto run = sched::execute_async(net, dag, scheduler, options);
          EXPECT_TRUE(run.done());
          net.run_all();
          report = run.finish();
        } else {
          report = sched::execute(net, dag, scheduler, options);
        }
        EXPECT_TRUE(report.cyclic);
        EXPECT_EQ(report.issued, 0u);
        EXPECT_EQ(report.failed_requests, dag.size());
        EXPECT_EQ(report.lost_requests, 0u);
        EXPECT_EQ(failed, dag.size());
        EXPECT_EQ(net.channel(s1).stats().flow_mods, 0u);
        EXPECT_EQ(net.sw(s1).total_rules(), 1u);  // the table-miss rule
      }
    }
  }
}

TEST(CachePolicyEdge, PrefersInducesConsistentTotalOrder) {
  // Sorting under prefers() must be a strict weak ordering: sort a shuffled
  // set twice from different starting permutations and get the same order.
  const auto policy = tables::LexCachePolicy::lex(
      {{tables::Attribute::kTrafficCount, tables::Direction::kPreferHigh},
       {tables::Attribute::kPriority, tables::Direction::kPreferLow},
       {tables::Attribute::kUseTime, tables::Direction::kPreferHigh}});
  Rng rng(3);
  std::vector<tables::FlowEntry> entries(64);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].id = i;
    entries[i].priority = static_cast<std::uint16_t>(rng.uniform_int(1, 5));
    entries[i].attrs.traffic_count = static_cast<std::uint64_t>(rng.uniform_int(0, 4));
    entries[i].attrs.last_use_time = SimTime{rng.uniform_int(0, 1000)};
  }
  auto a = entries;
  auto b = entries;
  rng.shuffle(b);
  auto cmp = [&](const tables::FlowEntry& x, const tables::FlowEntry& y) {
    return policy.prefers(x, y);
  };
  std::sort(a.begin(), a.end(), cmp);
  std::sort(b.begin(), b.end(), cmp);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id) << i;
}

TEST(FramingEdge, ManyCoalescedFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  std::vector<of::Message> originals;
  for (std::uint32_t i = 0; i < 50; ++i) {
    of::Message msg{i, of::EchoRequest{{static_cast<std::uint8_t>(i)}}};
    const auto frame = of::encode(msg);
    stream.insert(stream.end(), frame.begin(), frame.end());
    originals.push_back(msg);
  }
  of::FrameAssembler assembler;
  assembler.feed(stream);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto frame = assembler.next_frame();
    ASSERT_FALSE(frame.empty()) << i;
    auto decoded = of::decode(frame);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().xid, i);
  }
  EXPECT_TRUE(assembler.next_frame().empty());
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(WireSizeEdge, ExtendedMessagesAccountExactly) {
  const of::MessageBody bodies[] = {
      of::MessageBody{of::GetConfigReply{}},
      of::MessageBody{of::PortStatus{}},
      of::MessageBody{of::PortMod{}},
      of::MessageBody{of::Vendor{1, {1, 2, 3}}},
      of::MessageBody{of::AggregateStatsReply{}},
      of::MessageBody{of::DescStatsRequest{}},
      of::MessageBody{of::PortStatsReply{{of::PortStatsEntry{}}}},
  };
  for (const auto& body : bodies) {
    const of::Message msg{9, body};
    EXPECT_EQ(of::wire_size(msg), of::encode(msg).size());
  }
  // Known layouts: port_status = 8 header + 8 + 48 phy_port.
  EXPECT_EQ(of::wire_size(of::Message{0, of::PortStatus{}}), 64u);
  // port_stats entry = 8 + 4 stats header... entry is 72 bytes.
  EXPECT_EQ(of::wire_size(of::Message{0, of::PortStatsReply{{of::PortStatsEntry{}}}}),
            8u + 4u + 72u);
}

TEST(ChannelEdge, ControlLatencyShiftsCompletionTimes) {
  auto run = [](SimDuration latency) {
    net::Network net(latency);
    auto profile = profiles::switch1();
    profile.costs.jitter_frac = 0;
    const auto id = net.add_switch(profile);
    return (net.install(id, ProbeEngine::probe_add(0)).completed_at -
            SimTime{})
        .ms();
  };
  const double fast = run(micros(100));
  const double slow = run(millis(10));
  // One-way latency difference appears once on the send path.
  EXPECT_NEAR(slow - fast, 9.9, 0.2);
}

TEST(TopologyEdge, LinkBetweenIgnoresDownLinks) {
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  const auto l1 = topo.add_link(0, 1);
  const auto l2 = topo.add_link(0, 1);  // parallel link
  topo.set_link_state(l1, false);
  const auto found = topo.link_between(0, 1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, l2);
  topo.set_link_state(l2, false);
  EXPECT_FALSE(topo.link_between(0, 1).has_value());
}

TEST(TopologyEdge, LinkBetweenUnknownNodeIsNone) {
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  topo.add_link(0, 1);
  EXPECT_FALSE(topo.link_between(9, 9).has_value());
  EXPECT_FALSE(topo.link_between(9, 0).has_value());
  EXPECT_FALSE(topo.link_between(0, 9).has_value());
  EXPECT_FALSE(topo.fail_link_between(9, 1).has_value());
}

TEST(TopologyEdge, PortForLinkStaysWithinSwitchPorts) {
  for (std::size_t link = 0; link < 100; ++link) {
    const auto port = net::port_for_link(link);
    EXPECT_GE(port, 1);
    EXPECT_LE(port, 7);
  }
}

TEST(SwitchEdge, ZeroJitterIsFullyDeterministic) {
  auto profile = profiles::switch1();
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  switchsim::SimulatedSwitch a(1, profile, 1);
  switchsim::SimulatedSwitch b(2, profile, 999);  // different seed: no effect
  const auto oa = a.apply_flow_mod(ProbeEngine::probe_add(0), SimTime{});
  const auto ob = b.apply_flow_mod(ProbeEngine::probe_add(0), SimTime{});
  EXPECT_EQ(oa.processing_time.ns(), ob.processing_time.ns());
}

TEST(SchedulerEdge, SingleReadyRequestAnyPattern) {
  sched::RequestDag dag;
  sched::SwitchRequest r;
  r.location = 1;
  r.type = sched::RequestType::kMod;
  r.match = ProbeEngine::probe_match(0);
  const auto id = dag.add(r);
  sched::BasicTangoScheduler sched({});
  const auto order = sched.order(dag, {id});
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], id);
}

}  // namespace
}  // namespace tango
