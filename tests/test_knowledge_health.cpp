// Knowledge-health thresholds, each checked at its boundary: when a cost
// observation counts as a signal, when the sentinel escalates to a probe,
// what one signal costs, when a switch is quarantined and when it is let
// out again, and what a quarantine changes about the next transaction.
//
// The threshold tests drive KnowledgeHealth directly. The two
// controller-level tests run on one jitter-free switch on the deterministic
// event queue.
#include <gtest/gtest.h>

#include "net/network.h"
#include "switchsim/profiles.h"
#include "tango/knowledge_health.h"
#include "tango/tango.h"

namespace tango::core {
namespace {

constexpr SwitchId kId = 1;

/// A tracked switch with full trust and confidence.
KnowledgeHealth tracked() {
  KnowledgeHealth health;
  health.track(kId);
  return health;
}

void signal(KnowledgeHealth& health, std::size_t n) {
  // Twice the prediction: a relative error of 1.0, well past tolerance.
  for (std::size_t i = 0; i < n; ++i) {
    health.on_cost_observation(kId, 2.0, 1.0);
  }
}

const SwitchHealth& health_of(const KnowledgeHealth& health) {
  const SwitchHealth* h = health.health(kId);
  EXPECT_NE(h, nullptr);
  return *h;
}

TEST(KnowledgeHealthTest, CostSignalStartsJustAboveHalfAgain) {
  auto health = tracked();
  health.on_cost_observation(kId, 1.5, 1.0);
  EXPECT_EQ(health_of(health).cost_mispredictions, 0u);
  EXPECT_EQ(health_of(health).prop(PropertyKind::kCosts).signals, 0u);
  health.on_cost_observation(kId, 1.5000001, 1.0);
  EXPECT_EQ(health_of(health).cost_mispredictions, 1u);
  EXPECT_EQ(health_of(health).prop(PropertyKind::kCosts).signals, 1u);
}

TEST(KnowledgeHealthTest, ProbeIsDueAfterThreeSignals) {
  auto health = tracked();
  signal(health, 2);
  EXPECT_FALSE(health.needs_probe(kId));
  signal(health, 1);
  EXPECT_TRUE(health.needs_probe(kId));
}

TEST(KnowledgeHealthTest, OneSignalCostsFifteenHundredths) {
  auto health = tracked();
  signal(health, 1);
  EXPECT_DOUBLE_EQ(health_of(health).trust, 0.85);
  EXPECT_DOUBLE_EQ(health_of(health).prop(PropertyKind::kCosts).confidence, 0.85);
  EXPECT_DOUBLE_EQ(health_of(health).prop(PropertyKind::kSizes).confidence, 1.0);
}

TEST(KnowledgeHealthTest, FourthSignalQuarantines) {
  auto health = tracked();
  signal(health, 3);
  EXPECT_FALSE(health.quarantined(kId));
  signal(health, 1);
  EXPECT_TRUE(health.quarantined(kId));
  EXPECT_EQ(health_of(health).quarantines, 1u);
}

TEST(KnowledgeHealthTest, SpotCheckToleranceIsAQuarter) {
  auto health = tracked();
  signal(health, 3);
  EXPECT_FALSE(health.record_spot_check(kId, 0.25));
  EXPECT_EQ(health_of(health).prop(PropertyKind::kCosts).signals, 0u);
  EXPECT_DOUBLE_EQ(health_of(health).prop(PropertyKind::kCosts).confidence, 1.0);
  EXPECT_FALSE(health.needs_probe(kId));
  EXPECT_EQ(health_of(health).drift_confirmed, 0u);

  EXPECT_TRUE(health.record_spot_check(kId, 0.2500001));
  EXPECT_EQ(health_of(health).drift_confirmed, 1u);
  EXPECT_EQ(health_of(health).spot_checks, 2u);
  EXPECT_DOUBLE_EQ(health_of(health).prop(PropertyKind::kCosts).confidence, 0.0);
  EXPECT_TRUE(health.quarantined(kId));
}

TEST(KnowledgeHealthTest, OneCleanVerifiedCommitLiftsASuspicion) {
  auto health = tracked();
  health.suspect(kId);
  EXPECT_TRUE(health.quarantined(kId));
  health.on_clean_verified_commit(kId);
  EXPECT_FALSE(health.quarantined(kId));
  EXPECT_EQ(health_of(health).quarantine_lifts, 1u);
}

TEST(KnowledgeHealthTest, ReinferenceRestoresTrustToAtLeastEightyFive) {
  auto health = tracked();
  signal(health, 4);
  ASSERT_TRUE(health.quarantined(kId));
  health.mark_reinferred(kId, PropertyKind::kCosts);
  EXPECT_DOUBLE_EQ(health_of(health).trust, 0.85);
  EXPECT_DOUBLE_EQ(health_of(health).prop(PropertyKind::kCosts).confidence, 1.0);
  EXPECT_EQ(health_of(health).prop(PropertyKind::kCosts).signals, 0u);
  EXPECT_FALSE(health.quarantined(kId));
}

TEST(KnowledgeHealthTest, EachMismatchedRuleCostsFifteenHundredths) {
  auto health = tracked();
  health.on_readback_mismatch(kId, 2);
  EXPECT_DOUBLE_EQ(health_of(health).trust, 0.70);
  EXPECT_EQ(health_of(health).readback_mismatches, 2u);
  EXPECT_FALSE(health.quarantined(kId));
}

// --- what the controller does with the thresholds ---------------------------

switchsim::SwitchProfile quiet_switch1() {
  auto profile = switchsim::profiles::switch1();
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  return profile;
}

SwitchKnowledge known(SwitchId id) {
  SwitchKnowledge know;
  know.switch_id = id;
  know.costs.add_ascending_ms = 0.5;
  know.costs.add_descending_ms = 2.0;
  know.costs.add_same_priority_ms = 0.25;
  know.costs.add_random_ms = 1.0;
  know.costs.mod_ms = 0.75;
  know.costs.del_ms = 0.125;
  return know;
}

TEST(KnowledgeHealthTest, SuspectedSwitchGetsTripledHintsAndReadback) {
  net::Network net;
  const auto id = net.add_switch(quiet_switch1());
  TangoController tango(net);
  tango.adopt(known(id));
  tango.health().suspect(id);

  auto txn = tango.begin_update(sched::RequestDag{});
  const auto& hint = txn.options().exec.cost_hints.at(id);
  EXPECT_DOUBLE_EQ(hint.add_ascending_ms, 1.5);
  EXPECT_DOUBLE_EQ(hint.add_descending_ms, 6.0);
  EXPECT_DOUBLE_EQ(hint.add_same_priority_ms, 0.75);
  EXPECT_DOUBLE_EQ(hint.add_random_ms, 3.0);
  EXPECT_DOUBLE_EQ(hint.mod_ms, 2.25);
  EXPECT_DOUBLE_EQ(hint.del_ms, 0.375);
  EXPECT_EQ(txn.options().readback_verify.count(id), 1u);
}

TEST(KnowledgeHealthTest, ForcedSentinelProbesFiftyRules) {
  net::Network net;
  const auto id = net.add_switch(quiet_switch1());
  TangoController tango(net);
  LearnOptions options;
  options.size.max_rules = 512;
  options.infer_policy = false;
  tango.learn(id, options);

  const auto before = net.stats(id).flow_mods;
  const auto actions = tango.run_sentinel(options, /*force_probe=*/true);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_TRUE(actions[0].probed);
  // Learned costs hold, so nothing is re-inferred after the probe.
  EXPECT_FALSE(actions[0].confirmed);
  // 50 ascending adds, then 50 deletes; a clean channel loses none.
  EXPECT_EQ(net.stats(id).flow_mods - before, 100u);
  EXPECT_EQ(tango.health().health(id)->spot_checks, 1u);
}

}  // namespace
}  // namespace tango::core
