// Crash reconciler: converge actual switch tables to a desired image.
//
// After a transaction observes an agent crash (tables wiped) or exhausts the
// executor's retry budget, the controller can no longer trust its model of
// what is installed. The reconciler restores truth the only way that works
// after a reboot: it reads the actual table back over the control channel
// (FLOW_STATS_REQUEST with a full-wildcard filter), diffs it against the
// desired per-switch image, and issues the minimal repair set —
//
//  * a missing or divergent rule (keyed by match+priority; actions or cookie
//    differ) is reinstated with an ADD, which replaces in place;
//  * a stale leftover (present on the switch, absent from the image) is
//    removed with a non-strict DELETE; desired rules the delete's match
//    would also sweep away are re-added behind it (DEL -> ADD dependency).
//
// Repairs attributable to the original transaction's requests (via their
// cookies) inherit the transaction's dependency order through the
// `must_precede` callback, so roll-forward installs in dependency order and
// rollback unwinds in reverse. The readback/diff/repair loop repeats until a
// readback round finds no differences or the round budget is exhausted —
// repairs themselves travel over the same faulty channel and may be lost.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "net/network.h"
#include "scheduler/executor.h"

namespace tango::sched {

/// One installed rule as the controller models it. Identity is
/// (match, priority); actions and cookie are the mutable payload.
struct RuleImage {
  of::Match match;
  std::uint16_t priority = 0;
  of::ActionList actions;
  std::uint64_t cookie = 0;
  bool operator==(const RuleImage&) const = default;
};

/// Whole-table model keyed by rule_key(match, priority). Mirrors the switch
/// semantics the simulator implements: ADD replaces in place at its key,
/// non-strict MODIFY rewrites actions+cookie of every subsumed entry (or
/// acts as ADD when none match), non-strict DELETE erases every subsumed
/// entry regardless of priority.
using TableImage = std::map<std::string, RuleImage>;

/// Canonical identity of a rule slot within a table.
std::string rule_key(const of::Match& match, std::uint16_t priority);

/// Typed rule identity: two keys are equal exactly when their rule_key()
/// strings are. The constructor keeps only what Match::to_string() prints —
/// each exact field's wildcard bit and, when constrained, its value; each IP
/// prefix length and, when non-zero, the address as stored — so nw_tos,
/// dl_vlan_pcp and the values of wildcarded fields do not count.
class RuleKey {
 public:
  RuleKey(const of::Match& match, std::uint16_t priority);

  /// The match as the key sees it; rule_key(match(), priority()) is the
  /// string of the match the key was built from.
  [[nodiscard]] const of::Match& match() const { return match_; }
  [[nodiscard]] std::uint16_t priority() const { return priority_; }

  bool operator==(const RuleKey&) const = default;

 private:
  of::Match match_;
  std::uint16_t priority_ = 0;
};

struct RuleKeyHash {
  std::size_t operator()(const RuleKey& key) const;
};

/// Rule identity -> the DAG node a transaction attributes it to.
using RuleOwners = std::unordered_map<RuleKey, std::size_t, RuleKeyHash>;

/// Project a readback reply into a table image.
TableImage image_of(const of::FlowStatsReply& reply);

/// Apply one flow_mod to an image, mirroring SimulatedSwitch semantics.
void apply_to_image(TableImage& image, const of::FlowMod& fm);

struct ReconcilerOptions {
  /// Repair rounds before giving up (each round = readback + diff + exec).
  std::size_t max_rounds = 3;
  /// Executor options for issuing repairs (observers are cleared — journal
  /// bookkeeping belongs to the original commit, not to repairs).
  ExecutorOptions exec;
  /// When non-zero, every repair flow_mod's cookie is re-fenced to this
  /// controller epoch before issue (openflow/epoch.h). A takeover replay
  /// needs this for DELETEs: the stale rules it removes still carry the
  /// deposed primary's epoch, and the freshly fenced switch would refuse a
  /// mutation stamped with it. 0 (default) leaves cookies untouched.
  std::uint32_t repair_epoch = 0;
  /// Rule-space scope: when set, actual-table rules for which this returns
  /// false are invisible to the diff — neither compared nor deleted as
  /// stale. Concurrent transactions (the intent service) scope each
  /// reconciliation to its own footprint so converging one tenant's rules
  /// cannot sweep away a co-resident tenant's. Unset = whole table (the
  /// serial behaviour).
  std::function<bool(SwitchId, const RuleImage&)> scope;
};

struct ReconcileStats {
  /// Repair rounds executed (0 = the first readback already matched).
  std::size_t rounds = 0;
  /// ADD repairs issued (missing or divergent rules reinstated).
  std::size_t repairs_issued = 0;
  /// DELETE repairs issued (stale leftovers removed).
  std::size_t stale_rules_removed = 0;
  std::size_t readback_requests = 0;
  std::size_t readback_lost = 0;
  /// True when the final readback round found every table matching its
  /// desired image.
  bool converged = false;
  /// Switches whose table could not be read back even with retries.
  std::set<SwitchId> unreconciled;
};

class Reconciler {
 public:
  /// Maps a rule back to the original DAG node that authored it (by cookie
  /// or by key); nullopt for rules outside the transaction.
  using Author =
      std::function<std::optional<std::size_t>(SwitchId, const RuleImage&)>;
  /// Ordering oracle over original DAG nodes: true when repairs for `a`
  /// must complete before repairs for `b` may be issued.
  using MustPrecede = std::function<bool(std::size_t a, std::size_t b)>;

  explicit Reconciler(net::Network& network, ReconcilerOptions options = {})
      : network_(network), options_(options) {}

  /// Read back one switch's full table: up to 7 attempts of 200 ms each;
  /// nullopt when every attempt was lost. Accounts attempts/losses into
  /// `stats`.
  std::optional<TableImage> read_table(SwitchId id, ReconcileStats& stats);

  /// Drive every switch in `desired` to its image. `author`/`must_precede`
  /// are optional; without them repairs are ordered only by the DEL->ADD
  /// collateral constraint.
  ReconcileStats run(const std::map<SwitchId, TableImage>& desired,
                     const Author& author = {},
                     const MustPrecede& must_precede = {});

 private:
  net::Network& network_;
  ReconcilerOptions options_;
};

}  // namespace tango::sched
