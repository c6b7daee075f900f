#include "chaos/run.h"

#include "openflow/actions.h"
#include "switchsim/profiles.h"

namespace tango::chaos {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
}  // namespace

void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

void fnv_fold_str(std::uint64_t& h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  fnv_fold(h, s.size());
}

std::vector<std::string> RunResult::violation_names() const {
  std::vector<std::string> out;
  for (const auto& v : violations) {
    bool seen = false;
    for (const auto& name : out) seen = seen || name == v.oracle;
    if (!seen) out.push_back(v.oracle);
  }
  return out;
}

switchsim::SwitchProfile quiet_profile(switchsim::SwitchProfile profile) {
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  return profile;
}

workload::TestbedIds quiet_testbed(net::Network& net) {
  workload::TestbedIds tb;
  tb.s1 = net.add_switch(quiet_profile(switchsim::profiles::switch1()));
  tb.s2 = net.add_switch(quiet_profile(switchsim::profiles::switch1()));
  tb.s3 = net.add_switch(quiet_profile(switchsim::profiles::switch3()));
  return tb;
}

sched::TransactionOptions recovery_budget() {
  sched::TransactionOptions topts;
  topts.exec.request_timeout = millis(200);
  topts.exec.max_retries = 6;
  topts.exec.backoff_base = millis(5);
  topts.max_reconcile_rounds = 6;
  return topts;
}

Tables capture_tables(net::Network& net, const std::vector<SwitchId>& ids) {
  Tables tables;
  for (const auto id : ids) {
    tables.emplace(id,
                   sched::image_of(net.sw(id).flow_stats(of::Match::any())));
  }
  return tables;
}

void fnv_fold_tables(std::uint64_t& h, const Tables& tables) {
  for (const auto& [id, image] : tables) {
    fnv_fold(h, id);
    for (const auto& [key, rule] : image) {
      fnv_fold_str(h, key);
      fnv_fold(h, rule.cookie);
      fnv_fold(h, rule.priority);
      fnv_fold(h, rule.actions.size());
      fnv_fold(h, of::output_port(rule.actions));
    }
  }
}

std::map<SwitchId, net::FaultStats> quiesce(net::Network& net,
                                            const std::vector<SwitchId>& ids) {
  std::map<SwitchId, net::FaultStats> stats;
  for (const auto id : ids) {
    if (const auto* inj = net.fault_injector(id)) stats[id] = inj->stats();
  }
  for (const auto id : ids) {
    net::FaultConfig clean;
    clean.seed = 1;
    net.enable_faults(id, clean);
  }
  return stats;
}

}  // namespace tango::chaos
