#include "net/fault_injector.h"

#include <algorithm>

namespace tango::net {

bool FaultInjector::in_partition(SimTime now) const {
  for (const auto& p : config_.partitions) {
    if (now >= p.at && now < p.at + p.duration) return true;
  }
  return false;
}

namespace {

/// Effective drop probability at `now`: the configured base raised to any
/// covering loss-burst window's rate (one Bernoulli draw either way, so the
/// RNG stream stays aligned between bursty and quiet stretches).
double burst_drop(const FaultConfig& c, bool to_switch, SimTime now) {
  double p = to_switch ? c.drop_to_switch : c.drop_to_controller;
  for (const auto& b : c.loss_bursts) {
    if (now >= b.at && now < b.at + b.duration) {
      p = std::max(p, to_switch ? b.drop_to_switch : b.drop_to_controller);
    }
  }
  return p;
}

}  // namespace

std::size_t FaultInjector::copies(Direction dir,
                                  std::span<const std::uint8_t> frame,
                                  SimTime now) {
  // A partition blackholes everything before any other fault gets a say
  // (and before any RNG draw, so the post-partition stream is unaffected
  // by how much traffic the window swallowed).
  if (in_partition(now)) {
    ++stats_.lost_to_partition;
    return 0;
  }
  // Scripted drops take precedence over probabilistic faults so tests can
  // target exactly one message of a given type.
  if (frame.size() > 1) {
    const auto type = static_cast<of::MsgType>(frame[1]);
    for (auto& fd : forced_drops_) {
      if (fd.dir == dir && fd.type == type && fd.remaining > 0) {
        --fd.remaining;
        ++stats_.forced_drops;
        return 0;
      }
    }
  }

  const bool to_switch = dir == Direction::kToSwitch;
  const auto& c = config_;
  if (rng_.chance(burst_drop(c, to_switch, now))) {
    ++(to_switch ? stats_.dropped_to_switch : stats_.dropped_to_controller);
    return 0;
  }
  if (rng_.chance(to_switch ? c.duplicate_to_switch : c.duplicate_to_controller)) {
    ++stats_.duplicated;
    return 2;
  }
  return 1;
}

SimDuration FaultInjector::damage(Direction dir,
                                  std::span<std::uint8_t> frame) {
  const bool to_switch = dir == Direction::kToSwitch;
  const auto& c = config_;
  if (rng_.chance(to_switch ? c.corrupt_to_switch : c.corrupt_to_controller) &&
      !frame.empty()) {
    const std::size_t flips = 1 + rng_.index(4);
    for (std::size_t k = 0; k < flips; ++k) {
      // Each flip draws its bit before its byte; recorded runs pin the order.
      const auto bit = static_cast<std::uint8_t>(1u << rng_.index(8));
      frame[rng_.index(frame.size())] ^= bit;
    }
    ++stats_.corrupted;
  }
  if (rng_.chance(to_switch ? c.reorder_to_switch : c.reorder_to_controller) &&
      c.reorder_window.ns() > 0) {
    ++stats_.reordered;
    return nanos(rng_.uniform_int(1, c.reorder_window.ns()));
  }
  return SimDuration{};
}

std::optional<SimDuration> FaultInjector::plan_notification(SimTime now) {
  if (in_partition(now)) {
    ++stats_.lost_to_partition;
    return std::nullopt;
  }
  if (rng_.chance(burst_drop(config_, /*to_switch=*/false, now))) {
    ++stats_.notifications_dropped;
    return std::nullopt;
  }
  if (rng_.chance(config_.reorder_to_controller) &&
      config_.reorder_window.ns() > 0) {
    ++stats_.reordered;
    return nanos(rng_.uniform_int(1, config_.reorder_window.ns()));
  }
  return SimDuration{};
}

SimDuration FaultInjector::draw_stall() {
  if (config_.stall_probability > 0 && rng_.chance(config_.stall_probability)) {
    ++stats_.stalls;
    return config_.stall_duration;
  }
  return SimDuration{};
}

void FaultInjector::force_drop(Direction dir, of::MsgType type,
                               std::size_t count) {
  forced_drops_.push_back(ForcedDrop{dir, type, count});
}

}  // namespace tango::net
