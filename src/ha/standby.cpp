#include "ha/standby.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "tango/knowledge_io.h"

namespace tango::ha {

namespace {
/// Heartbeats that must go missing before the primary is suspected.
constexpr std::size_t kMissedHeartbeats = 3;
constexpr double kAlpha = 0.125;
constexpr double kBeta = 0.25;
/// Intervals observed before the learned one replaces kHeartbeatInterval.
constexpr std::uint64_t kWarmupIntervals = 2;
/// Floor of the learned interval: a degenerate zero-variance estimate must
/// not fire faster than the link can physically deliver.
constexpr SimDuration kIntervalFloor = millis(1);
}  // namespace

void StandbyController::receive(const ReplicationRecord& rec, SimTime now) {
  ++stats_.records_received;
  stats_.max_replication_lag =
      std::max(stats_.max_replication_lag, now - rec.sent_at);
  if (last_seq_ != 0 && rec.seq > last_seq_ + 1) {
    stats_.seq_gaps += rec.seq - last_seq_ - 1;
  }
  last_seq_ = std::max(last_seq_, rec.seq);

  switch (rec.type) {
    case RecordType::kHeartbeat: {
      ++stats_.heartbeats_received;
      if (armed_) {
        const double sample_ms =
            static_cast<double>((now - stats_.last_heartbeat_at).ns()) / 1e6;
        if (intervals_ == 0) {
          // The first sample seeds the classic way: srtt = R, rttvar = R/2.
          srtt_ms_ = sample_ms;
          rttvar_ms_ = sample_ms / 2.0;
        } else {
          rttvar_ms_ = (1.0 - kBeta) * rttvar_ms_ +
                       kBeta * std::abs(srtt_ms_ - sample_ms);
          srtt_ms_ = (1.0 - kAlpha) * srtt_ms_ + kAlpha * sample_ms;
        }
        ++intervals_;
      }
      stats_.last_heartbeat_at = now;
      armed_ = true;
      break;
    }
    case RecordType::kCheckpoint: {
      std::istringstream in(rec.knowledge_text);
      auto parsed = core::read_knowledge(in);
      if (!parsed.ok()) {
        log::warn("ha standby: undecodable checkpoint dropped (" +
                  parsed.error() + ")");
        break;
      }
      knowledge_.clear();
      for (auto& [key, know] : parsed.value()) {
        // Checkpoint keys are decimal switch ids (names don't survive the
        // knowledge_io format; the id is what adopt() needs).
        const auto id = static_cast<SwitchId>(std::stoul(key));
        know.switch_id = id;
        knowledge_[id] = std::move(know);
      }
      health_ = rec.health;
      stats_.last_checkpoint_at = now;
      ++stats_.checkpoints_applied;
      break;
    }
    case RecordType::kTxnBegin: {
      TxnShadow shadow;
      shadow.txn = rec.txn;
      txns_[rec.txn_id] = std::move(shadow);
      ++stats_.txns_shadowed;
      break;
    }
    case RecordType::kTxnEntry: {
      const auto it = txns_.find(rec.txn_id);
      if (it == txns_.end()) break;  // begin record lost upstream
      it->second.acked[rec.dag_id] = rec.accepted;
      break;
    }
    case RecordType::kTxnFinish: {
      const auto it = txns_.find(rec.txn_id);
      if (it == txns_.end()) break;
      it->second.finished = true;
      it->second.committed = rec.committed;
      it->second.rolled_back = rec.rolled_back;
      break;
    }
  }
}

SimDuration StandbyController::threshold() const {
  constexpr auto misses = static_cast<std::int64_t>(kMissedHeartbeats);
  if (intervals_ < kWarmupIntervals) return kHeartbeatInterval * misses;
  // srtt + 4*rttvar covers the jitter.
  const SimDuration learned = std::clamp(
      millis(srtt_ms_ + 4.0 * rttvar_ms_), kIntervalFloor, kHeartbeatInterval);
  return learned * misses;
}

bool StandbyController::primary_suspect(SimTime now) const {
  if (!armed_) return false;
  return now - stats_.last_heartbeat_at > threshold();
}

std::map<std::uint32_t, TxnShadow> StandbyController::inflight() const {
  std::map<std::uint32_t, TxnShadow> out;
  for (const auto& [id, shadow] : txns_) {
    if (!shadow.finished) out.emplace(id, shadow);
  }
  return out;
}

std::map<std::uint32_t, TxnShadow> StandbyController::committed() const {
  std::map<std::uint32_t, TxnShadow> out;
  for (const auto& [id, shadow] : txns_) {
    if (shadow.finished && shadow.committed) out.emplace(id, shadow);
  }
  return out;
}

}  // namespace tango::ha
