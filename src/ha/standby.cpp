#include "ha/standby.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "tango/knowledge_io.h"

namespace tango::ha {

namespace {
/// The estimator keys samples by SwitchId; the heartbeat stream is a single
/// "peer", so it lives under one well-known key.
constexpr SwitchId kHeartbeatPeer = 0;
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
        interval_estimator_.observe(kHeartbeatPeer,
                                    now - stats_.last_heartbeat_at);
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
  const auto misses = static_cast<std::int64_t>(
      std::max<std::size_t>(1, options_.missed_heartbeats));
  // Learned interval (srtt + 4*rttvar covers jitter), same missed budget,
  // never looser than the configured fallback.
  const auto learned = interval_estimator_.timeout_for(
      kHeartbeatPeer, options_.heartbeat_interval);
  return std::min(options_.heartbeat_interval * misses, learned * misses);
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
