#include "net/channel.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "openflow/epoch.h"

namespace tango::net {

ControlChannel::ControlChannel(sim::EventQueue& events,
                               switchsim::SimulatedSwitch& sw,
                               SimDuration one_way_latency)
    : events_(events), switch_(sw), latency_(one_way_latency) {}

namespace {

const char* command_name(of::FlowModCommand c) {
  switch (c) {
    case of::FlowModCommand::kAdd: return "flow_mod:add";
    case of::FlowModCommand::kModify: return "flow_mod:modify";
    case of::FlowModCommand::kModifyStrict: return "flow_mod:modify_strict";
    case of::FlowModCommand::kDelete: return "flow_mod:delete";
    case of::FlowModCommand::kDeleteStrict: return "flow_mod:delete_strict";
  }
  return "flow_mod";
}

}  // namespace

void ControlChannel::set_telemetry(telemetry::Telemetry* t, SwitchId lane) {
  telemetry_ = t;
  lane_ = lane;
  if (t == nullptr) {
    ctr_flow_mods_ = nullptr;
    ctr_rejected_ = nullptr;
    hist_flow_mod_us_ = nullptr;
    return;
  }
  ctr_flow_mods_ = &t->metrics.counter("switch.flow_mods");
  ctr_rejected_ = &t->metrics.counter("switch.flow_mods_rejected");
  hist_flow_mod_us_ = &t->metrics.histogram(
      "switch.flow_mod_us",
      {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000});
}

void ControlChannel::send(const of::Message& msg) {
  // Round-trip through the codec: what arrives is what the wire carried.
  const std::uint32_t slot = frames_.acquire();
  of::encode_into(msg, frames_[slot].bytes);
  ship(slot, Direction::kToSwitch, 1, events_.now());
}

void ControlChannel::send_batch(std::span<const of::Message> msgs) {
  if (msgs.empty()) return;
  if (injector_ != nullptr) {
    // Fates are per frame (drop/duplicate/corrupt decide message by
    // message), so a faulted batch degenerates to sequential sends.
    for (const auto& m : msgs) send(m);
    return;
  }
  const std::uint32_t slot = frames_.acquire();
  of::encode_batch(msgs, frames_[slot].bytes);
  // One arrival event decodes the frames in order. Sequential send() calls
  // would schedule one event per frame at this same instant with ascending
  // sequence numbers; no other event can slot between them, so processing
  // all frames inside one event is observationally identical.
  ship(slot, Direction::kToSwitch, msgs.size(), events_.now());
}

void ControlChannel::reply(const of::Message& msg, SimTime at) {
  const std::uint32_t slot = frames_.acquire();
  of::encode_into(msg, frames_[slot].bytes);
  ship(slot, Direction::kToController, 1, at);
}

void ControlChannel::ship(std::uint32_t slot, Direction dir, std::size_t count,
                          SimTime at) {
  Frame& f = frames_[slot];
  f.count = count;
  f.dir = dir;
  f.epoch = epoch_;
  const bool up = dir == Direction::kToController;
  (up ? stats_.messages_to_controller : stats_.messages_to_switch) += count;
  (up ? stats_.bytes_to_controller : stats_.bytes_to_switch) += f.bytes.size();
  const std::size_t copies =
      injector_ != nullptr ? injector_->copies(dir, f.bytes, at) : 1;
  if (copies == 0) {
    release_frame(slot);
    return;
  }
  // Damage a copy (with an injector) and schedule its arrival.
  const auto launch = [&](std::uint32_t s) {
    const SimDuration extra = injector_ != nullptr
                                  ? injector_->damage(dir, frames_[s].bytes)
                                  : SimDuration{};
    events_.schedule_at(at + latency_ + extra, [this, s]() { arrive(s); });
  };
  if (copies == 2) {
    // The duplicate takes a slot of its own before either copy is damaged,
    // and goes first.
    const std::uint32_t dup = frames_.acquire();
    frames_[dup] = frames_[slot];
    launch(dup);
  }
  launch(slot);
}

void ControlChannel::arrive(std::uint32_t slot) {
  const Frame& head = frames_[slot];
  const Direction dir = head.dir;
  const std::size_t count = head.count;
  // A crash loses everything still on the wire, both ways (the control
  // connection resets); a rebooting agent hears nothing.
  const bool crashed = head.epoch != epoch_;
  if (crashed || (dir == Direction::kToSwitch && agent_down(events_.now()))) {
    release_frame(slot);
    if (injector_) {
      auto& st = injector_->mutable_stats();
      ++(crashed ? st.lost_to_crash : st.lost_to_down);
    }
    return;
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < count; ++i) {
    // Index the store afresh for every frame: a send nested in on_arrival()
    // can grow it. The slot stays ours until its last frame is decoded, and
    // the last frame is the rest of the buffer (all of it for one frame).
    const std::vector<std::uint8_t>& bytes = frames_[slot].bytes;
    const bool last = i + 1 == count;
    const std::size_t len =
        last ? bytes.size() - offset
             : (static_cast<std::size_t>(bytes[offset + 2]) << 8) |
                   bytes[offset + 3];
    auto decoded =
        of::decode(std::span<const std::uint8_t>(bytes).subspan(offset, len));
    offset += len;
    if (last || !decoded.ok()) release_frame(slot);
    if (!decoded.ok()) {
      // Only an injector corrupts frames. Without one this is a codec bug,
      // such as a FLOW_STATS reply too long for its 16-bit length field.
      assert(injector_ != nullptr);
      if (injector_) ++injector_->mutable_stats().undecodable;
      log::warn("channel: discarding undecodable frame (" + decoded.error() +
                ")");
      return;
    }
    if (dir == Direction::kToSwitch) {
      on_arrival(decoded.value());
    } else if (on_message_) {
      on_message_(decoded.value());
    }
  }
}

void ControlChannel::release_frame(std::uint32_t slot) {
  frames_[slot].bytes.clear();
  frames_.release(slot);
}

void ControlChannel::notify(SimTime at, Notice notice) {
  SimDuration extra{};
  if (injector_ != nullptr) {
    const auto plan = injector_->plan_notification(at);
    if (!plan.has_value()) return;  // the controller never hears about it
    extra = *plan;
  }
  notice.epoch = epoch_;
  const std::uint32_t slot = notices_.acquire();
  notices_[slot] = std::move(notice);
  events_.schedule_at(at + extra, [this, slot]() { deliver_notice(slot); });
}

void ControlChannel::deliver_notice(std::uint32_t slot) {
  // Move the notice out first: a handler may schedule notices of its own.
  const Notice n = std::move(notices_[slot]);
  notices_.release(slot);
  if (n.epoch != epoch_) {
    if (injector_) ++injector_->mutable_stats().lost_to_crash;
    return;
  }
  if (n.probe) {
    if (on_probe_) on_probe_(n.xid, n.outcome);
  } else if (on_flow_mod_) {
    on_flow_mod_(n.xid, n.accepted, n.completed_at, n.error);
  }
}

void ControlChannel::attach_fault_injector(FaultInjector* injector) {
  injector_ = injector;
  // A generation, not the injector's address: a later injector can be
  // allocated where a replaced one lived.
  const std::uint64_t generation = ++attach_generation_;
  if (injector_ == nullptr) return;
  // Declaratively scheduled faults (chaos schedules drive these lists).
  for (const auto& c : injector_->config().crashes) {
    events_.schedule_at(c.at, [this, generation, downtime = c.downtime]() {
      if (attach_generation_ == generation) crash_agent(downtime);
    });
  }
  for (const auto& s : injector_->config().stalls) {
    events_.schedule_at(s.at, [this, generation, duration = s.duration]() {
      if (attach_generation_ == generation) stall_agent(duration);
    });
  }
  for (const auto& p : injector_->config().partitions) {
    events_.schedule_at(p.at, [this, generation, duration = p.duration]() {
      if (attach_generation_ != generation) return;
      ++injector_->mutable_stats().partitions;
      if (telemetry_ != nullptr) {
        telemetry_->trace.instant(
            "fault", "partition", lane_, events_.now(),
            {telemetry::arg("duration_ns", duration.ns())});
        telemetry_->metrics.counter("faults.partitions").inc();
      }
      log::warn("channel: control-channel partition for " +
                std::to_string(duration.ms()) + "ms");
    });
  }
}

void ControlChannel::crash_agent(SimDuration downtime) {
  ++epoch_;  // everything in flight (both directions) is lost
  switch_.reset();  // power-on state: tables wiped, counters cleared
  down_until_ = events_.now() + downtime;
  busy_until_ = down_until_;
  if (injector_) ++injector_->mutable_stats().crashes;
  if (telemetry_ != nullptr) {
    telemetry_->trace.instant(
        "fault", "crash", lane_, events_.now(),
        {telemetry::arg("downtime_ns", downtime.ns())});
    telemetry_->metrics.counter("faults.crashes").inc();
  }
  log::warn("channel: agent crashed; tables wiped, back at " +
            std::to_string(down_until_.ms()) + "ms");
}

void ControlChannel::stall_agent(SimDuration duration) {
  busy_until_ = std::max(busy_until_, events_.now() + duration);
  if (injector_) ++injector_->mutable_stats().stalls;
  if (telemetry_ != nullptr) {
    telemetry_->trace.instant(
        "fault", "stall", lane_, events_.now(),
        {telemetry::arg("duration_ns", duration.ns())});
    telemetry_->metrics.counter("faults.stalls").inc();
  }
}

void ControlChannel::on_arrival(const of::Message& msg) {
  // Lazy timeout processing: expiry is applied no later than the next
  // controller interaction with the switch.
  switch_.sweep_timeouts(events_.now());
  if (injector_ != nullptr) {
    const SimDuration stall = injector_->draw_stall();
    if (stall.ns() > 0) {
      busy_until_ = std::max(busy_until_, events_.now() + stall);
      if (telemetry_ != nullptr) {
        telemetry_->trace.instant(
            "fault", "stall", lane_, events_.now(),
            {telemetry::arg("duration_ns", stall.ns())});
        telemetry_->metrics.counter("faults.stalls").inc();
      }
    }
  }
  handle(msg);
  // Ship any FLOW_REMOVED / PORT_STATUS notices the sweep or handling
  // produced (unsolicited: xid 0).
  for (auto& fr : switch_.drain_removals()) {
    reply(of::Message{0, std::move(fr)}, events_.now());
  }
  for (auto& ps : switch_.drain_port_status()) {
    reply(of::Message{0, std::move(ps)}, events_.now());
  }
}

void ControlChannel::handle(const of::Message& msg) {
  const SimTime now = events_.now();

  if (const auto* fm = std::get_if<of::FlowMod>(&msg.body)) {
    stats_.flow_mods += 1;
    const SimTime start = std::max(now, busy_until_);
    const std::uint32_t xid = msg.xid;
    // Reserve the agent: we must know the processing time, which requires
    // applying the command — apply lazily at start time via an event.
    // We approximate by applying now but time-stamping at start; since the
    // controller serializes commands per switch through this queue, the
    // application order equals the queue order.
    auto outcome = switch_.apply_flow_mod(*fm, start);
    busy_until_ = start + outcome.processing_time;
    const bool accepted = outcome.accepted;
    if (telemetry_ != nullptr) {
      // The agent's busy slice for this command: queue wait excluded, so
      // lanes show contention as gaps between arrival and start.
      telemetry_->trace.span("switch", command_name(fm->command), lane_,
                             start, busy_until_,
                             {telemetry::arg("xid", std::uint64_t{xid}),
                              telemetry::arg("accepted", accepted)});
      ctr_flow_mods_->inc();
      if (!accepted) ctr_rejected_->inc();
      hist_flow_mod_us_->observe(outcome.processing_time.us());
    }
    if (outcome.error.has_value()) {
      reply(of::Message{xid, *outcome.error}, busy_until_);
    }
    Notice notice;
    notice.xid = xid;
    notice.accepted = accepted;
    notice.completed_at = busy_until_;
    notice.error = std::move(outcome.error);
    notify(busy_until_, std::move(notice));
    return;
  }

  if (const auto* po = std::get_if<of::PacketOut>(&msg.body)) {
    stats_.packets_out += 1;
    auto pkt = of::Packet::decode(po->data);
    if (!pkt.ok()) {
      log::warn("channel: undecodable packet_out payload");
      return;
    }
    // Data plane: forwarded immediately, independent of the agent queue.
    const auto outcome = switch_.forward(pkt.value(), now);
    const std::uint32_t xid = msg.xid;
    if (outcome.kind == switchsim::ForwardOutcome::Kind::kToController) {
      // The packet comes back to the controller as a PACKET_IN.
      of::PacketIn pin;
      pin.in_port = pkt.value().header.in_port;
      pin.reason = of::PacketInReason::kNoMatch;
      pin.total_len = static_cast<std::uint16_t>(pkt.value().total_len());
      pkt.value().encode(pin.data);
      reply(of::Message{xid, std::move(pin)}, now + outcome.delay);
    }
    Notice notice;
    notice.xid = xid;
    notice.probe = true;
    notice.outcome = outcome;
    notify(now + outcome.delay, std::move(notice));
    return;
  }

  if (std::holds_alternative<of::BarrierRequest>(msg.body)) {
    // Replied only after every queued command completes.
    reply(of::Message{msg.xid, of::BarrierReply{}}, std::max(now, busy_until_));
    return;
  }

  if (const auto* echo = std::get_if<of::EchoRequest>(&msg.body)) {
    reply(of::Message{msg.xid, of::EchoReply{echo->payload}}, now);
    return;
  }

  if (std::holds_alternative<of::FeaturesRequest>(msg.body)) {
    reply(of::Message{msg.xid, switch_.features()}, now + micros(200));
    return;
  }

  if (const auto* fsr = std::get_if<of::FlowStatsRequest>(&msg.body)) {
    reply(of::Message{msg.xid, switch_.flow_stats(fsr->match)}, now + micros(500));
    return;
  }

  if (std::holds_alternative<of::TableStatsRequest>(msg.body)) {
    reply(of::Message{msg.xid, switch_.table_stats()}, now + micros(300));
    return;
  }

  if (std::holds_alternative<of::GetConfigRequest>(msg.body)) {
    reply(of::Message{msg.xid, switch_.config()}, now);
    return;
  }

  if (const auto* cfg = std::get_if<of::SetConfig>(&msg.body)) {
    switch_.set_config(*cfg);  // no reply, per OF 1.0
    return;
  }

  if (const auto* pm = std::get_if<of::PortMod>(&msg.body)) {
    switch_.apply_port_mod(*pm);
    return;
  }

  if (const auto* vendor = std::get_if<of::Vendor>(&msg.body)) {
    // Tango epoch-claim extension (HA failover fencing; openflow/epoch.h):
    // decode the claim, let the switch arbitrate monotonicity, and echo the
    // verdict plus its current epoch back on the same xid.
    if (vendor->vendor_id == of::kTangoVendorId) {
      if (const auto claim = of::decode_epoch_payload(vendor->data);
          claim.has_value() && claim->subtype == of::kEpochClaimSubtype) {
        const auto verdict = switch_.claim_epoch(claim->epoch);
        of::Vendor rep;
        rep.vendor_id = of::kTangoVendorId;
        rep.data = of::encode_epoch_payload(
            of::kEpochClaimReplySubtype, verdict.current_epoch,
            verdict.accepted ? of::kEpochClaimAccepted : 0);
        reply(of::Message{msg.xid, rep}, now);
        return;
      }
    }
    // Any other vendor extension: OFPBRC_BAD_VENDOR.
    of::ErrorMsg err;
    err.type = of::ErrorType::kBadRequest;
    err.code = 3;  // OFPBRC_BAD_VENDOR
    reply(of::Message{msg.xid, err}, now);
    return;
  }

  if (const auto* agg = std::get_if<of::AggregateStatsRequest>(&msg.body)) {
    reply(of::Message{msg.xid, switch_.aggregate_stats(agg->match)},
          now + micros(500));
    return;
  }

  if (std::holds_alternative<of::DescStatsRequest>(msg.body)) {
    reply(of::Message{msg.xid, switch_.description()}, now + micros(200));
    return;
  }

  if (const auto* psr = std::get_if<of::PortStatsRequest>(&msg.body)) {
    reply(of::Message{msg.xid, switch_.port_stats(psr->port_no)},
          now + micros(300));
    return;
  }

  if (std::holds_alternative<of::Hello>(msg.body)) {
    reply(of::Message{msg.xid, of::Hello{}}, now);
    return;
  }

  log::warn("channel: unhandled message type " +
            of::type_name(of::type_of(msg.body)));
}

}  // namespace tango::net
