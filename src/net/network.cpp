#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/logging.h"
#include "openflow/epoch.h"

namespace tango::net {

Network::Network(SimDuration control_latency)
    : control_latency_(control_latency) {
  // Every probe runs through the flow tables.
  std::get<of::PacketOut>(probe_out_.body).actions =
      of::output_to(of::kPortTable);
}

SwitchId Network::add_switch(const switchsim::SwitchProfile& profile,
                             std::uint64_t seed) {
  const SwitchId id = static_cast<SwitchId>(endpoints_.size() + 1);
  if (seed == 0) seed = 0x5eed0000 + id;
  Endpoint ep;
  ep.sw = std::make_unique<switchsim::SimulatedSwitch>(id, profile, seed);
  ep.channel =
      std::make_unique<ControlChannel>(events_, *ep.sw, control_latency_);

  ep.channel->set_flow_mod_handler(
      [this](std::uint32_t xid, bool accepted, SimTime completed_at,
             const std::optional<of::ErrorMsg>& error) {
        auto it = flow_mod_cbs_.find(xid);
        if (it == flow_mod_cbs_.end()) return;
        auto cb = std::move(it->second);
        flow_mod_cbs_.erase(it);
        FlowModResult res;
        res.accepted = accepted;
        res.completed_at = completed_at;
        if (error.has_value()) {
          res.has_error = true;
          res.error_type = error->type;
          res.error_code = error->code;
        }
        cb(res);
      });
  ep.channel->set_probe_handler(
      [this](std::uint32_t xid, const switchsim::ForwardOutcome& outcome) {
        const auto it = std::find_if(
            probe_waits_.begin(), probe_waits_.end(),
            [xid](const ProbeWait& w) { return w.xid == xid; });
        if (it == probe_waits_.end()) return;
        const ProbeWait wait = *it;
        probe_waits_.erase(it);
        wait.result->outcome = outcome;
        wait.result->rtt = outcome.delay;
        *wait.done = true;
      });
  ep.channel->set_message_handler([this, id](const of::Message& msg) {
    auto it = reply_cbs_.find(msg.xid);
    if (it == reply_cbs_.end()) {
      if (unsolicited_) unsolicited_(id, msg);
      return;
    }
    auto cb = std::move(it->second);
    reply_cbs_.erase(it);
    cb(msg);
  });

  endpoints_.push_back(std::move(ep));
  topo_.add_node(profile.name + "#" + std::to_string(id));
  if (telemetry_ != nullptr) attach_telemetry(id);
  return id;
}

void Network::attach_telemetry(SwitchId id) {
  Endpoint& ep = endpoint(id);
  ep.channel->set_telemetry(telemetry_, id);
  telemetry_->trace.set_lane_name(
      id, ep.sw->profile().name + " s" + std::to_string(id));
}

void Network::set_telemetry(telemetry::Telemetry* t) {
  telemetry_ = t;
  for (SwitchId id = 1; id <= endpoints_.size(); ++id) {
    if (telemetry_ != nullptr) {
      attach_telemetry(id);
    } else {
      endpoints_[id - 1].channel->set_telemetry(nullptr, id);
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->trace.set_lane_name(telemetry::TraceCollector::kControllerLane,
                                    "controller");
  }
}

Network::Endpoint& Network::endpoint(SwitchId id) {
  assert(id >= 1 && id <= endpoints_.size());
  return endpoints_[id - 1];
}

switchsim::SimulatedSwitch& Network::sw(SwitchId id) { return *endpoint(id).sw; }

ControlChannel& Network::channel(SwitchId id) { return *endpoint(id).channel; }

const ChannelStats& Network::stats(SwitchId id) const {
  assert(id >= 1 && id <= endpoints_.size());
  return endpoints_[id - 1].channel->stats();
}

FaultInjector& Network::enable_faults(SwitchId id, const FaultConfig& config) {
  Endpoint& ep = endpoint(id);
  ep.injector = std::make_unique<FaultInjector>(config);
  ep.channel->attach_fault_injector(ep.injector.get());
  return *ep.injector;
}

FaultInjector* Network::fault_injector(SwitchId id) {
  return endpoint(id).injector.get();
}

std::uint64_t Network::crash_count(SwitchId id) const {
  assert(id >= 1 && id <= endpoints_.size());
  return endpoints_[id - 1].channel->crash_count();
}

void Network::stall_agent(SwitchId id, SimDuration duration) {
  endpoint(id).channel->stall_agent(duration);
}

void Network::set_misbehavior(SwitchId id,
                              switchsim::MisbehaviorProfile profile) {
  // Schedule a no-op ECHO at each event time: its arrival sweeps the switch
  // (activating the event) and drains any fabricated FLOW_REMOVED notices —
  // the same trick set_link_state uses to flush PORT_STATUS.
  std::vector<SimTime> pokes;
  pokes.reserve(profile.events.size());
  for (const auto& ev : profile.events) pokes.push_back(ev.at);
  sw(id).set_misbehavior(std::move(profile));
  for (const SimTime at : pokes) {
    events_.schedule_at(at, [this, id]() {
      endpoint(id).channel->send(of::Message{next_xid(), of::EchoRequest{}});
    });
  }
}

Network::PumpClock::PumpClock(Network& net) : net_(net) {
  if (net_.pump_depth_++ == 0) begin_ = std::chrono::steady_clock::now();
}

Network::PumpClock::~PumpClock() {
  if (--net_.pump_depth_ != 0) return;
  net_.wall_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin_)
          .count());
}

void Network::run_all() {
  const PumpClock clock(*this);
  events_.run();
}

bool Network::run_until_done(const bool& done, SimDuration timeout) {
  const PumpClock clock(*this);
  if (timeout.ns() == 0) {
    while (!done && events_.step()) {
    }
    return done;
  }
  const SimTime deadline = events_.now() + timeout;
  while (!done && !events_.empty() && events_.peek_time() <= deadline) {
    events_.step();
  }
  // Waiting out a timeout costs real (virtual) time even when the queue has
  // nothing left before the deadline. Without this, a retry loop spins at a
  // frozen clock and can never outlast a fault window — a rebooting agent
  // looked permanently down to Reconciler::read_table's back-to-back retries.
  if (!done) events_.run_until(deadline);
  return done;
}

Network::InstallResult Network::install(SwitchId id, const of::FlowMod& fm) {
  InstallResult result;
  bool done = false;
  const std::uint32_t xid = next_xid();
  flow_mod_cbs_[xid] = [&](const FlowModResult& res) {
    result.accepted = res.accepted;
    result.completed_at = res.completed_at;
    done = true;
  };
  endpoint(id).channel->send(of::Message{xid, fm});
  if (!run_until_done(done, {})) {
    // Command or its completion notice lost; drop the callback so a late
    // duplicate cannot fire into a dead stack frame.
    flow_mod_cbs_.erase(xid);
    result.lost = true;
  }
  return result;
}

void Network::post_flow_mod_ex(SwitchId id, const of::FlowMod& fm,
                               CompletionEx done) {
  const std::uint32_t xid = next_xid();
  flow_mod_cbs_[xid] = std::move(done);
  endpoint(id).channel->send(of::Message{xid, fm});
}

void Network::post_flow_mod_batch(SwitchId id, std::span<const of::FlowMod> fms,
                                  const CompletionEx& done_each) {
  std::vector<of::Message> msgs;
  msgs.reserve(fms.size());
  for (const auto& fm : fms) {
    const std::uint32_t xid = next_xid();
    flow_mod_cbs_[xid] = done_each;
    msgs.push_back(of::Message{xid, fm});
  }
  endpoint(id).channel->send_batch(msgs);
}

SimTime Network::barrier_sync(SwitchId id) {
  const auto arrival = try_barrier_sync(id);
  assert(arrival.has_value());
  return arrival.value_or(events_.now());
}

std::optional<SimTime> Network::try_barrier_sync(SwitchId id,
                                                SimDuration timeout) {
  const std::uint32_t xid = next_xid();
  bool done = false;
  SimTime arrival{};
  reply_cbs_[xid] = [&](const of::Message& msg) {
    if (!std::holds_alternative<of::BarrierReply>(msg.body)) return;
    arrival = events_.now();
    done = true;
  };
  endpoint(id).channel->send(of::Message{xid, of::BarrierRequest{}});
  if (!run_until_done(done, timeout)) {
    reply_cbs_.erase(xid);
    return std::nullopt;
  }
  return arrival;
}

std::uint32_t Network::post_echo(SwitchId id, std::function<void()> on_reply) {
  const std::uint32_t xid = next_xid();
  reply_cbs_[xid] = [cb = std::move(on_reply)](const of::Message&) { cb(); };
  endpoint(id).channel->send(of::Message{xid, of::EchoRequest{}});
  return xid;
}

void Network::cancel_reply(std::uint32_t xid) { reply_cbs_.erase(xid); }

Network::EpochClaimResult Network::claim_epoch_sync(SwitchId id,
                                                    std::uint32_t epoch,
                                                    SimDuration timeout) {
  bool done = false;
  EpochClaimResult result;
  const std::uint32_t xid = next_xid();
  reply_cbs_[xid] = [&](const of::Message& msg) {
    if (const auto* vendor = std::get_if<of::Vendor>(&msg.body)) {
      if (const auto payload = of::decode_epoch_payload(vendor->data);
          payload.has_value() &&
          payload->subtype == of::kEpochClaimReplySubtype) {
        result.lost = false;
        result.accepted = (payload->flags & of::kEpochClaimAccepted) != 0;
        result.switch_epoch = payload->epoch;
      }
    }
    done = true;
  };
  of::Vendor claim;
  claim.vendor_id = of::kTangoVendorId;
  claim.data = of::encode_epoch_payload(of::kEpochClaimSubtype, epoch);
  endpoint(id).channel->send(of::Message{xid, std::move(claim)});
  if (!run_until_done(done, timeout)) reply_cbs_.erase(xid);
  return result;
}

template <typename Reply, typename Request>
Reply Network::request_reply(SwitchId id, Request req) {
  const std::uint32_t xid = next_xid();
  Reply out{};
  bool done = false;
  reply_cbs_[xid] = [&](const of::Message& msg) {
    if (const auto* typed = std::get_if<Reply>(&msg.body)) out = *typed;
    done = true;
  };
  endpoint(id).channel->send(of::Message{xid, std::move(req)});
  if (!run_until_done(done, {})) {
    // Request or reply lost to faults: return a default-constructed reply
    // rather than wedging the (sequential) caller.
    reply_cbs_.erase(xid);
    log::warn("network: stats request lost, returning empty reply");
  }
  return out;
}

of::FlowStatsReply Network::flow_stats_sync(SwitchId id, const of::Match& filter) {
  of::FlowStatsRequest req;
  req.match = filter;
  return request_reply<of::FlowStatsReply>(id, std::move(req));
}

std::optional<of::FlowStatsReply> Network::try_flow_stats(SwitchId id,
                                                          const of::Match& filter,
                                                          SimDuration timeout) {
  const std::uint32_t xid = next_xid();
  bool done = false;
  of::FlowStatsReply out;
  reply_cbs_[xid] = [&](const of::Message& msg) {
    if (const auto* typed = std::get_if<of::FlowStatsReply>(&msg.body)) {
      out = *typed;
      done = true;
    }
  };
  of::FlowStatsRequest req;
  req.match = filter;
  endpoint(id).channel->send(of::Message{xid, std::move(req)});
  if (!run_until_done(done, timeout)) {
    reply_cbs_.erase(xid);
    return std::nullopt;
  }
  return out;
}

of::TableStatsReply Network::table_stats_sync(SwitchId id) {
  return request_reply<of::TableStatsReply>(id, of::TableStatsRequest{});
}

of::AggregateStatsReply Network::aggregate_stats_sync(SwitchId id,
                                                      const of::Match& filter) {
  of::AggregateStatsRequest req;
  req.match = filter;
  return request_reply<of::AggregateStatsReply>(id, std::move(req));
}

of::DescStatsReply Network::description_sync(SwitchId id) {
  return request_reply<of::DescStatsReply>(id, of::DescStatsRequest{});
}

of::PortStatsReply Network::port_stats_sync(SwitchId id, std::uint16_t port_no) {
  of::PortStatsRequest req;
  req.port_no = port_no;
  return request_reply<of::PortStatsReply>(id, std::move(req));
}

of::GetConfigReply Network::get_config_sync(SwitchId id) {
  return request_reply<of::GetConfigReply>(id, of::GetConfigRequest{});
}

void Network::set_link_state(std::size_t link_index, bool up) {
  topo_.set_link_state(link_index, up);
  const auto& link = topo_.link(link_index);
  const auto port = port_for_link(link_index);
  for (const NodeId node : {link.a, link.b}) {
    const SwitchId id = switch_of(node);
    if (id >= 1 && id <= endpoints_.size()) {
      sw(id).set_port_link(port, up);
      // Deliver the queued PORT_STATUS through the channel (a no-op
      // message arrival triggers the drain).
      endpoint(id).channel->send(of::Message{next_xid(), of::EchoRequest{}});
    }
  }
}

Network::ProbeResult Network::probe(SwitchId id,
                                    const of::PacketHeader& header) {
  const std::uint32_t xid = next_xid();
  // Rewrite the one PACKET_OUT every probe sends: send() encodes it before
  // it returns, so a probe nested in the wait below may rewrite it again.
  auto& po = std::get<of::PacketOut>(probe_out_.body);
  probe_out_.xid = xid;
  po.in_port = header.in_port;
  of::Packet pkt;
  pkt.header = header;
  pkt.encode(po.data);

  ProbeResult result;
  bool done = false;
  probe_waits_.push_back(ProbeWait{xid, &result, &done});
  endpoint(id).channel->send(probe_out_);
  if (!run_until_done(done, {})) {
    std::erase_if(probe_waits_,
                  [xid](const ProbeWait& w) { return w.xid == xid; });
    result.lost = true;
  }
  return result;
}

}  // namespace tango::net
