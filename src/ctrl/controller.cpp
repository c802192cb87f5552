#include "ctrl/controller.h"

namespace nicemc::ctrl {

ControllerState::ControllerState(const ControllerState& o)
    : app(o.app ? o.app->clone() : nullptr),
      next_xid(o.next_xid),
      pending_stats(o.pending_stats),
      stats_rounds(o.stats_rounds),
      pending_commands(o.pending_commands),
      next_of_seq(o.next_of_seq) {}

ControllerState& ControllerState::operator=(const ControllerState& o) {
  if (this == &o) return *this;
  app = o.app ? o.app->clone() : nullptr;
  next_xid = o.next_xid;
  pending_stats = o.pending_stats;
  stats_rounds = o.stats_rounds;
  pending_commands = o.pending_commands;
  next_of_seq = o.next_of_seq;
  return *this;
}

void ControllerState::serialize(util::Ser& s, bool canonical) const {
  s.put_tag('C');
  if (app) app->serialize(s);
  s.put_u32(next_xid);
  s.put_u32(static_cast<std::uint32_t>(pending_stats.size()));
  for (of::SwitchId sw : pending_stats) s.put_u32(sw);
  s.put_u32(stats_rounds);
  s.put_u32(static_cast<std::uint32_t>(pending_commands.size()));
  for (const auto& [sw, msg] : pending_commands) {
    s.put_u32(sw);
    // Ports and buffer ids in a parked command name entries of its target
    // switch. This component cannot see the buffer, so a canonical buffer
    // id reads as stale here; SystemState::serialize_trailer names it.
    const util::Renamer::FormScope form(sw, canonical);
    of::serialize_message(s, msg);
  }
}

util::Hash128 ControllerState::app_hash() const {
  util::Ser s;
  if (app) app->serialize(s);
  return s.hash();
}

DispatchResult dispatch_message(const App& app, ControllerState& state,
                                of::SwitchId from,
                                const of::ToController& msg) {
  DispatchResult result;
  Ctx ctx(&state.next_xid);
  if (const auto* pin = std::get_if<of::PacketIn>(&msg)) {
    result.was_packet_in = true;
    result.packet_in = *pin;
    app.packet_in(*state.app, ctx, from, pin->in_port,
                  sym::SymPacket::concrete(pin->packet.hdr), pin->buffer_id,
                  pin->reason);
  } else if (const auto* sr = std::get_if<of::StatsReply>(&msg)) {
    state.pending_stats.erase(from);
    app.stats_in(*state.app, ctx, from, SymStats::concrete(*sr));
  } else if (const auto* ps = std::get_if<of::PortStatus>(&msg)) {
    app.handle_port_status(*state.app, ctx, from, ps->port, ps->up);
  } else {
    const auto& br = std::get<of::BarrierReply>(msg);
    app.barrier_in(*state.app, ctx, from, br.xid);
  }
  result.commands = ctx.take_commands();
  return result;
}

std::vector<Command> dispatch_stats_with_values(
    const App& app, ControllerState& state, of::SwitchId from,
    const std::vector<std::pair<of::PortId, std::uint64_t>>& tx_bytes) {
  state.pending_stats.erase(from);
  Ctx ctx(&state.next_xid);
  SymStats stats;
  for (const auto& [port, bytes] : tx_bytes) {
    stats.tx_bytes.emplace(port, sym::Value(bytes, 32));
  }
  app.stats_in(*state.app, ctx, from, stats);
  return ctx.take_commands();
}

}  // namespace nicemc::ctrl
