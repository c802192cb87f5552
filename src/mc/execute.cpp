#include "mc/execute.h"

#include <cassert>
#include <typeinfo>

#include "hosts/server.h"
#include "util/telemetry.h"

namespace nicemc::mc {

namespace {

/// Does this command forward/release the packet buffered under `buffer_id`
/// at switch `sw`? (Used to report whether a handler remembered to tell the
/// switch what to do with the triggering packet.)
bool releases_buffer(const ctrl::Command& c, of::SwitchId sw,
                     std::uint32_t buffer_id) {
  const auto* po = std::get_if<ctrl::CmdPacketOut>(&c);
  return po != nullptr && po->sw == sw && po->msg.buffer_id == buffer_id;
}

/// The state to hand monitor i: its slot in `state`, unshared, or when the
/// slot holds an EmptyPropState (nothing to write), `scratch`, so that
/// the slot's node and the memos on it stay shared. The type_info
/// addresses are compared because that is one load: equal addresses mean
/// one type, and a second copy of EmptyPropState's type_info would only
/// cost an unshare.
PropState& monitor_state(SystemState& state, std::size_t i,
                         EmptyPropState& scratch) {
  if (&typeid(state.prop(i)) == &typeid(EmptyPropState)) return scratch;
  return state.prop_mut(i);
}

}  // namespace

SystemState Executor::make_initial() const {
  assert(cfg_.topology != nullptr && cfg_.app != nullptr);
  assert(cfg_.host_behavior.size() == cfg_.topology->hosts().size());

  SystemState st;
  st.ctrl_mut().app = cfg_.app->make_initial_state();

  for (const topo::SwitchSpec& spec : cfg_.topology->switches()) {
    of::Switch sw(spec.id, spec.ports, cfg_.switch_buffer_capacity);
    // enable_channel_faults arms every switch; callers can still narrow
    // the fault surface by clearing individual switches' flags afterwards.
    sw.pkt_channel_faults = {.may_drop = cfg_.enable_channel_faults,
                             .may_duplicate = cfg_.enable_channel_faults};
    st.add_switch(std::move(sw));
  }
  for (const topo::HostSpec& spec : cfg_.topology->hosts()) {
    hosts::HostState hs;
    hs.id = spec.id;
    hs.sw = spec.attach_switch;
    hs.port = spec.attach_port;
    hs.burst = cfg_.host_behavior[spec.id].initial_burst;
    st.add_host(std::move(hs));
  }
  for (const auto& prop : props_) st.add_prop(prop->make_state());

  // Dispatch switch_join for every switch and apply resulting commands
  // synchronously (deterministic setup; not part of the explored space).
  for (const topo::SwitchSpec& spec : cfg_.topology->switches()) {
    ctrl::ControllerState& ctrl = st.ctrl_mut();
    ctrl::Ctx ctx(&ctrl.next_xid);
    cfg_.app->switch_join(*ctrl.app, ctx, spec.id);
    EventList ignored;
    push_commands(st, ctx.take_commands(), ignored);
  }
  for (std::size_t i = 0; i < st.switch_count(); ++i) {
    EventList ignored;
    while (st.sw(i).can_process_of()) {
      run_switch_of(st, static_cast<of::SwitchId>(i), ignored);
    }
  }
  return st;
}

std::vector<Transition> Executor::enabled(const SystemState& state,
                                          DiscoveryCache& cache) const {
  // Covers symbolic-discovery candidate checks too: discovery runs as
  // part of enumerating the enabled set.
  const util::PhaseMarks phase(util::Phase::kEnabled);
  std::vector<Transition> out;

  // --- controller ---
  if (cfg_.fine_interleaving && !state.ctrl().pending_commands.empty()) {
    out.push_back(Transition{.kind = TKind::kCtrlApplyCommand});
  }
  for (const of::Switch& sw : state.switches()) {
    if (sw.of_out().empty()) continue;
    const bool head_is_stats =
        std::holds_alternative<of::StatsReply>(sw.of_out().front());
    if (head_is_stats && cfg_.symbolic_discovery) {
      const auto vals = cache.stats_classes(cfg_, state, sw.id);
      for (const StatsValues& v : *vals) {
        out.push_back(Transition{.kind = TKind::kCtrlProcessStats,
                                 .a = sw.id,
                                 .stats = v});
      }
      continue;
    }
    out.push_back(Transition{.kind = TKind::kCtrlDispatch, .a = sw.id});
  }
  const auto externals = cfg_.app->external_events(*state.ctrl().app);
  for (std::size_t i = 0; i < externals.size(); ++i) {
    out.push_back(Transition{.kind = TKind::kCtrlExternal,
                             .aux = static_cast<std::uint32_t>(i)});
  }
  for (const of::Switch& sw : state.switches()) {
    if (cfg_.app->wants_stats(*state.ctrl().app, sw.id) &&
        !state.ctrl().pending_stats.contains(sw.id) &&
        state.ctrl().stats_rounds < cfg_.max_stats_rounds) {
      out.push_back(Transition{.kind = TKind::kCtrlRequestStats, .a = sw.id});
    }
  }

  // --- switches ---
  const bool pkt_faults_ok =
      cfg_.max_packet_faults == kUnboundedFaults ||
      state.faults.packet_faults < cfg_.max_packet_faults;
  const bool channel_losses_ok =
      cfg_.max_channel_losses == kUnboundedFaults ||
      state.faults.channel_losses < cfg_.max_channel_losses;
  const bool restarts_ok =
      cfg_.max_switch_restarts == kUnboundedFaults ||
      state.faults.switch_restarts < cfg_.max_switch_restarts;
  for (const of::Switch& sw : state.switches()) {
    if (sw.can_process_pkt()) {
      out.push_back(Transition{.kind = TKind::kSwitchProcessPkt, .a = sw.id});
    }
    if (sw.can_process_of()) {
      out.push_back(Transition{.kind = TKind::kSwitchProcessOf, .a = sw.id});
    }
    if (cfg_.enable_rule_expiry) {
      for (std::size_t idx : sw.expirable_rules()) {
        out.push_back(Transition{.kind = TKind::kRuleExpire,
                                 .a = sw.id,
                                 .aux = static_cast<std::uint32_t>(idx)});
      }
    }
    if (cfg_.enable_channel_faults && pkt_faults_ok) {
      for (const auto& [port, chan] : sw.in_ports()) {
        if (chan.empty()) continue;
        if (sw.pkt_channel_faults.may_drop) {
          out.push_back(Transition{.kind = TKind::kChannelDropHead,
                                   .a = sw.id,
                                   .aux = port});
        }
        if (sw.pkt_channel_faults.may_duplicate &&
            chan.size() < cfg_.channel_depth_limit) {
          out.push_back(Transition{.kind = TKind::kChannelDupHead,
                                   .a = sw.id,
                                   .aux = port});
        }
      }
    }
    if (cfg_.enable_ctrl_channel_faults) {
      if (sw.ctrl_channel_down()) {
        // Reconnect is free: the number of disconnects is what's bounded.
        out.push_back(Transition{.kind = TKind::kCtrlChannelUp, .a = sw.id});
      } else if (channel_losses_ok) {
        out.push_back(Transition{.kind = TKind::kCtrlChannelDown,
                                 .a = sw.id});
      }
    }
    if (cfg_.enable_switch_restarts && restarts_ok) {
      out.push_back(Transition{.kind = TKind::kSwitchRestart, .a = sw.id});
    }
  }

  // --- topology links (fault model) ---
  if (cfg_.enable_link_faults) {
    const bool link_failures_ok =
        cfg_.max_link_failures == kUnboundedFaults ||
        state.faults.link_failures < cfg_.max_link_failures;
    const auto& links = cfg_.topology->links();
    for (std::size_t li = 0; li < links.size(); ++li) {
      const topo::LinkSpec& l = links[li];
      const bool down = state.sw(l.sw_a).down_ports().contains(l.port_a);
      if (down) {
        if (cfg_.enable_link_repair) {
          out.push_back(Transition{.kind = TKind::kLinkUp,
                                   .a = static_cast<std::uint32_t>(li)});
        }
      } else if (link_failures_ok) {
        out.push_back(Transition{.kind = TKind::kLinkDown,
                                 .a = static_cast<std::uint32_t>(li)});
      }
    }
  }

  // --- hosts ---
  for (const hosts::HostState& hs : state.hosts()) {
    const hosts::HostBehavior& hb = cfg_.host_behavior[hs.id];
    if (!hs.input.empty()) {
      out.push_back(Transition{.kind = TKind::kHostRecv, .a = hs.id});
    }
    if (!hs.pending_replies.empty()) {
      out.push_back(Transition{.kind = TKind::kHostSendReply, .a = hs.id});
    }
    if (hb.can_move) {
      const auto& alts = cfg_.topology->host(hs.id).alt_locations;
      for (std::size_t i = 0; i < alts.size(); ++i) {
        if ((hs.moves_used & (1u << i)) == 0) {
          out.push_back(Transition{.kind = TKind::kHostMove,
                                   .a = hs.id,
                                   .aux = static_cast<std::uint32_t>(i)});
        }
      }
    }
    // A duplicate SYN is a packet-level fault like a channel dup, and
    // spends from the same FaultBudget class (it predates the budget and
    // used to be free, letting --faults exclude channels but not this).
    if (hb.can_dup && !hs.dup_used && hs.sends_done > 0 && hs.burst > 0 &&
        !hb.script.empty() && pkt_faults_ok) {
      out.push_back(Transition{.kind = TKind::kHostSendDup, .a = hs.id});
    }
    if (!hs.can_send(hb)) continue;
    if (hb.discovery_sends && cfg_.symbolic_discovery) {
      const auto pkts = cache.packets(cfg_, state, hs.id);
      for (const sym::PacketFields& f : *pkts) {
        out.push_back(Transition{.kind = TKind::kHostSendDiscovered,
                                 .a = hs.id,
                                 .fields = f});
      }
    } else if (!hb.discovery_sends) {
      out.push_back(Transition{.kind = TKind::kHostSendScript, .a = hs.id});
    }
  }
  return out;
}

void Executor::inject_host_packet(SystemState& state, of::HostId host,
                                  const sym::PacketFields& hdr,
                                  std::uint32_t flow,
                                  EventList& events) const {
  hosts::HostState& hs = state.host_mut(host);
  of::Packet pkt;
  pkt.hdr = hdr;
  pkt.flow_id = flow;
  pkt.uid = state.next_uid++;
  pkt.copy_id = state.next_copy++;
  pkt.sender = host;
  events.push_back(EvPacketSent{host, pkt});
  state.sw_mut(hs.sw).enqueue_packet(hs.port, std::move(pkt));
}

void Executor::deliver(SystemState& state, of::SwitchId from_sw,
                       of::PortId out_port, of::Packet pkt,
                       EventList& events) const {
  if (state.sw(from_sw).down_ports().contains(out_port)) {
    // The attached link is down: the copy is lost on the wire. A rule that
    // keeps forwarding here after the failure is a stale-state black hole.
    events.push_back(EvPacketDeadPort{from_sw, out_port, std::move(pkt)});
    return;
  }
  const topo::PortPeer peer = cfg_.topology->switch_peer(from_sw, out_port);
  if (peer.kind == topo::PortPeer::Kind::kSwitchLink) {
    state.sw_mut(peer.sw).enqueue_packet(peer.port, std::move(pkt));
    return;
  }
  for (std::size_t i = 0; i < state.host_count(); ++i) {
    const hosts::HostState& hs = state.host(i);
    if (hs.sw == from_sw && hs.port == out_port) {
      state.host_mut(i).input.push(std::move(pkt));
      return;
    }
  }
  // Nothing attached (e.g. the host moved away): the copy vanishes.
  events.push_back(EvPacketDeadPort{from_sw, out_port, std::move(pkt)});
}

void Executor::handle_outcome(SystemState& state, of::SwitchId sw,
                              const of::PacketOutcome& oc,
                              EventList& events) const {
  events.push_back(EvPacketProcessed{
      .sw = sw,
      .in_port = oc.in_port,
      .pkt = oc.packet,
      .copies_out = static_cast<int>(oc.forwards.size()),
      .to_controller = oc.to_controller,
      .dropped_by_rule = oc.dropped_by_rule && !oc.explicit_discard,
      .dropped_buffer_full = oc.dropped_buffer_full,
      .dropped_no_ctrl = oc.dropped_no_ctrl,
      .revisited = oc.revisited,
      .from_buffer = oc.from_buffer,
      .explicit_discard = oc.explicit_discard,
  });
  for (const auto& [port, pkt] : oc.forwards) {
    of::Packet copy = pkt;
    copy.copy_id = state.next_copy++;
    deliver(state, sw, port, std::move(copy), events);
  }
}

void Executor::run_switch_pkt(SystemState& state, of::SwitchId sw,
                              EventList& events) const {
  for (const of::PacketOutcome& oc : state.sw_mut(sw).process_pkt()) {
    handle_outcome(state, sw, oc, events);
  }
}

void Executor::run_switch_of(SystemState& state, of::SwitchId sw,
                             EventList& events) const {
  const of::OfOutcome oc = state.sw_mut(sw).process_of();
  if (oc.installed) events.push_back(EvRuleInstalled{sw, *oc.installed});
  if (oc.removed_match) {
    events.push_back(EvRuleRemoved{sw, *oc.removed_match, oc.removed_count});
  }
  if (oc.packet) {
    if (!oc.packet->from_buffer && !oc.packet->explicit_discard) {
      events.push_back(EvCtrlPacketInjected{sw, oc.packet->packet});
    }
    handle_outcome(state, sw, *oc.packet, events);
  }
}

void Executor::ctrl_dispatch(SystemState& state, of::SwitchId sw,
                             EventList& events) const {
  const of::ToController msg = state.sw_mut(sw).pop_of_out();
  ctrl::DispatchResult res =
      ctrl::dispatch_message(*cfg_.app, state.ctrl_mut(), sw, msg);
  if (res.was_packet_in) {
    events.push_back(EvPacketIn{sw, res.packet_in.in_port,
                                res.packet_in.packet,
                                res.packet_in.reason});
    EvPacketInHandled handled;
    handled.sw = sw;
    handled.in_port = res.packet_in.in_port;
    handled.pkt = res.packet_in.packet;
    for (const ctrl::Command& c : res.commands) {
      if (const auto* ir = std::get_if<ctrl::CmdInstallRule>(&c)) {
        handled.installs.emplace_back(ir->sw, ir->rule);
      }
      if (releases_buffer(c, sw, res.packet_in.buffer_id)) {
        handled.sent_packet_out = true;
      }
    }
    events.push_back(std::move(handled));
  } else if (std::holds_alternative<of::StatsReply>(msg)) {
    events.push_back(EvStatsHandled{sw});
  } else if (const auto* ps = std::get_if<of::PortStatus>(&msg)) {
    events.push_back(EvPortStatusHandled{sw, ps->port, ps->up});
  }
  push_commands(state, std::move(res.commands), events);
}

void Executor::push_commands(SystemState& state,
                             std::vector<ctrl::Command> cmds,
                             EventList& events) const {
  (void)events;
  if (cmds.empty()) return;
  ctrl::ControllerState& ctrl = state.ctrl_mut();
  for (ctrl::Command& c : cmds) {
    const of::SwitchId target = ctrl::command_target(c);
    of::ToSwitch msg = ctrl::command_to_message(c);
    // Controller-constructed packets (bufferless packet_out) get their
    // model identity here, deterministically.
    if (auto* po = std::get_if<of::PacketOut>(&msg)) {
      if (po->buffer_id == of::kNoBuffer && po->packet.has_value()) {
        po->packet->uid = state.next_uid++;
        po->packet->copy_id = state.next_copy++;
      }
    }
    if (cfg_.fine_interleaving) {
      ctrl.pending_commands.emplace_back(target, std::move(msg));
    } else if (!state.sw(target).ctrl_channel_down()) {
      // A message sent to a disconnected switch is lost in transit.
      state.sw_mut(target).push_of(std::move(msg), ctrl.next_of_seq++);
    }
  }
}

void Executor::replay_handshake(SystemState& state, of::SwitchId sw,
                                EventList& events) const {
  ctrl::ControllerState& ctrl = state.ctrl_mut();
  // An outstanding stats request to this switch can never be answered
  // across a reconnect; clear it so stats polling stays live.
  ctrl.pending_stats.erase(sw);
  ctrl::Ctx ctx(&ctrl.next_xid);
  cfg_.app->switch_leave(*ctrl.app, ctx, sw);
  cfg_.app->switch_join(*ctrl.app, ctx, sw);
  push_commands(state, ctx.take_commands(), events);
  if (!state.sw(sw).down_ports().empty()) {
    // emit_port_status writes the OpenFlow channel part only, so the
    // down-port set stays valid while it is walked.
    of::Switch& swm = state.sw_mut(sw);
    for (of::PortId p : swm.down_ports()) {
      swm.emit_port_status(p, /*up=*/false);
    }
  }
}

void Executor::drain_lockstep(SystemState& state, EventList& events) const {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < state.switch_count(); ++i) {
      while (state.sw(i).can_process_of()) {
        run_switch_of(state, static_cast<of::SwitchId>(i), events);
        progress = true;
      }
    }
    for (std::size_t i = 0; i < state.switch_count(); ++i) {
      if (state.sw(i).of_out().empty()) continue;
      // Stats replies are consumed here too, with their *concrete* values:
      // in lock-step there is no delayed-statistics nondeterminism to
      // discover. This is why NO-DELAY misses the load-dependent TE bugs
      // (BUG-X, BUG-XI), matching Table 2 of the paper.
      ctrl_dispatch(state, static_cast<of::SwitchId>(i), events);
      progress = true;
    }
  }
}

void Executor::apply(SystemState& state, const Transition& t,
                     std::vector<Violation>& violations) const {
  const util::PhaseMarks phase(util::Phase::kApply);
  EventList events;
  switch (t.kind) {
    case TKind::kHostSendScript: {
      hosts::HostState& hs = state.host_mut(t.a);
      const hosts::HostBehavior& hb = cfg_.host_behavior[t.a];
      assert(hs.sends_done < static_cast<int>(hb.script.size()));
      const hosts::ScriptEntry& e =
          hb.script[static_cast<std::size_t>(hs.sends_done)];
      inject_host_packet(state, t.a, e.hdr, e.flow_id, events);
      ++hs.sends_done;
      --hs.burst;
      break;
    }
    case TKind::kHostSendDiscovered: {
      hosts::HostState& hs = state.host_mut(t.a);
      // Discovered packets carry a synthetic flow tag (their uid); flow
      // grouping for FLOW-IR uses App::is_same_flow on the headers instead.
      inject_host_packet(state, t.a, t.fields, state.next_uid, events);
      ++hs.sends_done;
      --hs.burst;
      break;
    }
    case TKind::kHostSendDup: {
      hosts::HostState& hs = state.host_mut(t.a);
      const hosts::HostBehavior& hb = cfg_.host_behavior[t.a];
      const hosts::ScriptEntry& e = hb.script.front();
      inject_host_packet(state, t.a, e.hdr, e.flow_id, events);
      hs.dup_used = true;
      --hs.burst;
      if (cfg_.max_packet_faults != kUnboundedFaults) {
        ++state.faults.packet_faults;
      }
      break;
    }
    case TKind::kHostSendReply: {
      hosts::HostState& hs = state.host_mut(t.a);
      assert(!hs.pending_replies.empty());
      const hosts::PendingReply r = hs.pending_replies.front();
      hs.pending_replies.erase(hs.pending_replies.begin());
      inject_host_packet(state, t.a, r.hdr, r.flow_id, events);
      break;
    }
    case TKind::kHostRecv: {
      hosts::HostState& hs = state.host_mut(t.a);
      of::Packet pkt = hs.input.pop();
      ++hs.received;
      ++hs.burst;  // PKT-SEQ replenishment: +1 per received packet
      const hosts::HostBehavior& hb = cfg_.host_behavior[t.a];
      const topo::HostSpec& spec = cfg_.topology->host(t.a);
      events.push_back(EvPacketDelivered{t.a, pkt, spec.mac});
      if (hb.echo && hosts::should_reply(spec, pkt)) {
        hs.pending_replies.push_back(hosts::echo_reply(spec, pkt));
      }
      break;
    }
    case TKind::kHostMove: {
      hosts::HostState& hs = state.host_mut(t.a);
      const auto& alts = cfg_.topology->host(t.a).alt_locations;
      const auto [to_sw, to_port] = alts[t.aux];
      hs.sw = to_sw;
      hs.port = to_port;
      hs.moves_used |= static_cast<std::uint8_t>(1u << t.aux);
      events.push_back(EvHostMoved{t.a, to_sw, to_port});
      break;
    }
    case TKind::kSwitchProcessPkt:
      run_switch_pkt(state, t.a, events);
      break;
    case TKind::kSwitchProcessOf:
      run_switch_of(state, t.a, events);
      break;
    case TKind::kCtrlDispatch:
      ctrl_dispatch(state, t.a, events);
      break;
    case TKind::kCtrlApplyCommand: {
      assert(!state.ctrl().pending_commands.empty());
      ctrl::ControllerState& ctrl = state.ctrl_mut();
      auto [target, msg] = std::move(ctrl.pending_commands.front());
      ctrl.pending_commands.erase(ctrl.pending_commands.begin());
      if (!state.sw(target).ctrl_channel_down()) {
        state.sw_mut(target).push_of(std::move(msg), ctrl.next_of_seq++);
      }
      break;
    }
    case TKind::kCtrlExternal: {
      ctrl::ControllerState& ctrl = state.ctrl_mut();
      ctrl::Ctx ctx(&ctrl.next_xid);
      cfg_.app->on_external(*ctrl.app, ctx, t.aux);
      push_commands(state, ctx.take_commands(), events);
      break;
    }
    case TKind::kCtrlRequestStats: {
      ctrl::ControllerState& ctrl = state.ctrl_mut();
      ctrl::Ctx ctx(&ctrl.next_xid);
      ctx.request_stats(t.a);
      ctrl.pending_stats.insert(t.a);
      ++ctrl.stats_rounds;
      push_commands(state, ctx.take_commands(), events);
      break;
    }
    case TKind::kCtrlProcessStats: {
      of::Switch& swm = state.sw_mut(t.a);
      assert(!swm.of_out().empty() &&
             std::holds_alternative<of::StatsReply>(swm.of_out().front()));
      swm.pop_of_out();
      auto cmds = ctrl::dispatch_stats_with_values(*cfg_.app,
                                                   state.ctrl_mut(), t.a,
                                                   t.stats);
      events.push_back(EvStatsHandled{t.a});
      push_commands(state, std::move(cmds), events);
      break;
    }
    case TKind::kRuleExpire: {
      of::Switch& swm = state.sw_mut(t.a);
      events.push_back(EvRuleExpired{t.a, swm.table().rules()[t.aux]});
      swm.expire_rule(t.aux);
      break;
    }
    case TKind::kChannelDropHead: {
      of::Switch& swm = state.sw_mut(t.a);
      auto& chan = swm.in_port_mut(t.aux);
      events.push_back(EvChannelDrop{t.a, t.aux, chan.front()});
      chan.drop_head();
      if (cfg_.max_packet_faults != kUnboundedFaults) {
        ++state.faults.packet_faults;
      }
      break;
    }
    case TKind::kChannelDupHead: {
      of::Switch& swm = state.sw_mut(t.a);
      auto& chan = swm.in_port_mut(t.aux);
      events.push_back(EvChannelDup{t.a, t.aux, chan.front()});
      chan.duplicate_head();
      if (cfg_.max_packet_faults != kUnboundedFaults) {
        ++state.faults.packet_faults;
      }
      break;
    }
    case TKind::kLinkDown: {
      const topo::LinkSpec& l = cfg_.topology->links()[t.a];
      state.sw_mut(l.sw_a).set_link(l.port_a, /*up=*/false);
      state.sw_mut(l.sw_b).set_link(l.port_b, /*up=*/false);
      if (cfg_.max_link_failures != kUnboundedFaults) {
        ++state.faults.link_failures;
      }
      events.push_back(EvLinkDown{t.a, l.sw_a, l.port_a, l.sw_b, l.port_b});
      break;
    }
    case TKind::kLinkUp: {
      const topo::LinkSpec& l = cfg_.topology->links()[t.a];
      state.sw_mut(l.sw_a).set_link(l.port_a, /*up=*/true);
      state.sw_mut(l.sw_b).set_link(l.port_b, /*up=*/true);
      events.push_back(EvLinkUp{t.a, l.sw_a, l.port_a, l.sw_b, l.port_b});
      break;
    }
    case TKind::kCtrlChannelDown: {
      const of::Switch::ChannelLoss loss =
          state.sw_mut(t.a).disconnect_ctrl();
      if (cfg_.max_channel_losses != kUnboundedFaults) {
        ++state.faults.channel_losses;
      }
      events.push_back(
          EvCtrlChannelDown{t.a, loss.lost_to_switch, loss.lost_to_ctrl});
      break;
    }
    case TKind::kCtrlChannelUp: {
      state.sw_mut(t.a).reconnect_ctrl();
      replay_handshake(state, t.a, events);
      events.push_back(EvCtrlChannelUp{t.a});
      break;
    }
    case TKind::kSwitchRestart: {
      const of::Switch::RestartSummary sum = state.sw_mut(t.a).restart();
      if (cfg_.max_switch_restarts != kUnboundedFaults) {
        ++state.faults.switch_restarts;
      }
      replay_handshake(state, t.a, events);
      events.push_back(
          EvSwitchRestart{t.a, sum.lost_rules, sum.lost_buffered});
      break;
    }
  }

  if (cfg_.no_delay) drain_lockstep(state, events);
  feed_properties(state, events, violations);
}

void Executor::at_quiescence(SystemState& state,
                             std::vector<Violation>& violations) const {
  const util::PhaseMarks phase(util::Phase::kPropertyCheck);
  EmptyPropState scratch;
  for (std::size_t i = 0; i < props_.size(); ++i) {
    props_[i]->at_quiescence(monitor_state(state, i, scratch), state,
                             violations);
  }
}

void Executor::feed_properties(SystemState& state, const EventList& events,
                               std::vector<Violation>& violations) const {
  // Monitors only react to events; with none, prop_mut() would unshare
  // and re-hash every monitor snapshot for nothing, and the phase scope
  // below would read the clock twice for nothing.
  if (events.empty()) return;
  // Nested inside kApply: the property slice is carved out of the apply
  // time, so the two phases never double-count.
  const util::PhaseMarks phase(util::Phase::kPropertyCheck);
  EmptyPropState scratch;
  for (std::size_t i = 0; i < props_.size(); ++i) {
    props_[i]->on_events(monitor_state(state, i, scratch), events, state,
                         violations);
  }
}

}  // namespace nicemc::mc
