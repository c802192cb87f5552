#include "mc/por/footprint.h"

#include <algorithm>
#include <utility>

#include "ctrl/commands.h"
#include "ctrl/controller.h"
#include "hosts/server.h"
#include "util/hash.h"
#include "util/ser.h"

namespace nicemc::mc::por {

namespace {

// Tags decorrelate the three key families (uid / MAC pair / IP pair).
constexpr std::uint64_t kUidTag = 0x756964ULL;
constexpr std::uint64_t kMacTag = 0x6d6163ULL;
constexpr std::uint64_t kIpTag = 0x6970ULL;

void add_hdr_keys(Footprint& fp, const sym::PacketFields& h) {
  // Unordered pairs: DirectPaths tracks a flow and its reverse, so a send
  // A→B must conflict with a delivery B→A.
  fp.key(util::hash_combine(util::hash_combine(kMacTag,
                                               std::min(h.eth_src, h.eth_dst)),
                            std::max(h.eth_src, h.eth_dst)));
  fp.key(util::hash_combine(util::hash_combine(kIpTag,
                                               std::min(h.ip_src, h.ip_dst)),
                            std::max(h.ip_src, h.ip_dst)));
}

void add_packet_keys(Footprint& fp, const of::Packet& p) {
  fp.key(util::hash_combine(kUidTag, p.uid));
  add_hdr_keys(fp, p.hdr);
}

/// Host currently attached to <sw, port>, if any (the executor's deliver()
/// resolution).
int attached_host(const SystemState& state, of::SwitchId sw, of::PortId port) {
  for (std::size_t i = 0; i < state.host_count(); ++i) {
    const hosts::HostState& hs = state.host(i);
    if (hs.sw == sw && hs.port == port) return static_cast<int>(i);
  }
  return -1;
}

/// Footprint of one simulated packet run through switch `sw`'s pipeline:
/// emissions resolved exactly like Executor::deliver against the current
/// topology and host attachments.
void add_outcome(Footprint& fp, const SystemConfig& cfg,
                 const SystemState& state, of::SwitchId sw,
                 const of::PacketOutcome& oc) {
  add_packet_keys(fp, oc.packet);
  if (oc.to_controller) fp.write(rid(Res::kSwOfOutTail, sw));
  if (oc.forwards.empty()) return;
  // Forward resolution reads the attachment map of this switch (a host
  // moving onto/off one of these ports changes where copies land) and the
  // switch's down-port set (link faults redirect copies into a dead port).
  fp.read(rid(Res::kSwAttach, sw));
  if (!cfg.canonical_flowtables) fp.write(rid(Res::kCopyCounter));
  for (const auto& [port, pkt] : oc.forwards) {
    add_packet_keys(fp, pkt);
    if (state.sw(sw).down_ports().contains(port)) {
      continue;  // mirror of Executor::deliver: dies at the down port
    }
    const topo::PortPeer peer = cfg.topology->switch_peer(sw, port);
    if (peer.kind == topo::PortPeer::Kind::kSwitchLink) {
      fp.write(rid(Res::kSwInTail, peer.sw, peer.port));
      continue;
    }
    const int h = attached_host(state, sw, port);
    if (h >= 0) fp.write(rid(Res::kHostInTail, static_cast<unsigned>(h)));
    // No peer and no host: the copy dies at the port (event only).
  }
}

/// Footprint of handler-emitted commands (Executor::push_commands).
void add_commands(Footprint& fp, const SystemConfig& cfg,
                  const std::vector<ctrl::Command>& cmds) {
  for (const ctrl::Command& c : cmds) {
    if (const auto* po = std::get_if<ctrl::CmdPacketOut>(&c)) {
      if (po->msg.buffer_id == of::kNoBuffer && po->msg.packet.has_value()) {
        // Bufferless packet_out mints a fresh packet identity.
        fp.write(rid(Res::kUidCounter));
        if (!cfg.canonical_flowtables) fp.write(rid(Res::kCopyCounter));
      }
    }
    if (!cfg.fine_interleaving) {
      fp.write(rid(Res::kSwOfInTail, ctrl::command_target(c)));
    }
    // FINE-INTERLEAVING parks commands in the controller's pending queue;
    // kCtrl (written by every controller transition) already covers it.
  }
}

void host_send_common(Footprint& fp, const SystemConfig& cfg,
                      const SystemState& state, std::uint32_t host) {
  const hosts::HostState& hs = state.host(host);
  fp.read(rid(Res::kHostLoc, host));
  fp.write(rid(Res::kSwInTail, hs.sw, hs.port));
  fp.write(rid(Res::kUidCounter));
  if (!cfg.canonical_flowtables) fp.write(rid(Res::kCopyCounter));
}

/// Conflict keys of every packet a channel wipe / restart destroys:
/// packet-keyed monitors account for those packets, so destroying them
/// order-interferes with any transition touching the same identities.
void add_wiped_packet_keys(Footprint& fp, const of::Switch& sw,
                           bool include_buffer) {
  for (const of::ToSwitch& m : sw.of_in().items()) {
    if (const auto* po = std::get_if<of::PacketOut>(&m)) {
      if (po->packet.has_value()) add_packet_keys(fp, *po->packet);
    }
  }
  for (const of::ToController& m : sw.of_out().items()) {
    if (const auto* pin = std::get_if<of::PacketIn>(&m)) {
      add_packet_keys(fp, pin->packet);
    }
  }
  if (include_buffer) {
    for (const auto& [bid, bp] : sw.buffer()) add_packet_keys(fp, bp.packet);
  }
}

/// Footprint of the kCtrlChannelUp / kSwitchRestart reconnect handshake
/// (Executor::replay_handshake): app handlers run, commands flow to their
/// targets, and every still-down port is reported over the new connection.
void add_handshake(Footprint& fp, const SystemConfig& cfg,
                   const SystemState& state, of::SwitchId sw) {
  fp.write(rid(Res::kCtrl));  // app state + pending_stats reset
  ctrl::ControllerState sim(state.ctrl());
  ctrl::Ctx ctx(&sim.next_xid);
  cfg.app->switch_leave(*sim.app, ctx, sw);
  cfg.app->switch_join(*sim.app, ctx, sw);
  add_commands(fp, cfg, ctx.take_commands());
  // The port-status replay reads down_ports (written under kSwAttach).
  fp.read(rid(Res::kSwAttach, sw));
  fp.write(rid(Res::kSwOfOutTail, sw));
}

}  // namespace

void Footprint::finish() {
  auto norm = [](std::vector<std::uint64_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  norm(reads);
  norm(writes);
  norm(keys);
}

void Footprint::serialize(util::Ser& s) const {
  auto put_ids = [&s](const std::vector<std::uint64_t>& v) {
    s.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const std::uint64_t x : v) s.put_u64(x);
  };
  put_ids(reads);
  put_ids(writes);
  put_ids(keys);
  s.put_bool(universal);
}

Footprint Footprint::deserialize(util::Des& d) {
  Footprint fp;
  auto get_ids = [&d](std::vector<std::uint64_t>& v) {
    const std::uint32_t n = d.get_u32();
    if (n > d.remaining() / sizeof(std::uint64_t)) d.fail();
    if (!d.ok()) return;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(d.get_u64());
  };
  get_ids(fp.reads);
  get_ids(fp.writes);
  get_ids(fp.keys);
  fp.universal = d.get_bool();
  return fp;
}

Footprint compute_footprint(const SystemConfig& cfg, const SystemState& state,
                            const Transition& t) {
  Footprint fp;
  if (cfg.no_delay) {
    // NO-DELAY runs drain_lockstep inside every apply: controller
    // dispatches and rule installs at arbitrary switches, none of it
    // attributable to this transition's own resources. Every transition
    // conflicts with every other — the reduction degenerates to the
    // unreduced search (sound; NO-DELAY already collapses interleavings).
    fp.universal = true;
    return fp;
  }
  switch (t.kind) {
    case TKind::kHostSendScript: {
      const hosts::HostState& hs = state.host(t.a);
      const hosts::HostBehavior& hb = cfg.host_behavior[t.a];
      fp.write(rid(Res::kHostCore, t.a));  // sends_done, burst
      host_send_common(fp, cfg, state, t.a);
      add_hdr_keys(fp,
                   hb.script[static_cast<std::size_t>(hs.sends_done)].hdr);
      break;
    }
    case TKind::kHostSendDiscovered: {
      // Discovered packets are derived from the controller's app state
      // (Executor::enabled), so any controller transition can enable or
      // disable this send.
      fp.read(rid(Res::kCtrl));
      fp.write(rid(Res::kHostCore, t.a));
      host_send_common(fp, cfg, state, t.a);
      add_hdr_keys(fp, t.fields);
      break;
    }
    case TKind::kHostSendDup: {
      fp.write(rid(Res::kHostCore, t.a));  // dup_used, burst
      host_send_common(fp, cfg, state, t.a);
      add_hdr_keys(fp, cfg.host_behavior[t.a].script.front().hdr);
      break;
    }
    case TKind::kHostSendReply: {
      const hosts::HostState& hs = state.host(t.a);
      fp.write(rid(Res::kHostReplyHead, t.a));
      host_send_common(fp, cfg, state, t.a);
      add_hdr_keys(fp, hs.pending_replies.front().hdr);
      break;
    }
    case TKind::kHostRecv: {
      const hosts::HostState& hs = state.host(t.a);
      const hosts::HostBehavior& hb = cfg.host_behavior[t.a];
      fp.write(rid(Res::kHostInHead, t.a));
      fp.write(rid(Res::kHostCore, t.a));  // received, burst replenishment
      const of::Packet& head = hs.input.front();
      add_packet_keys(fp, head);
      if (hb.echo && hosts::should_reply(cfg.topology->host(t.a), head)) {
        fp.write(rid(Res::kHostReplyTail, t.a));
      }
      break;
    }
    case TKind::kHostMove: {
      const hosts::HostState& hs = state.host(t.a);
      const auto& alts = cfg.topology->host(t.a).alt_locations;
      fp.write(rid(Res::kHostLoc, t.a));
      fp.write(rid(Res::kHostCore, t.a));  // moves_used
      fp.write(rid(Res::kSwAttach, hs.sw));
      fp.write(rid(Res::kSwAttach, alts[t.aux].first));
      break;
    }
    case TKind::kSwitchProcessPkt: {
      const of::Switch& sw = state.sw(t.a);
      fp.write(rid(Res::kSwCore, t.a));  // table lookups, buffer, stats
      for (const of::PortId p : sw.ports()) {
        const auto it = sw.in_ports().find(p);
        const bool has = it != sw.in_ports().end() && !it->second.empty();
        // Non-empty channels lose their head; an append to an *empty*
        // channel changes which packets this transition would process, so
        // empty channels are tail-reads.
        if (has) {
          fp.write(rid(Res::kSwInHead, t.a, p));
        } else {
          fp.read(rid(Res::kSwInTail, t.a, p));
        }
      }
      // Exact emissions: run the pipeline on a private copy of the switch
      // (deterministic, self-contained).
      of::Switch sim = sw;
      for (const of::PacketOutcome& oc : sim.process_pkt()) {
        add_outcome(fp, cfg, state, t.a, oc);
      }
      break;
    }
    case TKind::kSwitchProcessOf: {
      fp.write(rid(Res::kSwOfInHead, t.a));
      fp.write(rid(Res::kSwCore, t.a));
      of::Switch sim = state.sw(t.a);
      const of::OfOutcome oc = sim.process_of();
      if (oc.barrier_replied || oc.stats_replied) {
        fp.write(rid(Res::kSwOfOutTail, t.a));
      }
      if (oc.packet) add_outcome(fp, cfg, state, t.a, *oc.packet);
      break;
    }
    case TKind::kCtrlDispatch: {
      fp.write(rid(Res::kCtrl));
      fp.write(rid(Res::kSwOfOutHead, t.a));
      // Run the handler on a cloned controller state for the exact command
      // targets (the clone is discarded; handlers are deterministic).
      ctrl::ControllerState sim(state.ctrl());
      const ctrl::DispatchResult res = ctrl::dispatch_message(
          *cfg.app, sim, t.a, state.sw(t.a).of_out().front());
      if (res.was_packet_in) add_packet_keys(fp, res.packet_in.packet);
      add_commands(fp, cfg, res.commands);
      break;
    }
    case TKind::kCtrlApplyCommand: {
      fp.write(rid(Res::kCtrl));
      fp.write(rid(Res::kSwOfInTail,
                   state.ctrl().pending_commands.front().first));
      break;
    }
    case TKind::kCtrlExternal: {
      fp.write(rid(Res::kCtrl));
      ctrl::ControllerState sim(state.ctrl());
      ctrl::Ctx ctx(&sim.next_xid);
      cfg.app->on_external(*sim.app, ctx, t.aux);
      add_commands(fp, cfg, ctx.take_commands());
      break;
    }
    case TKind::kCtrlRequestStats: {
      fp.write(rid(Res::kCtrl));
      fp.write(rid(Res::kSwOfInTail, t.a));
      break;
    }
    case TKind::kCtrlProcessStats: {
      fp.write(rid(Res::kCtrl));
      fp.write(rid(Res::kSwOfOutHead, t.a));
      ctrl::ControllerState sim(state.ctrl());
      add_commands(fp, cfg,
                   ctrl::dispatch_stats_with_values(*cfg.app, sim, t.a,
                                                    t.stats));
      break;
    }
    case TKind::kRuleExpire: {
      fp.write(rid(Res::kSwCore, t.a));
      break;
    }
    case TKind::kChannelDropHead: {
      fp.write(rid(Res::kSwInHead, t.a, t.aux));
      add_packet_keys(fp, state.sw(t.a).in_ports().at(t.aux).front());
      if (cfg.max_packet_faults != kUnboundedFaults) {
        fp.write(rid(Res::kFaultBudget, 3));
      }
      break;
    }
    case TKind::kChannelDupHead: {
      fp.write(rid(Res::kSwInHead, t.a, t.aux));
      fp.write(rid(Res::kSwInTail, t.a, t.aux));
      add_packet_keys(fp, state.sw(t.a).in_ports().at(t.aux).front());
      if (cfg.max_packet_faults != kUnboundedFaults) {
        fp.write(rid(Res::kFaultBudget, 3));
      }
      break;
    }
    case TKind::kLinkDown:
    case TKind::kLinkUp: {
      const topo::LinkSpec& l = cfg.topology->links()[t.a];
      if (t.kind == TKind::kLinkDown &&
          cfg.max_link_failures != kUnboundedFaults) {
        fp.write(rid(Res::kFaultBudget, 0));
      }
      // Both endpoint down-port sets change (delivery resolution state,
      // filed under kSwAttach), and each live connection gets a
      // port-status push. The of_out write also orders link transitions
      // against the channel-state writers (disconnect wipes of_out), which
      // is exactly the read of ctrl_channel_down that emit_port_status
      // performs.
      fp.write(rid(Res::kSwAttach, l.sw_a));
      fp.write(rid(Res::kSwAttach, l.sw_b));
      fp.write(rid(Res::kSwOfOutTail, l.sw_a));
      fp.write(rid(Res::kSwOfOutTail, l.sw_b));
      break;
    }
    case TKind::kCtrlChannelDown: {
      if (cfg.max_channel_losses != kUnboundedFaults) {
        fp.write(rid(Res::kFaultBudget, 1));
      }
      // The wipe empties both OpenFlow channels (head and tail) and flips
      // the connection flag, which the pipeline (kSwCore) and every sender
      // to this switch read.
      fp.write(rid(Res::kSwCore, t.a));
      fp.write(rid(Res::kSwOfInHead, t.a));
      fp.write(rid(Res::kSwOfInTail, t.a));
      fp.write(rid(Res::kSwOfOutHead, t.a));
      fp.write(rid(Res::kSwOfOutTail, t.a));
      add_wiped_packet_keys(fp, state.sw(t.a), /*include_buffer=*/false);
      break;
    }
    case TKind::kCtrlChannelUp: {
      fp.write(rid(Res::kSwCore, t.a));  // connection flag
      fp.write(rid(Res::kSwOfInTail, t.a));  // handshake commands land here
      add_handshake(fp, cfg, state, t.a);
      break;
    }
    case TKind::kSwitchRestart: {
      if (cfg.max_switch_restarts != kUnboundedFaults) {
        fp.write(rid(Res::kFaultBudget, 2));
      }
      // Everything on the switch is wiped: table/buffer/stats (kSwCore)
      // and both OpenFlow channels; the handshake then touches the
      // controller and the fresh channels.
      fp.write(rid(Res::kSwCore, t.a));
      fp.write(rid(Res::kSwOfInHead, t.a));
      fp.write(rid(Res::kSwOfInTail, t.a));
      fp.write(rid(Res::kSwOfOutHead, t.a));
      fp.write(rid(Res::kSwOfOutTail, t.a));
      add_wiped_packet_keys(fp, state.sw(t.a), /*include_buffer=*/true);
      add_handshake(fp, cfg, state, t.a);
      break;
    }
  }
  fp.finish();
  return fp;
}

namespace {

bool intersects(const std::vector<std::uint64_t>& a,
                const std::vector<std::uint64_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

bool may_conflict(const Footprint& a, const Footprint& b, bool packet_keys) {
  if (a.universal || b.universal) return true;
  if (intersects(a.writes, b.writes) || intersects(a.writes, b.reads) ||
      intersects(a.reads, b.writes)) {
    return true;
  }
  return packet_keys && intersects(a.keys, b.keys);
}

std::uint64_t transition_hash(const Transition& t) {
  util::Ser s;
  t.serialize(s);
  return s.hash().lo;
}

namespace {

/// Only the kinds whose footprint analysis does real work — simulating
/// the switch pipeline or cloning the controller and running a handler —
/// go through the memo. The host/queue kinds compute their footprint with
/// a handful of vector pushes; for those even a warm lookup (key build +
/// shard lock + entry copy) costs more than recomputation.
constexpr bool memoizable(TKind k) {
  switch (k) {
    case TKind::kSwitchProcessPkt:
    case TKind::kSwitchProcessOf:
    case TKind::kCtrlDispatch:
    case TKind::kCtrlExternal:
    case TKind::kCtrlProcessStats:
      return true;
    default:
      return false;
  }
}

}  // namespace

Footprint FootprintMemo::get(const SystemState& state, const Transition& t) {
  // NO-DELAY footprints are universal (computed in O(1)); the non-
  // memoizable kinds are cheaper to recompute than to look up.
  if (cfg_.no_delay || !memoizable(t.kind)) {
    return compute_footprint(cfg_, state, t);
  }

  // Key = the transition's full serialization + the identities of the
  // components its footprint analysis reads (see compute_footprint):
  // interned ids in kCollapsed mode, memoized form hashes otherwise —
  // both already warm from the seen-set's own bookkeeping.
  thread_local util::Ser key;  // clear() keeps capacity across calls
  key.clear();
  t.serialize(key);
  const bool canon = cfg_.canonical_flowtables;
  const auto put_sw = [&] {
    if (ids_ != nullptr) {
      key.put_u32(state.sw_id(t.a, canon, *ids_));
    } else {
      const util::Hash128 h = state.sw_form_hash(t.a, canon);
      key.put_u64(h.lo);
      key.put_u64(h.hi);
    }
  };
  // Controller kinds read only the *application* state (handlers run on
  // state.app; next_xid mints ids the footprint never sees, and the
  // pending_stats bookkeeping is covered by the kCtrl write) — keying on
  // the app-only projection keeps xid/stats churn from fragmenting the
  // cache. Same identity the discovery cache uses (put_app_key).
  switch (t.kind) {
    case TKind::kSwitchProcessPkt:
    case TKind::kSwitchProcessOf:
      // The pipeline simulation reads the whole switch component (flow
      // table, buffer, every ingress head), and add_outcome resolves
      // forwards through attached_host, which scans every host's
      // <switch, port> — switch identity plus the attachment signature
      // is the function's exact input.
      put_sw();
      for (const hosts::HostState& hs : state.hosts()) {
        key.put_u32(static_cast<std::uint32_t>(hs.sw));
        key.put_u32(static_cast<std::uint32_t>(hs.port));
      }
      break;
    case TKind::kCtrlDispatch:
      // dispatch_message reads the head of the switch's of_out queue and
      // nothing else of the switch — key the message bytes, not the
      // switch component (whose queue churn would kill the hit rate).
      state.put_app_key(key, ids_);
      of::serialize_message(key, state.sw(t.a).of_out().front());
      break;
    default:  // kCtrlExternal / kCtrlProcessStats: app state only
      state.put_app_key(key, ids_);
      break;
  }

  const auto kb = key.bytes();
  const std::string_view kv(reinterpret_cast<const char*>(kb.data()),
                            kb.size());
  if (const auto hit = table_.find(kv)) return *hit;
  Footprint fp = compute_footprint(cfg_, state, t);
  const std::size_t bytes =
      sizeof(Footprint) +
      (fp.reads.size() + fp.writes.size() + fp.keys.size()) *
          sizeof(std::uint64_t);
  table_.insert(kv, fp, bytes);
  return fp;
}

}  // namespace nicemc::mc::por
