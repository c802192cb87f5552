#include "apps/loadbalancer.h"

#include <cassert>

namespace nicemc::apps {

namespace {

constexpr std::uint16_t kWildcardPriority = 100;
constexpr std::uint16_t kInspectPriority = 90;  // below the wildcards
constexpr std::uint16_t kMicroflowPriority = 200;

}  // namespace

void LoadBalancerState::serialize(util::Ser& s) const {
  s.put_tag('L');
  s.put_u8(policy);
  s.put_bool(in_transition);
  s.put_bool(reconfigured);
  s.put_u32(static_cast<std::uint32_t>(assignments.size()));
  const util::Renamer* rn = util::Renamer::active();
  util::for_each_named(
      assignments, util::rn_renames_hosts(rn),
      [&](const auto& e) { return e.first.renamed(rn); },
      [&](const of::FiveTuple& t, const auto& e) {
        t.serialize(s);
        s.put_u8(e.second);
      });
}

of::Match LoadBalancer::wildcard_match(bool high_half) const {
  of::Match m;
  m.fields = of::MatchField::kEthType | of::MatchField::kIpDst |
             of::MatchField::kIpSrc | of::MatchField::kIpProto;
  m.eth_type = of::kEthTypeIpv4;
  m.ip_dst = options_.vip;
  m.ip_dst_plen = 32;
  m.ip_src = high_half ? 0x80000000ULL : 0;
  m.ip_src_plen = 1;
  m.ip_proto = of::kIpProtoTcp;
  return m;
}

void LoadBalancer::switch_join(ctrl::AppState& state, ctrl::Ctx& ctx,
                               of::SwitchId sw) const {
  if (const auto acc = options_.access_switches.find(sw);
      acc != options_.access_switches.end()) {
    // Access switch fronting one replica: everything that arrives (i.e.
    // traffic steered over the uplink) goes to the server port.
    of::Rule r;
    r.match = of::Match::any();
    r.priority = kWildcardPriority;
    r.actions = {of::Action::output(acc->second)};
    ctx.install_rule(sw, r);
    return;
  }
  if (sw != options_.sw) return;
  const auto& st = static_cast<LoadBalancerState&>(state);
  assert(options_.replicas.size() == 2);
  for (bool high : {false, true}) {
    const std::uint8_t replica =
        replica_for(st.policy, high ? 0x80000000ULL : 0);
    of::Rule r;
    r.match = wildcard_match(high);
    r.priority = kWildcardPriority;
    r.actions = {of::Action::output(options_.replicas[replica].port)};
    ctx.install_rule(sw, r);
  }
}

std::vector<std::string> LoadBalancer::external_events(
    const ctrl::AppState& state) const {
  if (!options_.enable_reconfig) return {};
  const auto& st = static_cast<const LoadBalancerState&>(state);
  if (st.reconfigured) return {};
  return {"reconfig"};
}

void LoadBalancer::handle_port_status(ctrl::AppState& state, ctrl::Ctx& ctx,
                                      of::SwitchId sw, of::PortId port,
                                      bool up) const {
  if (!options_.react_to_port_status || up || sw != options_.sw) return;
  auto& st = static_cast<LoadBalancerState&>(state);

  // Is the failed port one of the replica uplinks?
  std::size_t dead = options_.replicas.size();
  for (std::size_t i = 0; i < options_.replicas.size(); ++i) {
    if (options_.replicas[i].port == port) dead = i;
  }
  if (dead >= options_.replicas.size()) return;
  const std::uint8_t survivor = static_cast<std::uint8_t>(1 - dead);
  const of::PortId out = options_.replicas[survivor].port;

  // Re-steer the wildcard halves that forward to the dead replica. A
  // FlowMod add replaces an existing rule with the same match and priority
  // in place, so a single install swaps the action atomically — a
  // delete-then-install pair would reopen the BUG-V window where packets
  // miss every wildcard mid-repair. After the policy transition the
  // wildcards are inspect rules (every flow goes through packet_in), so
  // there is nothing to re-steer at this level.
  if (!st.reconfigured) {
    for (bool high : {false, true}) {
      if (replica_for(st.policy, high ? 0x80000000ULL : 0) !=
          static_cast<std::uint8_t>(dead)) {
        continue;
      }
      of::Rule r;
      r.match = wildcard_match(high);
      r.priority = kWildcardPriority;
      r.actions = {of::Action::output(out)};
      ctx.install_rule(options_.sw, r);
    }
  }

  // Established connections pinned to the dead replica move over too:
  // replace their microflow rules and update the assignment map.
  for (auto& [conn, replica] : st.assignments) {
    if (replica != static_cast<std::uint8_t>(dead)) continue;
    replica = survivor;
    sym::PacketFields hdr;
    hdr.ip_src = conn.ip_src;
    hdr.ip_dst = conn.ip_dst;
    hdr.ip_proto = conn.ip_proto;
    hdr.tp_src = conn.tp_src;
    hdr.tp_dst = conn.tp_dst;
    of::Rule micro;
    micro.match = of::Match::five_tuple(hdr);
    micro.priority = kMicroflowPriority;
    micro.actions = {of::Action::output(out)};
    ctx.install_rule(options_.sw, micro);  // in-place action swap (see above)
  }
}

void LoadBalancer::on_external(ctrl::AppState& state, ctrl::Ctx& ctx,
                               std::size_t event_index) const {
  (void)event_index;
  auto& st = static_cast<LoadBalancerState&>(state);
  assert(!st.reconfigured);
  st.reconfigured = true;
  st.in_transition = true;
  st.policy = 1;

  // Replace the wildcard forwarding rules with send-to-controller rules so
  // the controller can inspect the next packet of each flow.
  for (bool high : {false, true}) {
    of::Rule inspect;
    inspect.match = wildcard_match(high);
    inspect.actions = {of::Action::controller()};

    of::Rule old;
    old.match = wildcard_match(high);
    old.priority = kWildcardPriority;

    if (options_.fix_install_before_delete) {
      // BUG-V fix: the inspect rule (lower priority) goes in first; there
      // is never a moment where no rule matches.
      inspect.priority = kInspectPriority;
      ctx.install_rule(options_.sw, inspect);
      ctx.delete_rule(options_.sw, old.match, kWildcardPriority);
    } else {
      // BUG-V: delete-then-install leaves a window in which packets miss
      // every rule and reach the controller with reason NO_MATCH.
      inspect.priority = kWildcardPriority;
      ctx.delete_rule(options_.sw, old.match, kWildcardPriority);
      ctx.install_rule(options_.sw, inspect);
    }
  }
}

bool LoadBalancer::is_same_flow(const sym::PacketFields& a,
                                const sym::PacketFields& b) const {
  // The app's own logic treats any SYN as the first packet of a new flow;
  // the FLOW-IR grouping the paper used mirrors that — so a duplicate SYN
  // lands in its own group and its orderings are pruned (missing BUG-VII).
  if ((a.tcp_flags & of::kTcpSyn) != 0 || (b.tcp_flags & of::kTcpSyn) != 0) {
    return false;
  }
  return of::FiveTuple::of_packet(a) == of::FiveTuple::of_packet(b);
}

void LoadBalancer::packet_in(ctrl::AppState& state, ctrl::Ctx& ctx,
                             of::SwitchId sw, of::PortId in_port,
                             const sym::SymPacket& pkt,
                             std::uint32_t buffer_id,
                             of::PacketIn::Reason reason) const {
  auto& st = static_cast<LoadBalancerState&>(state);
  if (sw != options_.sw) return;

  // --- ARP proxy (the controller answers for the VIP and the replicas) ---
  if (pkt.eth_type == of::kEthTypeArp) {
    of::Packet reply;
    reply.hdr.eth_src = options_.vmac;
    reply.hdr.eth_dst = pkt.eth_src.concrete();
    reply.hdr.eth_type = of::kEthTypeArp;
    reply.hdr.ip_src = pkt.ip_dst.concrete();
    reply.hdr.ip_dst = pkt.ip_src.concrete();
    ctx.send_packet_out_full(sw, reply, /*in_port=*/0,
                             {of::Action::output(in_port)});
    if (options_.fix_discard_arp) {
      // BUG-VI fix: release the buffered request with no actions.
      ctx.send_packet_out(sw, buffer_id, {});
    }
    return;
  }

  // Only TCP traffic addressed to the virtual IP is load-balanced.
  if (!(pkt.eth_type == of::kEthTypeIpv4)) return;
  if (!(pkt.ip_proto == of::kIpProtoTcp)) return;
  if (!(pkt.ip_dst == std::uint64_t{options_.vip})) return;

  // BUG-V: mid-transition packets that miss every rule arrive with reason
  // NO_MATCH; "as written, the handler ignores such (unexpected) packets".
  if (reason == of::PacketIn::Reason::kNoMatch &&
      !options_.fix_install_before_delete) {
    return;
  }

  const of::FiveTuple conn{pkt.ip_src.concrete(), pkt.ip_dst.concrete(),
                           pkt.ip_proto.concrete(), pkt.tp_src.concrete(),
                           pkt.tp_dst.concrete()};

  std::uint8_t replica;
  const auto known = st.assignments.find(conn);
  if (options_.fix_check_assignments && known != st.assignments.end()) {
    // BUG-VII fix: an established connection keeps its replica, duplicate
    // SYN or not.
    replica = known->second;
  } else if ((pkt.tcp_flags & std::uint64_t{of::kTcpSyn}) != std::uint64_t{0}) {
    // SYN ⇒ (assumed) new flow: follow the *new* policy. A retransmitted
    // SYN of an established connection takes this path too — BUG-VII.
    replica = replica_for(st.policy, pkt.ip_src.concrete());
  } else {
    // Ongoing transfer: stay with the old policy's replica.
    replica = known != st.assignments.end()
                  ? known->second
                  : replica_for(static_cast<std::uint8_t>(st.policy == 0),
                                pkt.ip_src.concrete());
  }
  st.assignments[conn] = replica;

  sym::PacketFields hdr;
  hdr.ip_src = conn.ip_src;
  hdr.ip_dst = conn.ip_dst;
  hdr.ip_proto = conn.ip_proto;
  hdr.tp_src = conn.tp_src;
  hdr.tp_dst = conn.tp_dst;
  of::Rule micro;
  micro.match = of::Match::five_tuple(hdr);
  micro.priority = kMicroflowPriority;
  micro.actions = {of::Action::output(options_.replicas[replica].port)};
  ctx.install_rule(sw, micro);

  if (options_.fix_release_packet) {
    // BUG-IV fix: tell the switch what to do with the trigger packet.
    ctx.send_packet_out(sw, buffer_id,
                        {of::Action::output(options_.replicas[replica].port)});
  }
}

}  // namespace nicemc::apps
