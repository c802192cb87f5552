// End-host models (paper Section 2.2.3).
//
// NICE ships simple host programs rather than real network stacks: a client
// with a bounded number of `send` transitions and a burst counter that is
// replenished by received packets (this is the PKT-SEQ strategy's state-
// space bound, Section 4), a server whose `send_reply` transition is
// enabled by `receive`, and a mobile host with a `move` transition.
//
// We factor these as one host model with orthogonal behaviour flags
// (HostBehavior, static configuration) plus a small dynamic state
// (HostState, part of the hashed system state).
#ifndef NICE_HOSTS_HOST_H
#define NICE_HOSTS_HOST_H

#include <cstdint>
#include <vector>

#include "of/channel.h"
#include "of/packet.h"
#include "sym/sympacket.h"
#include "util/ser.h"

namespace nicemc::hosts {

/// One programmed send: header fields plus the logical flow tag.
struct ScriptEntry {
  sym::PacketFields hdr;
  std::uint32_t flow_id{0};

  friend bool operator==(const ScriptEntry&, const ScriptEntry&) = default;
};

/// A reply computed on receive, waiting for its send_reply transition.
struct PendingReply {
  sym::PacketFields hdr;
  std::uint32_t flow_id{0};

  friend bool operator==(const PendingReply&, const PendingReply&) = default;

  void serialize(util::Ser& s) const {
    const util::Renamer* rn = util::Renamer::active();
    s.put_u64(util::rn_mac(rn, hdr.eth_src));
    s.put_u64(util::rn_mac(rn, hdr.eth_dst));
    s.put_u64(hdr.eth_type);
    s.put_u64(util::rn_ip(rn, hdr.ip_src));
    s.put_u64(util::rn_ip(rn, hdr.ip_dst));
    s.put_u64(hdr.ip_proto);
    s.put_u64(hdr.tp_src);
    s.put_u64(hdr.tp_dst);
    s.put_u64(hdr.tcp_flags);
    s.put_u32(util::rn_flow(rn, flow_id));
  }
};

/// Static per-host behaviour. Not part of the hashed state.
struct HostBehavior {
  /// Reply to received packets addressed to this host's MAC.
  bool echo{false};
  /// May move (once per alternative location) — the mobile host model.
  bool can_move{false};
  /// May re-send script entry 0 once (models a retransmitted/duplicate SYN).
  bool can_dup{false};
  /// Sends are driven by symbolic discovery (discover_packets) instead of
  /// the script. Requires the checker to run with discovery enabled.
  bool discovery_sends{false};
  /// Programmed sends, in order (used when discovery_sends is false).
  std::vector<ScriptEntry> script;
  /// PKT-SEQ bound: maximum number of send transitions (tree depth).
  int max_sends{0};
  /// PKT-SEQ bound: initial burst tokens (outstanding-packet budget);
  /// +1 token per received packet, the paper's default replenishment.
  int initial_burst{1};
};

/// Dynamic host state; cloned, hashed and (COLLAPSE) interned whole with
/// the system state.
struct HostState {
  of::HostId id{0};
  of::SwitchId sw{0};   // current attachment (mobile hosts change this)
  of::PortId port{0};
  of::Fifo<of::Packet> input;
  std::vector<PendingReply> pending_replies;
  int sends_done{0};
  int burst{1};
  int received{0};
  bool dup_used{false};
  std::uint8_t moves_used{0};  // bitmask over alt_locations

  friend bool operator==(const HostState&, const HostState&) = default;

  void serialize(util::Ser& s, bool canonical = true) const {
    // Port fields below this host belong to its attachment switch.
    const util::Renamer::FormScope form(sw, canonical);
    const util::Renamer* rn = util::Renamer::active();
    // Identity + attachment + input queue.
    s.put_tag('H');
    s.put_u32(util::rn_host(rn, id));
    s.put_u32(sw);
    s.put_u32(util::rn_port(rn, sw, port));
    input.serialize(
        s, [](util::Ser& ser, const of::Packet& p) { p.serialize(ser); });
    // Replies awaiting their send_reply transition.
    s.put_u32(static_cast<std::uint32_t>(pending_replies.size()));
    for (const PendingReply& r : pending_replies) r.serialize(s);
    // Send/receive bookkeeping.
    s.put_i64(sends_done);
    s.put_i64(burst);
    s.put_i64(received);
    s.put_bool(dup_used);
    s.put_u8(moves_used);
  }

  /// Remaining scripted sends / discovery budget.
  [[nodiscard]] bool can_send(const HostBehavior& b) const {
    if (burst <= 0) return false;
    if (b.discovery_sends) return sends_done < b.max_sends;
    return sends_done < static_cast<int>(b.script.size());
  }
};

}  // namespace nicemc::hosts

#endif  // NICE_HOSTS_HOST_H
