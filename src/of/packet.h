// Concrete packets and model-level identifiers.
//
// A packet carries (a) the header fields that flow tables match on and
// (b) model metadata used by the correctness properties: a flow id (for
// FLOW-IR and FlowAffinity), an injection uid shared by all copies made by
// flooding, a per-copy id, and the list of <switch, in_port> hops visited
// so far (NoForwardingLoops, Section 5.2). Metadata is part of the hashed
// system state — it travels with the packet through channels and buffers.
#ifndef NICE_OF_PACKET_H
#define NICE_OF_PACKET_H

#include <cstdint>
#include <string>
#include <vector>

#include "sym/sympacket.h"
#include "util/rename.h"
#include "util/ser.h"

namespace nicemc::of {

using SwitchId = std::uint32_t;
using PortId = std::uint32_t;
using HostId = std::uint32_t;

inline constexpr std::uint64_t kBroadcastMac = 0xffffffffffffULL;
inline constexpr std::uint64_t kEthTypeIpv4 = 0x0800;
inline constexpr std::uint64_t kEthTypeArp = 0x0806;
inline constexpr std::uint64_t kIpProtoTcp = 6;
inline constexpr std::uint64_t kIpProtoIcmp = 1;

// TCP flag bits (subset used by the load-balancer model).
inline constexpr std::uint64_t kTcpSyn = 0x02;
inline constexpr std::uint64_t kTcpAck = 0x10;
inline constexpr std::uint64_t kTcpFin = 0x01;

/// One hop in a packet's journey (for loop detection).
struct Hop {
  SwitchId sw{0};
  PortId port{0};

  friend bool operator==(const Hop&, const Hop&) = default;

  void serialize(util::Ser& s) const {
    const util::Renamer* rn = util::Renamer::active();
    s.put_u32(sw);
    s.put_u32(util::rn_port(rn, sw, port));
  }
};

struct Packet {
  sym::PacketFields hdr;

  /// Logical flow tag assigned by the sending host model; packets of the
  /// same end-to-end exchange (e.g. a ping and its reply, or one TCP
  /// connection) share a flow id. Used by FLOW-IR and by properties.
  std::uint32_t flow_id{0};
  /// Injection id: shared by every copy made by flooding/duplication.
  std::uint32_t uid{0};
  /// Distinct per physical copy in flight.
  std::uint32_t copy_id{0};
  /// Host that injected the packet.
  HostId sender{0};
  /// Nominal wire size in bytes (for switch port statistics).
  std::uint32_t size_bytes{100};
  /// <switch, in_port> pairs this copy has entered (loop detection).
  std::vector<Hop> visited;

  friend bool operator==(const Packet&, const Packet&) = default;

  /// The copy id is a bookkeeping name assigned in processing order, so
  /// two interleavings that produce the same packets with different copy
  /// numbering are equivalent: canonical forms elide it (part of the
  /// Section 2.2.2 switch-state canonicalization; the NO-SWITCH-REDUCTION
  /// baseline keeps it). See util/rename.h.
  void serialize(util::Ser& s) const {
    const util::Renamer* rn = util::Renamer::active();
    s.put_tag('P');
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
    s.put_u32(util::rn_uid(rn, uid));
    if (!util::rn_canonical(rn)) s.put_u32(copy_id);
    s.put_u32(util::rn_host(rn, sender));
    s.put_u32(size_bytes);
    s.put_u32(static_cast<std::uint32_t>(visited.size()));
    for (const Hop& h : visited) h.serialize(s);
  }

  [[nodiscard]] bool visited_before(SwitchId sw, PortId port) const {
    for (const Hop& h : visited) {
      if (h.sw == sw && h.port == port) return true;
    }
    return false;
  }

  /// Human-readable one-liner for traces.
  [[nodiscard]] std::string brief() const;
};

/// Key identifying a TCP/UDP connection (FlowAffinity property).
struct FiveTuple {
  std::uint64_t ip_src{0}, ip_dst{0}, ip_proto{0}, tp_src{0}, tp_dst{0};

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;
  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  static FiveTuple of_packet(const sym::PacketFields& h) {
    return FiveTuple{h.ip_src, h.ip_dst, h.ip_proto, h.tp_src, h.tp_dst};
  }
  /// This tuple under the naming of `rn` (its IPs renamed).
  [[nodiscard]] FiveTuple renamed(const util::Renamer* rn) const {
    return FiveTuple{util::rn_ip(rn, ip_src), util::rn_ip(rn, ip_dst),
                     ip_proto, tp_src, tp_dst};
  }
  void serialize(util::Ser& s) const {
    s.put_u64(ip_src);
    s.put_u64(ip_dst);
    s.put_u64(ip_proto);
    s.put_u64(tp_src);
    s.put_u64(tp_dst);
  }
};

/// Key identifying a MAC-level conversation direction (DirectPaths).
struct MacPair {
  std::uint64_t src{0}, dst{0};

  friend bool operator==(const MacPair&, const MacPair&) = default;
  friend auto operator<=>(const MacPair&, const MacPair&) = default;

  static MacPair of_packet(const sym::PacketFields& h) {
    return MacPair{h.eth_src, h.eth_dst};
  }
  [[nodiscard]] MacPair reversed() const { return MacPair{dst, src}; }
};

}  // namespace nicemc::of

#endif  // NICE_OF_PACKET_H
