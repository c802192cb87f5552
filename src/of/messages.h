// OpenFlow protocol messages exchanged between controller and switches.
//
// Per the paper's simplified switch model (Section 2.2.2), the control
// channel carries these messages over a reliable, in-order FIFO — no
// SSL/TCP encoding.
#ifndef NICE_OF_MESSAGES_H
#define NICE_OF_MESSAGES_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "of/packet.h"
#include "of/rule.h"
#include "util/rename.h"
#include "util/ser.h"

namespace nicemc::of {

inline constexpr std::uint32_t kNoBuffer = util::kNoBuffer;

// ---- controller → switch ----

struct FlowMod {
  enum class Cmd : std::uint8_t { kAdd, kDelete, kDeleteStrict };
  Cmd cmd{Cmd::kAdd};
  Rule rule;  // for deletes only match (+priority when strict) is used

  friend bool operator==(const FlowMod&, const FlowMod&) = default;
  void serialize(util::Ser& s) const {
    s.put_tag('F');
    s.put_u8(static_cast<std::uint8_t>(cmd));
    rule.serialize(s);
  }
};

struct PacketOut {
  /// kNoBuffer means `packet` carries the full frame; otherwise the switch
  /// retrieves (and releases) the buffered packet with this id.
  std::uint32_t buffer_id{kNoBuffer};
  std::optional<Packet> packet;
  PortId in_port{0};  // ingress context for kFlood semantics
  ActionList actions;  // empty = drop/release the packet

  friend bool operator==(const PacketOut&, const PacketOut&) = default;
  void serialize(util::Ser& s) const {
    const util::Renamer* rn = util::Renamer::active();
    s.put_tag('O');
    s.put_u32(util::rn_buffer(rn, buffer_id));
    s.put_bool(packet.has_value());
    if (packet) packet->serialize(s);
    s.put_u32(util::rn_port_cur(rn, in_port));
    serialize_actions(s, actions);
  }
};

struct StatsRequest {
  std::uint32_t xid{0};

  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
  void serialize(util::Ser& s) const {
    s.put_tag('S');
    s.put_u32(xid);
  }
};

struct BarrierRequest {
  std::uint32_t xid{0};

  friend bool operator==(const BarrierRequest&,
                         const BarrierRequest&) = default;
  void serialize(util::Ser& s) const {
    s.put_tag('B');
    s.put_u32(xid);
  }
};

using ToSwitch = std::variant<FlowMod, PacketOut, StatsRequest, BarrierRequest>;

// ---- switch → controller ----

struct PacketIn {
  Packet packet;
  PortId in_port{0};
  std::uint32_t buffer_id{kNoBuffer};
  enum class Reason : std::uint8_t { kNoMatch, kAction };
  Reason reason{Reason::kNoMatch};

  friend bool operator==(const PacketIn&, const PacketIn&) = default;
  void serialize(util::Ser& s) const {
    const util::Renamer* rn = util::Renamer::active();
    s.put_tag('I');
    packet.serialize(s);
    s.put_u32(util::rn_port_cur(rn, in_port));
    s.put_u32(util::rn_buffer(rn, buffer_id));
    s.put_u8(static_cast<std::uint8_t>(reason));
  }
};

struct PortStatsEntry {
  std::uint64_t tx_packets{0};
  std::uint64_t tx_bytes{0};
  std::uint64_t rx_packets{0};
  std::uint64_t rx_bytes{0};

  friend bool operator==(const PortStatsEntry&,
                         const PortStatsEntry&) = default;
  void serialize(util::Ser& s) const {
    s.put_u64(tx_packets);
    s.put_u64(tx_bytes);
    s.put_u64(rx_packets);
    s.put_u64(rx_bytes);
  }
};

struct StatsReply {
  std::uint32_t xid{0};
  std::map<PortId, PortStatsEntry> ports;

  friend bool operator==(const StatsReply&, const StatsReply&) = default;
  void serialize(util::Ser& s) const {
    s.put_tag('s');
    s.put_u32(xid);
    s.put_u32(static_cast<std::uint32_t>(ports.size()));
    const util::Renamer* rn = util::Renamer::active();
    util::for_each_named(
        ports, util::rn_renames_hosts(rn),
        [&](const auto& e) { return util::rn_port_cur(rn, e.first); },
        [&](PortId p, const auto& e) {
          s.put_u32(p);
          e.second.serialize(s);
        });
  }
};

struct BarrierReply {
  std::uint32_t xid{0};

  friend bool operator==(const BarrierReply&, const BarrierReply&) = default;
  void serialize(util::Ser& s) const {
    s.put_tag('b');
    s.put_u32(xid);
  }
};

/// Asynchronous port-status notification (OFPT_PORT_STATUS): the switch
/// reports that one of its ports went down (link failure) or came back up.
struct PortStatus {
  PortId port{0};
  bool up{true};

  friend bool operator==(const PortStatus&, const PortStatus&) = default;
  void serialize(util::Ser& s) const {
    s.put_tag('P');
    s.put_u32(util::rn_port_cur(util::Renamer::active(), port));
    s.put_bool(up);
  }
};

using ToController = std::variant<PacketIn, StatsReply, BarrierReply, PortStatus>;

template <typename Variant>
void serialize_message(util::Ser& s, const Variant& m) {
  s.put_u8(static_cast<std::uint8_t>(m.index()));
  std::visit([&s](const auto& inner) { inner.serialize(s); }, m);
}

/// One-line rendering for traces.
std::string brief(const ToSwitch& m);
std::string brief(const ToController& m);

}  // namespace nicemc::of

#endif  // NICE_OF_MESSAGES_H
