// The simplified OpenFlow switch model of paper Section 2.2.2.
//
// A switch is: per-port ingress packet FIFOs, one reliable in-order OpenFlow
// channel in each direction, a flow table with canonical representation, a
// finite buffer of packets awaiting controller instruction, and two
// transitions:
//   * process_pkt — dequeues the head packet of EVERY non-empty ingress
//     channel and processes them against the flow table in one transition
//     (safe because the model checker already explores arrival orderings);
//   * process_of — dequeues and applies one OpenFlow message.
//
// The switch is a pure state machine: it never touches the topology. Packet
// emissions are returned as structured outcomes; the model checker's
// executor resolves output ports to link peers and generates property
// events.
#ifndef NICE_OF_SWITCH_H
#define NICE_OF_SWITCH_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "of/channel.h"
#include "of/flowtable.h"
#include "of/messages.h"
#include "of/packet.h"
#include "util/ser.h"

namespace nicemc::of {

struct BufferedPacket {
  Packet packet;
  PortId in_port{0};

  friend bool operator==(const BufferedPacket&,
                         const BufferedPacket&) = default;
  void serialize(util::Ser& s) const {
    packet.serialize(s);
    s.put_u32(util::rn_port_cur(util::Renamer::active(), in_port));
  }
};

/// What happened to one packet run through the pipeline (either on ingress
/// or on release by a packet_out).
struct PacketOutcome {
  Packet packet;      // with the new hop already appended (ingress only)
  PortId in_port{0};
  /// (out_port, packet) emissions, flood already expanded.
  std::vector<std::pair<PortId, Packet>> forwards;
  bool to_controller{false};
  std::uint32_t buffer_id{kNoBuffer};
  PacketIn::Reason reason{PacketIn::Reason::kNoMatch};
  bool dropped_by_rule{false};
  bool dropped_buffer_full{false};
  /// Needed the controller (no match / kController action) while the
  /// control channel was down: the packet is lost, not buffered.
  bool dropped_no_ctrl{false};
  /// The packet had already entered this <switch, in_port> — forwarding loop.
  bool revisited{false};
  /// Released from the awaiting-controller buffer by a packet_out.
  bool from_buffer{false};
  /// packet_out with an empty action list: deliberate consume, not a drop.
  bool explicit_discard{false};
  /// Index of the matched rule in the table's insertion order, if any.
  std::optional<std::size_t> rule_idx;
};

/// Effect of applying one controller→switch message.
struct OfOutcome {
  std::optional<Rule> installed;
  std::size_t removed_count{0};
  std::optional<Match> removed_match;
  std::optional<PacketOutcome> packet;  // packet_out emission
  bool barrier_replied{false};
  bool stats_replied{false};
  /// packet_out referenced a buffer id that does not exist (double release).
  bool missing_buffer{false};
};

struct Switch {
  SwitchId id{0};
  std::vector<PortId> ports;          // all ports, for flood expansion
  std::size_t buffer_capacity{64};
  FlowTable table;
  std::map<PortId, Fifo<Packet>> in_ports;   // ingress packet channels
  Fifo<ToSwitch> of_in;                      // controller → switch
  /// Global send-order tags parallel to of_in. Bookkeeping for the UNUSUAL
  /// search strategy only — deterministic in the transition history, and
  /// deliberately excluded from serialization so it never splits states.
  std::vector<std::uint64_t> of_in_seq;
  Fifo<ToController> of_out;                 // switch → controller
  std::map<std::uint32_t, BufferedPacket> buffer;
  std::uint32_t next_buffer_id{1};
  std::map<PortId, PortStatsEntry> port_stats;
  ChannelFaults pkt_channel_faults;
  /// Ports whose attached link is down (kLinkDown marks both endpoints).
  /// Forwarding into a down port loses the packet at delivery time.
  std::set<PortId> down_ports;
  /// Controller connection lost (kCtrlChannelDown): both OpenFlow channels
  /// are wiped and stay frozen until kCtrlChannelUp replays the handshake.
  bool ctrl_channel_down{false};

  Switch() = default;
  Switch(SwitchId sw_id, std::vector<PortId> port_list,
         std::size_t buf_capacity = 64);

  /// Enqueue a packet on an ingress channel (link delivery).
  void enqueue_packet(PortId port, Packet p);

  /// Enqueue a controller→switch message with its global send-order tag.
  void push_of(ToSwitch msg, std::uint64_t seq) {
    of_in.push(std::move(msg));
    of_in_seq.push_back(seq);
  }

  /// Send-order tag of the head OpenFlow message (0 when empty).
  [[nodiscard]] std::uint64_t head_of_seq() const {
    return of_in_seq.empty() ? 0 : of_in_seq.front();
  }

  [[nodiscard]] bool can_process_pkt() const;
  [[nodiscard]] bool can_process_of() const { return !of_in.empty(); }

  /// The process_pkt transition: one head packet per non-empty ingress
  /// channel, each run through the flow table.
  std::vector<PacketOutcome> process_pkt();

  /// The process_of transition: apply the head OpenFlow message.
  OfOutcome process_of();

  /// Insertion-order indices of rules that have a timeout and could expire
  /// (drives the optional rule-expiry transitions).
  [[nodiscard]] std::vector<std::size_t> expirable_rules() const;
  void expire_rule(std::size_t idx) { table.erase_at(idx); }

  /// All packets awaiting a controller decision (NoForgottenPackets).
  [[nodiscard]] std::size_t forgotten_packets() const { return buffer.size(); }

  /// Messages lost when the controller connection drops.
  struct ChannelLoss {
    std::size_t lost_to_switch{0};
    std::size_t lost_to_ctrl{0};
  };
  /// kCtrlChannelDown: wipe both OpenFlow channels, freeze the connection.
  ChannelLoss disconnect_ctrl();
  /// kCtrlChannelUp: unfreeze; the executor replays the app handshake.
  void reconnect_ctrl() { ctrl_channel_down = false; }

  /// Push an OFPT_PORT_STATUS notification unless the connection is down.
  void emit_port_status(PortId port, bool up) {
    if (!ctrl_channel_down) of_out.push(PortStatus{.port = port, .up = up});
  }

  /// What a kSwitchRestart wiped (for the EvSwitchRestart event).
  struct RestartSummary {
    std::size_t lost_rules{0};
    std::size_t lost_buffered{0};
    std::size_t lost_to_switch{0};
    std::size_t lost_to_ctrl{0};
  };
  /// kSwitchRestart: wipe flow table, buffer and both OpenFlow channels,
  /// zero port counters, and come back with a fresh controller connection.
  /// `down_ports` persists (links stay physically down across the reboot)
  /// and so does next_buffer_id, so stale packet_outs from before the
  /// restart can never alias a fresh buffer entry.
  RestartSummary restart();

  /// Serialization (Section 2.2.2). The canonical form writes rules in
  /// canonical order, omits copy ids and the buffer-id counter, and names
  /// every buffer id by its packet's content rank (util/rename.h).
  /// `canonical = false` is the raw form the NO-SWITCH-REDUCTION baseline
  /// hashes.
  void serialize(util::Ser& s, bool canonical = true) const;

  /// The serialization is kSerializeParts contiguous sections, written
  /// in part order: identity + faults + flow table, the ingress queues,
  /// each OpenFlow channel direction, the buffer, and the port stats.
  /// serialize_part writes section `part` alone, for the symmetry layer's
  /// signature passes, which redo only the sections a member renaming
  /// touches. Byte-identical to that section of serialize() except under a
  /// uid-assigning renamer, where serialize() hands out the buffered
  /// packets' uids before any section.
  static constexpr std::size_t kSerializeParts = 6;
  void serialize_part(util::Ser& s, bool canonical, std::size_t part) const;

  /// Canonical name of buffer id `bid` under the active naming (a parked
  /// packet_out's entry in mc::SystemState::serialize_trailer).
  [[nodiscard]] std::uint32_t buffer_name(std::uint32_t bid) const;

 private:
  /// Name the live buffer ids by content rank in `rn` (canonical only;
  /// once per scope). Every section that writes buffer ids calls it.
  /// Returns the live entries in rank order, or an empty span when there
  /// is nothing to name (a raw form or an empty buffer).
  std::span<const BufferedPacket* const> name_buffers(util::Renamer* rn) const;

  void serialize_section(util::Ser& s, bool canonical, std::size_t part,
                         util::Renamer* rn) const;

  /// Run one packet through the flow table (shared by ingress processing
  /// and by packet_out action application when actions come from a rule).
  PacketOutcome run_pipeline(Packet p, PortId in_port, bool record_hop);

  /// Apply an explicit action list to a packet (packet_out).
  PacketOutcome apply_actions(Packet p, PortId in_port,
                              const ActionList& actions);

  std::vector<std::pair<PortId, Packet>> expand_action(const Action& a,
                                                       PortId in_port,
                                                       const Packet& p) const;
};

}  // namespace nicemc::of

#endif  // NICE_OF_SWITCH_H
