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
// Its state is four copy-on-write util::Parts, one per serialized section:
// the fault state and flow table, the ingress channels, the channel part
// (both OpenFlow channels and the buffer whose ids they name) and the port
// counters. A Switch value is a thin shell (part handles + configuration),
// so copying one is cheap, and each mutator unshares only the parts it
// writes. Its hash combines the sections' memoized hashes, so a child
// state re-serializes only the sections its transition touched.
//
// The switch is a pure state machine: it never touches the topology. Packet
// emissions are returned as structured outcomes; the model checker's
// executor resolves output ports to link peers and generates property
// events.
#ifndef NICE_OF_SWITCH_H
#define NICE_OF_SWITCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "of/channel.h"
#include "of/flowtable.h"
#include "of/messages.h"
#include "of/packet.h"
#include "util/ser.h"
#include "util/snap.h"

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

class Switch {
 public:
  /// The switch state, one copy-on-write util::Part per serialized section
  /// (kSerializeParts, in section order). A copied Switch shares every
  /// part, and each mutator below unshares only the parts it writes.
  /// Section 0: the fault state and the flow table.
  struct Core {
    /// Controller connection lost (kCtrlChannelDown): both OpenFlow
    /// channels are wiped and stay frozen until kCtrlChannelUp replays
    /// the handshake.
    bool ctrl_channel_down{false};
    /// Ports whose attached link is down (kLinkDown marks both endpoints).
    /// Forwarding into a down port loses the packet at delivery time.
    std::set<PortId> down_ports;
    FlowTable table;
  };
  /// Section 1: the ingress packet channels.
  using Ingress = std::map<PortId, Fifo<Packet>>;
  /// Packets awaiting a controller decision.
  struct Buffer {
    std::map<std::uint32_t, BufferedPacket> entries;
    std::uint32_t next_id{1};
  };
  /// Section 2: both OpenFlow channels and the buffer. A canonical channel
  /// names buffer ids by content rank in this buffer, so the names a
  /// section writes are all ranked inside its own part.
  struct Channel {
    Fifo<ToSwitch> of_in;
    /// Global send-order tags parallel to of_in. Bookkeeping for the
    /// UNUSUAL search strategy only — deterministic in the transition
    /// history, and deliberately excluded from serialization so it never
    /// splits states.
    std::vector<std::uint64_t> of_in_seq;
    Fifo<ToController> of_out;
    Buffer buffer;
  };
  /// Section 3: per-port counters.
  using PortStats = std::map<PortId, PortStatsEntry>;

  // Configuration: fixed for the switch's lifetime and never serialized
  // (the id is written by section 0).
  SwitchId id{0};
  std::size_t buffer_capacity{64};
  ChannelFaults pkt_channel_faults;

  Switch() = default;
  Switch(SwitchId sw_id, std::vector<PortId> port_list,
         std::size_t buf_capacity = 64);

  // --- reads (never unshare) ---
  /// All ports, for flood expansion.
  [[nodiscard]] const std::vector<PortId>& ports() const noexcept {
    return *ports_;
  }
  [[nodiscard]] const FlowTable& table() const noexcept {
    return core_.get().table;
  }
  [[nodiscard]] bool ctrl_channel_down() const noexcept {
    return core_.get().ctrl_channel_down;
  }
  [[nodiscard]] const std::set<PortId>& down_ports() const noexcept {
    return core_.get().down_ports;
  }
  [[nodiscard]] const Ingress& in_ports() const noexcept {
    return ingress_.get();
  }
  [[nodiscard]] const Fifo<ToSwitch>& of_in() const noexcept {
    return chan_.get().of_in;
  }
  [[nodiscard]] const Fifo<ToController>& of_out() const noexcept {
    return chan_.get().of_out;
  }
  [[nodiscard]] const std::map<std::uint32_t, BufferedPacket>& buffer()
      const noexcept {
    return chan_.get().buffer.entries;
  }
  [[nodiscard]] const PortStats& port_stats() const noexcept {
    return port_stats_.get();
  }

  // --- direct part writes (each unshares one part) ---
  [[nodiscard]] FlowTable& table_mut() { return core_.mut().table; }
  [[nodiscard]] Fifo<Packet>& in_port_mut(PortId port) {
    return ingress_.mut().at(port);
  }
  [[nodiscard]] Buffer& buffer_mut() { return chan_.mut().buffer; }
  [[nodiscard]] PortStats& port_stats_mut() { return port_stats_.mut(); }

  /// Enqueue a packet on an ingress channel (link delivery).
  void enqueue_packet(PortId port, Packet p);

  /// Enqueue a controller→switch message with its global send-order tag.
  void push_of(ToSwitch msg, std::uint64_t seq = 0) {
    Channel& c = chan_.mut();
    c.of_in.push(std::move(msg));
    c.of_in_seq.push_back(seq);
  }

  /// Send-order tag of the head OpenFlow message (0 when empty).
  [[nodiscard]] std::uint64_t head_of_seq() const {
    const std::vector<std::uint64_t>& seq = chan_.get().of_in_seq;
    return seq.empty() ? 0 : seq.front();
  }

  /// Dequeue the head switch→controller message (controller receive).
  ToController pop_of_out() { return chan_.mut().of_out.pop(); }

  [[nodiscard]] bool can_process_pkt() const;
  [[nodiscard]] bool can_process_of() const { return !of_in().empty(); }

  /// The process_pkt transition: one head packet per non-empty ingress
  /// channel, each run through the flow table.
  std::vector<PacketOutcome> process_pkt();

  /// The process_of transition: apply the head OpenFlow message.
  OfOutcome process_of();

  /// Insertion-order indices of rules that have a timeout and could expire
  /// (drives the optional rule-expiry transitions).
  [[nodiscard]] std::vector<std::size_t> expirable_rules() const;
  void expire_rule(std::size_t idx) { table_mut().erase_at(idx); }

  /// All packets awaiting a controller decision (NoForgottenPackets).
  [[nodiscard]] std::size_t forgotten_packets() const {
    return buffer().size();
  }

  /// Messages lost when the controller connection drops.
  struct ChannelLoss {
    std::size_t lost_to_switch{0};
    std::size_t lost_to_ctrl{0};
  };
  /// kCtrlChannelDown: wipe both OpenFlow channels, freeze the connection.
  ChannelLoss disconnect_ctrl();
  /// kCtrlChannelUp: unfreeze; the executor replays the app handshake.
  void reconnect_ctrl() { core_.mut().ctrl_channel_down = false; }

  /// Push an OFPT_PORT_STATUS notification unless the connection is down.
  void emit_port_status(PortId port, bool up) {
    if (!ctrl_channel_down()) {
      chan_.mut().of_out.push(PortStatus{.port = port, .up = up});
    }
  }

  /// kLinkDown / kLinkUp at one endpoint: mark `port` down or up and
  /// notify the controller.
  void set_link(PortId port, bool up);

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
  /// and so does the buffer-id counter, so stale packet_outs from before
  /// the restart can never alias a fresh buffer entry.
  RestartSummary restart();

  /// True when both switches hold the identical node of section `part`
  /// (test hook for per-part copy-on-write).
  [[nodiscard]] bool shares_part(const Switch& o, std::size_t part) const;

  /// Serialization (Section 2.2.2). The canonical form writes rules in
  /// canonical order, omits copy ids and the buffer-id counter, and names
  /// every buffer id by its packet's content rank (util/rename.h).
  /// `canonical = false` is the raw form the NO-SWITCH-REDUCTION baseline
  /// hashes. Serializes the live parts and touches no memo, so it is the
  /// one to call under a symmetry renamer.
  void serialize(util::Ser& s, bool canonical = true) const;

  /// The serialization is kSerializeParts contiguous sections, written
  /// in part order: identity + faults + flow table, the ingress queues,
  /// the channel part (of_in, of_out, then the buffer), and the port
  /// stats.
  /// serialize_part writes section `part` alone, for the symmetry layer's
  /// signature passes, which redo only the sections a member renaming
  /// touches. Byte-identical to that section of serialize() except under a
  /// uid-assigning renamer, where serialize() hands out the buffered
  /// packets' uids before any section.
  static constexpr std::size_t kSerializeParts = 4;
  void serialize_part(util::Ser& s, bool canonical, std::size_t part) const;

  /// The switch's state hash (util::PartHashed): util::hash128_combine
  /// over the four section hashes in section order, each the hash128 of
  /// that section's bytes, memoized on its part and recomputed only when
  /// the memo is empty. Must not be called under an active renamer.
  [[nodiscard]] util::Hash128 hash(bool canonical) const;

  /// Section `part`'s hash as hash() combines it, memoized on the part.
  /// Must not be called under an active renamer.
  [[nodiscard]] util::Hash128 part_hash(std::size_t part,
                                        bool canonical) const;

  /// serialize() into `s`, returning hash(canonical) and memoizing each
  /// section's hash from its slice of the bytes (one pass for the
  /// COLLAPSE store's whole-switch interning).
  util::Hash128 serialize_hashed(util::Ser& s, bool canonical) const;

  /// The symmetry layer's member-signature memos of section `part`.
  [[nodiscard]] util::SigMemoSlot& part_sig_memo(std::size_t part) const;

  /// Canonical name of buffer id `bid` under the active naming (a parked
  /// packet_out's entry in mc::SystemState::serialize_trailer).
  [[nodiscard]] std::uint32_t buffer_name(std::uint32_t bid) const;

 private:
  /// Name the live buffer ids by content rank in `rn` (canonical only;
  /// once per scope). The channel section, which writes every buffer id,
  /// calls it.
  /// Returns the live entries in rank order, or an empty span when there
  /// is nothing to name (a raw form or an empty buffer).
  std::span<const BufferedPacket* const> name_buffers(util::Renamer* rn) const;

  void serialize_section(util::Ser& s, bool canonical, std::size_t part,
                         util::Renamer* rn) const;

  /// The memo of section `part`.
  util::HashMemo& part_memo(std::size_t part, bool canonical) const;

  /// Run one packet through the flow table (shared by ingress processing
  /// and by packet_out action application when actions come from a rule).
  PacketOutcome run_pipeline(Packet p, PortId in_port, bool record_hop);

  /// Apply an explicit action list to a packet (packet_out).
  PacketOutcome apply_actions(Packet p, PortId in_port,
                              const ActionList& actions);

  /// Buffer `p` for the controller and queue its packet_in.
  std::uint32_t punt(const Packet& p, PortId in_port,
                     PacketIn::Reason reason);

  /// Expand `a` into (port, packet) emissions, counting each in tx stats.
  void forward(const Action& a, PortId in_port, const Packet& p,
               PacketOutcome& oc);

  std::shared_ptr<const std::vector<PortId>> ports_ =
      std::make_shared<const std::vector<PortId>>();
  util::Part<Core> core_;
  util::Part<Ingress> ingress_;
  util::Part<Channel> chan_;
  util::Part<PortStats> port_stats_;
};

}  // namespace nicemc::of

#endif  // NICE_OF_SWITCH_H
