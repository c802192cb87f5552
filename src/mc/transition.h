// Transitions of the system model (paper Section 2.2): host sends/receives
// and moves, switch packet/OpenFlow processing, controller dispatch, rule
// expiry, channel faults and external application events. NICE's
// discover_packets / discover_stats transitions (Figure 5) are not
// transitions here: Executor::enabled runs discovery inline and yields
// kHostSendDiscovered / kCtrlProcessStats with the representative values.
//
// Transitions are self-describing values: replaying the sequence of
// transitions from the initial state deterministically reproduces a state
// (this is how counterexample traces work, paper Section 6).
#ifndef NICE_MC_TRANSITION_H
#define NICE_MC_TRANSITION_H

#include <cstdint>
#include <string>
#include <vector>

#include "of/packet.h"
#include "sym/sympacket.h"
#include "util/ser.h"

namespace nicemc::mc {

enum class TKind : std::uint8_t {
  kHostSendScript,     // host sends its next scripted packet
  kHostSendDiscovered,  // host sends a discovered relevant packet (fields)
  kHostSendDup,        // host re-sends script entry 0 (duplicate SYN)
  kHostSendReply,      // host sends the head pending reply
  kHostRecv,           // host consumes the head of its input queue
  kHostMove,           // mobile host moves to alt location `aux`
  kSwitchProcessPkt,   // paper's process_pkt
  kSwitchProcessOf,    // paper's process_of
  kCtrlDispatch,       // controller consumes head switch→controller message
  kCtrlApplyCommand,   // FINE-INTERLEAVING: apply one pending command
  kCtrlExternal,       // app-level external event `aux` (e.g. LB reconfig)
  kCtrlRequestStats,   // controller queries port stats of switch `a`
  kCtrlProcessStats,   // consume a stats reply with representative values
  kRuleExpire,         // rule `aux` (insertion index) of switch `a` expires
  kChannelDropHead,    // fault model: drop head of <switch a, port aux>
  kChannelDupHead,     // fault model: duplicate head of <switch a, port aux>
  kLinkDown,           // fault model: topology link `a` fails (both ends)
  kLinkUp,             // fault model: topology link `a` repairs
  kCtrlChannelDown,    // fault model: switch `a` loses its controller link
  kCtrlChannelUp,      // fault model: switch `a` reconnects (handshake)
  kSwitchRestart,      // fault model: switch `a` reboots (table/buffers wiped)
};

/// Stable machine-readable name of a TKind ("host_send_script", ...), for
/// the structured trace exports (mc/trace.h) — Transition::label() is the
/// human form with actor ids baked in.
[[nodiscard]] const char* tkind_name(TKind kind) noexcept;

struct Transition {
  TKind kind{TKind::kHostRecv};
  std::uint32_t a{0};    // host or switch id
  std::uint32_t aux{0};  // alt-location / external-event / rule / port index
  /// Payload of kHostSendDiscovered: the representative packet.
  sym::PacketFields fields;
  /// Payload of kCtrlProcessStats: representative per-port tx_bytes.
  std::vector<std::pair<of::PortId, std::uint64_t>> stats;

  friend bool operator==(const Transition&, const Transition&) = default;

  [[nodiscard]] std::string label() const;
  void serialize(util::Ser& s) const;
  /// Exact inverse of serialize() — transitions are self-describing
  /// values, so a checkpointed frontier stores them verbatim and replays
  /// them to rebuild states (mc/checkpoint.h).
  [[nodiscard]] static Transition deserialize(util::Des& d);
};

}  // namespace nicemc::mc

#endif  // NICE_MC_TRANSITION_H
