// Controller runtime state and message dispatch.
//
// The controller is "logically centralized": one App instance (stateless
// behaviour) plus a ControllerState (the app's mutable state, the xid
// counter, outstanding stats requests, and — in the FINE-INTERLEAVING
// baseline — the queue of emitted-but-unapplied commands).
#ifndef NICE_CTRL_CONTROLLER_H
#define NICE_CTRL_CONTROLLER_H

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "ctrl/app.h"
#include "ctrl/commands.h"
#include "of/messages.h"
#include "util/hash.h"
#include "util/ser.h"

namespace nicemc::ctrl {

struct ControllerState {
  std::unique_ptr<AppState> app;
  std::uint32_t next_xid{1};
  /// Switches with an outstanding stats request (bounds the query loop).
  std::set<of::SwitchId> pending_stats;
  std::uint32_t stats_rounds{0};
  /// FINE-INTERLEAVING baseline only: commands emitted by handlers that
  /// have not yet been turned into switch messages. A parked packet_out's
  /// canonical buffer name lives in the state trailer.
  std::vector<std::pair<of::SwitchId, of::ToSwitch>> pending_commands;
  /// Global send-order counter for controller→switch messages. Strategy
  /// bookkeeping (UNUSUAL); deterministic in the history and deliberately
  /// excluded from serialization.
  std::uint64_t next_of_seq{1};

  ControllerState() = default;
  ControllerState(const ControllerState& o);
  ControllerState& operator=(const ControllerState& o);
  ControllerState(ControllerState&&) noexcept = default;
  ControllerState& operator=(ControllerState&&) noexcept = default;

  /// The canonical form names parked packets' copy and buffer ids.
  void serialize(util::Ser& s, bool canonical = true) const;

  /// Hash of the application state alone — the key of the paper's
  /// `client.packets[state(ctrl)]` discovery cache.
  [[nodiscard]] util::Hash128 app_hash() const;
};

/// Result of dispatching one switch→controller message to the app.
struct DispatchResult {
  std::vector<Command> commands;
  bool was_packet_in{false};
  of::PacketIn packet_in;  // valid when was_packet_in
};

/// Run the appropriate handler for `msg` (from switch `from`) against
/// `state`, returning the commands the handler emitted.
DispatchResult dispatch_message(const App& app, ControllerState& state,
                                of::SwitchId from,
                                const of::ToController& msg);

/// Run the stats handler with explicit (representative) per-port tx_bytes
/// values — the concrete instantiation of a discover_stats class.
std::vector<Command> dispatch_stats_with_values(
    const App& app, ControllerState& state, of::SwitchId from,
    const std::vector<std::pair<of::PortId, std::uint64_t>>& tx_bytes);

}  // namespace nicemc::ctrl

#endif  // NICE_CTRL_CONTROLLER_H
