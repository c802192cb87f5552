// Execution semantics: enabled-transition enumeration and transition
// application, including the NO-DELAY lock-step mode and the
// FINE-INTERLEAVING baseline.
#ifndef NICE_MC_EXECUTE_H
#define NICE_MC_EXECUTE_H

#include <vector>

#include "mc/discover.h"
#include "mc/events.h"
#include "mc/property.h"
#include "mc/system.h"
#include "mc/transition.h"

namespace nicemc::mc {

class Executor {
 public:
  Executor(const SystemConfig& cfg, const PropertyList& props)
      : cfg_(cfg), props_(props) {}

  /// Initial system state: app state created, switch_join dispatched for
  /// every switch (with resulting commands applied synchronously).
  [[nodiscard]] SystemState make_initial() const;

  /// Enabled transitions in deterministic order. Performs discover_packets/
  /// discover_stats on demand (memoized in `cache`) — operationally
  /// equivalent to Figure 5's explicit discover transitions, see
  /// ARCHITECTURE.md, "The mc pipeline".
  std::vector<Transition> enabled(const SystemState& state,
                                  DiscoveryCache& cache) const;

  /// Execute `t` on `state`; property monitors observe the generated
  /// events and append any violations.
  void apply(SystemState& state, const Transition& t,
             std::vector<Violation>& violations) const;

  /// Invoke terminal checks (quiescent state = no enabled transitions).
  void at_quiescence(SystemState& state,
                     std::vector<Violation>& violations) const;

  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }

 private:
  void inject_host_packet(SystemState& state, of::HostId host,
                          const sym::PacketFields& hdr, std::uint32_t flow,
                          EventList& events) const;
  void deliver(SystemState& state, of::SwitchId from_sw, of::PortId out_port,
               of::Packet pkt, EventList& events) const;
  void handle_outcome(SystemState& state, of::SwitchId sw,
                      const of::PacketOutcome& oc, EventList& events) const;
  void run_switch_pkt(SystemState& state, of::SwitchId sw,
                      EventList& events) const;
  void run_switch_of(SystemState& state, of::SwitchId sw,
                     EventList& events) const;
  void ctrl_dispatch(SystemState& state, of::SwitchId sw,
                     EventList& events) const;
  void push_commands(SystemState& state, std::vector<ctrl::Command> cmds,
                     EventList& events) const;
  /// Reconnect handshake (kCtrlChannelUp / kSwitchRestart): replay
  /// switch_leave + switch_join so the app resyncs, then report every
  /// still-down port over the fresh connection.
  void replay_handshake(SystemState& state, of::SwitchId sw,
                        EventList& events) const;
  /// NO-DELAY: drain all pending controller↔switch communication so the
  /// exchange appears atomic. Leaves stats replies in place when symbolic
  /// discovery is on (they are consumed by discover/process-stats).
  void drain_lockstep(SystemState& state, EventList& events) const;
  void feed_properties(SystemState& state, const EventList& events,
                       std::vector<Violation>& violations) const;

  const SystemConfig& cfg_;
  const PropertyList& props_;
};

}  // namespace nicemc::mc

#endif  // NICE_MC_EXECUTE_H
