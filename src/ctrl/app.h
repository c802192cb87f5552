// The NOX-like application interface.
//
// A controller application is a *stateless* object (all handler methods are
// const) whose mutable state lives in an AppState subclass. This split is
// what makes NICE's architecture work:
//   * the model checker clones/serializes AppState as part of the system
//     state (concrete controller state, paper Section 3.2);
//   * discover_packets clones AppState and symbolically executes packet_in
//     against the clone, discarding emitted commands;
//   * handlers receive packets and statistics as concolic values
//     (sym::SymPacket / SymStats), so the same handler code serves both
//     concrete model-checking execution and symbolic discovery.
#ifndef NICE_CTRL_APP_H
#define NICE_CTRL_APP_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/commands.h"
#include "of/messages.h"
#include "of/packet.h"
#include "sym/sympacket.h"
#include "sym/value.h"
#include "util/ser.h"

namespace nicemc::ctrl {

/// Mutable application state. Must be deep-cloneable and canonically
/// serializable (both are required for state matching and discovery).
class AppState {
 public:
  virtual ~AppState() = default;
  [[nodiscard]] virtual std::unique_ptr<AppState> clone() const = 0;
  virtual void serialize(util::Ser& s) const = 0;
};

/// Concolic view of a port-stats reply (discover_stats runs the handler
/// with symbolic integers as arguments, Section 3.3).
struct SymStats {
  std::map<of::PortId, sym::Value> tx_bytes;

  static SymStats concrete(const of::StatsReply& r) {
    SymStats s;
    for (const auto& [port, st] : r.ports) {
      s.tx_bytes.emplace(port, sym::Value(st.tx_bytes, 32));
    }
    return s;
  }
};

/// A dictionary from concrete keys to concrete values supporting concolic
/// lookups: probing with a symbolic key scans the entries and records one
/// equality branch per entry — the C++ analogue of the paper's
/// constraint-exposing dictionary stub (Section 6, transformation (iv)).
class SymTable {
 public:
  using Map = std::map<std::uint64_t, std::uint64_t>;

  /// Concolic membership test. Records branches as a side effect.
  [[nodiscard]] bool contains(const sym::Value& key) const {
    for (const auto& [k, v] : map_) {
      if (key == sym::Value(k, key.width())) return true;
    }
    return false;
  }

  /// Concolic lookup; call only after contains() returned true (the scan
  /// re-records the equality branch that identifies the entry).
  [[nodiscard]] std::uint64_t at(const sym::Value& key) const {
    for (const auto& [k, v] : map_) {
      if (key == sym::Value(k, key.width())) return v;
    }
    return 0;
  }

  /// Concrete write (controller state stays concrete; the concolic engine
  /// always runs handlers on cloned state, so writing the concrete value of
  /// a symbolic key is sound — Section 3.2).
  void put(std::uint64_t key, std::uint64_t value) { map_[key] = value; }
  void erase(std::uint64_t key) { map_.erase(key); }
  [[nodiscard]] const Map& raw() const noexcept { return map_; }
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }

  friend bool operator==(const SymTable&, const SymTable&) = default;

 private:
  Map map_;
};

/// Controller application behaviour. Implementations must keep all mutable
/// state in their AppState; handler methods are const to enforce this.
class App {
 public:
  virtual ~App() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<AppState> make_initial_state()
      const = 0;

  /// Packet arrival (Figure 3 packet_in). `pkt` is concolic.
  virtual void packet_in(AppState& state, Ctx& ctx, of::SwitchId sw,
                         of::PortId in_port, const sym::SymPacket& pkt,
                         std::uint32_t buffer_id,
                         of::PacketIn::Reason reason) const = 0;

  virtual void switch_join(AppState& state, Ctx& ctx,
                           of::SwitchId sw) const {
    (void)state;
    (void)ctx;
    (void)sw;
  }
  virtual void switch_leave(AppState& state, Ctx& ctx,
                            of::SwitchId sw) const {
    (void)state;
    (void)ctx;
    (void)sw;
  }

  /// Port-statistics reply (concolic, for discover_stats).
  virtual void stats_in(AppState& state, Ctx& ctx, of::SwitchId sw,
                        const SymStats& stats) const {
    (void)state;
    (void)ctx;
    (void)sw;
    (void)stats;
  }

  virtual void barrier_in(AppState& state, Ctx& ctx, of::SwitchId sw,
                          std::uint32_t xid) const {
    (void)state;
    (void)ctx;
    (void)sw;
    (void)xid;
  }

  /// OFPT_PORT_STATUS: port `port` of switch `sw` went down (link failure)
  /// or came back up. Robust applications react — flush learned state,
  /// re-steer flows, recompute paths — so traffic survives the failure.
  virtual void handle_port_status(AppState& state, Ctx& ctx, of::SwitchId sw,
                                  of::PortId port, bool up) const {
    (void)state;
    (void)ctx;
    (void)sw;
    (void)port;
    (void)up;
  }

  /// FLOW-IR support: do two packets belong to the same flow group
  /// (the user-provided isSameFlow of Section 4)?
  [[nodiscard]] virtual bool is_same_flow(
      const sym::PacketFields& a, const sym::PacketFields& b) const {
    return of::MacPair::of_packet(a) == of::MacPair::of_packet(b) ||
           of::MacPair::of_packet(a) == of::MacPair::of_packet(b).reversed();
  }

  /// Application-level external events (e.g. the load balancer's policy
  /// change). Returns labels of events enabled in `state`; the model
  /// checker exposes each as a controller transition.
  [[nodiscard]] virtual std::vector<std::string> external_events(
      const AppState& state) const {
    (void)state;
    return {};
  }
  virtual void on_external(AppState& state, Ctx& ctx,
                           std::size_t event_index) const {
    (void)state;
    (void)ctx;
    (void)event_index;
  }

  /// True if the app wants periodic port statistics from `sw` (enables the
  /// stats-request transition; the TE application uses this).
  [[nodiscard]] virtual bool wants_stats(const AppState& state,
                                         of::SwitchId sw) const {
    (void)state;
    (void)sw;
    return false;
  }
};

}  // namespace nicemc::ctrl

#endif  // NICE_CTRL_APP_H
