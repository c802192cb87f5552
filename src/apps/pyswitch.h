// MAC-learning switch — a faithful port of Figure 3 (NOX pyswitch).
//
// The packet_in handler learns the input port of every non-broadcast
// source MAC; if the destination MAC is known (and not the ingress port),
// it installs a forwarding rule with a soft timeout and releases the
// buffered packet along it; otherwise it floods.
//
// Bugs (Section 8.1), each reproduced by default and fixable via options:
//   BUG-I   host unreachable after moving — the rule's soft timeout never
//           expires while traffic flows, so packets blackhole at the old
//           port. fix_hard_timeout adds a hard timeout.
//   BUG-II  delayed direct path — only the sender→destination rule is
//           installed, so the reply direction goes to the controller
//           again. bug2 = kNaive installs the reverse rule *after*
//           releasing the packet (still racy); kCorrect installs the
//           reverse rule first.
//   BUG-III excess flooding — no spanning tree, so flooding on a cyclic
//           topology loops (no fix provided; the paper's fix would be a
//           spanning-tree computation).
#ifndef NICE_APPS_PYSWITCH_H
#define NICE_APPS_PYSWITCH_H

#include <map>

#include "ctrl/app.h"

namespace nicemc::apps {

struct PySwitchOptions {
  bool fix_hard_timeout{false};  // BUG-I
  enum class Bug2Fix : std::uint8_t { kNone, kNaive, kCorrect };
  Bug2Fix bug2{Bug2Fix::kNone};
  std::uint16_t idle_timeout{5};
  std::uint16_t hard_timeout{10};  // used when fix_hard_timeout
  /// FLOW-IR grouping at microflow granularity (unordered 5-tuple) instead
  /// of MAC pairs — the Section 4 example "in some scenarios different
  /// microflows are independent". Used by the ping workload, where
  /// concurrent pings are independent exchanges.
  bool microflow_grouping{false};
  /// React to OFPT_PORT_STATUS: forget every MAC learned on a failed port
  /// so later traffic floods (and re-learns) instead of following the
  /// stale location. Off reproduces the Figure 3 app, which ignores port
  /// status entirely.
  bool react_to_port_status{false};
};

class PySwitchState final : public ctrl::AppState {
 public:
  /// Per-switch MAC table: MAC → learned input port (Figure 3 ctrl_state).
  std::map<of::SwitchId, ctrl::SymTable> mactable;

  [[nodiscard]] std::unique_ptr<ctrl::AppState> clone() const override {
    return std::make_unique<PySwitchState>(*this);
  }
  void serialize(util::Ser& s) const override {
    s.put_tag('p');
    s.put_u32(static_cast<std::uint32_t>(mactable.size()));
    const util::Renamer* rn = util::Renamer::active();
    for (const auto& [sw, table] : mactable) {
      s.put_u32(sw);
      // MAC keys and learned ports both rename: put_map_u64's byte format
      // on the renamed map.
      s.put_u32(static_cast<std::uint32_t>(table.size()));
      util::for_each_named(
          table.raw(), util::rn_renames_hosts(rn),
          [&](const auto& e) { return util::rn_mac(rn, e.first); },
          [&, sw = sw](std::uint64_t mac, const auto& e) {
            s.put_u64(mac);
            s.put_u64(
                util::rn_port(rn, sw, static_cast<std::uint32_t>(e.second)));
          });
    }
  }
};

class PySwitch final : public ctrl::App {
 public:
  explicit PySwitch(PySwitchOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "pyswitch"; }
  [[nodiscard]] std::unique_ptr<ctrl::AppState> make_initial_state()
      const override {
    return std::make_unique<PySwitchState>();
  }

  void packet_in(ctrl::AppState& state, ctrl::Ctx& ctx, of::SwitchId sw,
                 of::PortId in_port, const sym::SymPacket& pkt,
                 std::uint32_t buffer_id,
                 of::PacketIn::Reason reason) const override;

  void switch_join(ctrl::AppState& state, ctrl::Ctx& ctx,
                   of::SwitchId sw) const override;
  void switch_leave(ctrl::AppState& state, ctrl::Ctx& ctx,
                    of::SwitchId sw) const override;

  void handle_port_status(ctrl::AppState& state, ctrl::Ctx& ctx,
                          of::SwitchId sw, of::PortId port,
                          bool up) const override;

  [[nodiscard]] bool is_same_flow(const sym::PacketFields& a,
                                  const sym::PacketFields& b) const override;

 private:
  PySwitchOptions options_;
};

}  // namespace nicemc::apps

#endif  // NICE_APPS_PYSWITCH_H
