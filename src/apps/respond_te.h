// Energy-efficient traffic engineering after REsPoNse [28], as tested in
// paper Section 8.3.
//
// The app precomputes two routing tables per destination: an always-on
// path (enough for light load) and an on-demand path (extra capacity). It
// learns link utilization by querying port statistics of the ingress
// switch; above a threshold the network is perceived as highly loaded and
// new flows should be split between the two path classes. On the first
// packet of a flow the packet_in handler picks a table, looks up the
// switch list of the path, and installs a rule at each hop.
//
// Bugs (Section 8.3), on by default:
//   BUG-VIII the handler never releases the buffered first packet
//            (fix_release_packet).
//   BUG-IX   a packet can reach the second switch before its rule; the
//            handler implicitly ignores non-ingress packet_ins
//            (fix_handle_intermediate installs the rule at that switch and
//            releases the packet).
//   BUG-X    the stats handler records the chosen table in a global; under
//            high load *all* new flows take on-demand routes instead of
//            splitting (fix_per_flow_table chooses per flow).
//   BUG-XI   after the load drops, a switch that is only on on-demand
//            paths is no longer found in the recomputed lists, so its
//            packet_in is ignored (fix_lookup_all_tables searches both
//            tables).
#ifndef NICE_APPS_RESPOND_TE_H
#define NICE_APPS_RESPOND_TE_H

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

#include "ctrl/app.h"

namespace nicemc::apps {

/// One precomputed path: (switch, egress port) per hop, ingress first.
struct TePath {
  std::vector<std::pair<of::SwitchId, of::PortId>> hops;
};

enum class TeTable : std::uint8_t { kAlwaysOn = 0, kOnDemand = 1 };

struct TeOptions {
  of::SwitchId ingress{0};
  /// Port of the ingress switch whose tx_bytes proxies network load.
  of::PortId monitored_port{2};
  std::uint32_t threshold{500};
  /// Destination IP → {always-on path, on-demand path}.
  std::map<std::uint32_t, std::array<TePath, 2>> paths;

  bool fix_release_packet{false};       // BUG-VIII
  bool fix_handle_intermediate{false};  // BUG-IX
  bool fix_per_flow_table{false};      // BUG-X
  bool fix_lookup_all_tables{false};   // BUG-XI
  /// React to OFPT_PORT_STATUS: remember failed ports, route new flows
  /// around them, and re-route established flows whose path crosses the
  /// dead link onto the other path class. Off reproduces the original app,
  /// which leaves rules forwarding into the failed link.
  bool react_to_port_status{false};
};

class RespondTeState final : public ctrl::AppState {
 public:
  /// Perceived energy state — doubles as the "extra global routing table"
  /// of BUG-X (true = use on-demand for everything).
  bool energy_high{false};
  /// Fault bookkeeping, populated only under react_to_port_status:
  /// per-flow chosen path class, and the failed ports learned from
  /// OFPT_PORT_STATUS (routing avoids paths that cross them).
  std::map<of::FiveTuple, std::uint8_t> routed;
  std::map<of::SwitchId, std::set<of::PortId>> down_ports;

  [[nodiscard]] std::unique_ptr<ctrl::AppState> clone() const override {
    return std::make_unique<RespondTeState>(*this);
  }
  void serialize(util::Ser& s) const override {
    const util::Renamer* rn = util::Renamer::active();
    s.put_tag('T');
    s.put_bool(energy_high);
    s.put_u32(static_cast<std::uint32_t>(routed.size()));
    const bool renames = util::rn_renames_hosts(rn);
    util::for_each_named(
        routed, renames, [&](const auto& e) { return e.first.renamed(rn); },
        [&](const of::FiveTuple& t, const auto& e) {
          t.serialize(s);
          s.put_u8(e.second);
        });
    s.put_u32(static_cast<std::uint32_t>(down_ports.size()));
    for (const auto& [sw, ports] : down_ports) {
      s.put_u32(sw);
      s.put_u32(static_cast<std::uint32_t>(ports.size()));
      util::for_each_named(
          ports, renames,
          [&, sw = sw](of::PortId p) { return util::rn_port(rn, sw, p); },
          [&](of::PortId p, of::PortId) { s.put_u32(p); });
    }
  }
};

class RespondTe final : public ctrl::App {
 public:
  explicit RespondTe(TeOptions options) : options_(std::move(options)) {}

  [[nodiscard]] std::string name() const override { return "respond-te"; }
  [[nodiscard]] std::unique_ptr<ctrl::AppState> make_initial_state()
      const override {
    return std::make_unique<RespondTeState>();
  }

  void packet_in(ctrl::AppState& state, ctrl::Ctx& ctx, of::SwitchId sw,
                 of::PortId in_port, const sym::SymPacket& pkt,
                 std::uint32_t buffer_id,
                 of::PacketIn::Reason reason) const override;

  void stats_in(ctrl::AppState& state, ctrl::Ctx& ctx, of::SwitchId sw,
                const ctrl::SymStats& stats) const override;

  void handle_port_status(ctrl::AppState& state, ctrl::Ctx& ctx,
                          of::SwitchId sw, of::PortId port,
                          bool up) const override;

  [[nodiscard]] bool wants_stats(const ctrl::AppState& state,
                                 of::SwitchId sw) const override {
    (void)state;
    return sw == options_.ingress;
  }

  [[nodiscard]] bool is_same_flow(const sym::PacketFields& a,
                                  const sym::PacketFields& b) const override {
    return of::FiveTuple::of_packet(a) == of::FiveTuple::of_packet(b);
  }

  /// The table the *correct* app would pick for this packet in this state
  /// (exposed for the UseCorrectRoutingTable property).
  [[nodiscard]] TeTable correct_table(const RespondTeState& st,
                                      const sym::PacketFields& hdr) const {
    if (!st.energy_high) return TeTable::kAlwaysOn;
    return (hdr.tp_src & 1) != 0 ? TeTable::kOnDemand : TeTable::kAlwaysOn;
  }

  [[nodiscard]] const TeOptions& options() const noexcept { return options_; }

 private:
  [[nodiscard]] TeTable chosen_table(const RespondTeState& st,
                                     const sym::SymPacket& pkt) const;

  TeOptions options_;
};

}  // namespace nicemc::apps

#endif  // NICE_APPS_RESPOND_TE_H
