// NoBlackHoles (paper Section 5.2): no packet is silently dropped. Every
// injected packet must ultimately be delivered to a host or deliberately
// consumed by the controller; flooding must balance copies against
// consumptions. Packets parked in a switch's awaiting-controller buffer
// count as consumed here — leaving them there is NoForgottenPackets' job.
#ifndef NICE_PROPS_NO_BLACK_HOLES_H
#define NICE_PROPS_NO_BLACK_HOLES_H

#include <map>

#include "mc/property.h"
#include "util/rename.h"

namespace nicemc::props {

class NoBlackHolesState final : public mc::PropState {
 public:
  /// Per-uid count of copies currently in flight or queued for delivery.
  std::map<std::uint32_t, std::int64_t> balance;

  [[nodiscard]] std::unique_ptr<mc::PropState> clone() const override {
    return std::make_unique<NoBlackHolesState>(*this);
  }
  void serialize(util::Ser& s) const override {
    s.put_tag('B');
    s.put_u32(static_cast<std::uint32_t>(balance.size()));
    const util::Renamer* rn = util::Renamer::active();
    util::for_each_by_uid(
        balance, rn, [](const auto& e) { return e.first; },
        [&](std::uint32_t uid, const auto& e) {
          s.put_u32(uid);
          s.put_i64(e.second);
        });
  }
};

class NoBlackHoles final : public mc::Property {
 public:
  [[nodiscard]] std::string name() const override { return "NoBlackHoles"; }
  [[nodiscard]] std::unique_ptr<mc::PropState> make_state() const override {
    return std::make_unique<NoBlackHolesState>();
  }
  void on_events(mc::PropState& ps, std::span<const mc::Event> events,
                 const mc::SystemState& state,
                 std::vector<mc::Violation>& out) const override;
  void at_quiescence(mc::PropState& ps, const mc::SystemState& state,
                     std::vector<mc::Violation>& out) const override;
};

}  // namespace nicemc::props

#endif  // NICE_PROPS_NO_BLACK_HOLES_H
