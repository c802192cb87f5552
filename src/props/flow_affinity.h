// FlowAffinity (paper Section 8.2): all packets of one TCP connection must
// be delivered to the same server replica. The property is configured with
// the replica host set; deliveries to other hosts are ignored.
#ifndef NICE_PROPS_FLOW_AFFINITY_H
#define NICE_PROPS_FLOW_AFFINITY_H

#include <map>
#include <set>

#include "mc/property.h"
#include "of/packet.h"

namespace nicemc::props {

class FlowAffinityState final : public mc::PropState {
 public:
  std::map<of::FiveTuple, of::HostId> assignment;

  [[nodiscard]] std::unique_ptr<mc::PropState> clone() const override {
    return std::make_unique<FlowAffinityState>(*this);
  }
  void serialize(util::Ser& s) const override {
    s.put_tag('A');
    s.put_u32(static_cast<std::uint32_t>(assignment.size()));
    const util::Renamer* rn = util::Renamer::active();
    util::for_each_named(
        assignment, util::rn_renames_hosts(rn),
        [&](const auto& e) { return e.first.renamed(rn); },
        [&](const of::FiveTuple& t, const auto& e) {
          t.serialize(s);
          s.put_u32(util::rn_host(rn, e.second));
        });
  }
};

class FlowAffinity final : public mc::Property {
 public:
  explicit FlowAffinity(std::set<of::HostId> replicas)
      : replicas_(std::move(replicas)) {}

  [[nodiscard]] std::string name() const override { return "FlowAffinity"; }
  [[nodiscard]] std::unique_ptr<mc::PropState> make_state() const override {
    return std::make_unique<FlowAffinityState>();
  }
  void on_events(mc::PropState& ps, std::span<const mc::Event> events,
                 const mc::SystemState& state,
                 std::vector<mc::Violation>& out) const override;

 private:
  std::set<of::HostId> replicas_;
};

}  // namespace nicemc::props

#endif  // NICE_PROPS_FLOW_AFFINITY_H
