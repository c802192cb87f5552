#include "props/no_stale_rules.h"

#include "mc/system.h"

namespace nicemc::props {

void NoStaleRules::at_quiescence(mc::PropState& ps,
                                 const mc::SystemState& state,
                                 std::vector<mc::Violation>& out) const {
  (void)ps;
  for (const of::Switch& sw : state.switches()) {
    if (sw.down_ports().empty()) continue;
    for (const of::Rule& rule : sw.table().rules()) {
      for (const of::Action& a : rule.actions) {
        if (a.type == of::ActionType::kOutput &&
            sw.down_ports().contains(a.port)) {
          out.push_back(mc::Violation{
              name(), "switch " + std::to_string(sw.id) + " rule " +
                          rule.brief() + " still forwards out failed port " +
                          std::to_string(a.port)});
        }
      }
    }
  }
}

}  // namespace nicemc::props
