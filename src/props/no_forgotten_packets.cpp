#include "props/no_forgotten_packets.h"

#include <vector>

#include "mc/system.h"

namespace nicemc::props {

void NoForgottenPackets::at_quiescence(mc::PropState& ps,
                                       const mc::SystemState& state,
                                       std::vector<mc::Violation>& out) const {
  (void)ps;
  for (const of::Switch& sw : state.switches()) {
    if (sw.buffer().empty()) continue;
    std::string msg = "switch " + std::to_string(sw.id) + " still buffers " +
                      std::to_string(sw.buffer().size()) +
                      " packet(s) awaiting controller instruction:";
    // In buffer-name order: states that share a key report one message.
    std::vector<const of::Packet*> by_name(sw.buffer().size());
    for (const auto& [bid, bp] : sw.buffer()) {
      by_name[sw.buffer_name(bid) - 1] = &bp.packet;
    }
    for (const of::Packet* p : by_name) {
      msg += ' ';
      msg += p->brief();
    }
    out.push_back(mc::Violation{name(), std::move(msg)});
  }
}

}  // namespace nicemc::props
