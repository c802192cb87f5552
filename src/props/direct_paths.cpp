#include "props/direct_paths.h"

namespace nicemc::props {

namespace {

/// Flows eligible for direct-path tracking: unicast, between two distinct
/// hosts (a MAC-learning switch can never install a direct path for a
/// self-addressed packet — it always floods).
bool is_trackable(const sym::PacketFields& h) {
  return ((h.eth_dst >> 40) & 1) == 0 && h.eth_src != h.eth_dst;
}

/// Did this delivery reach the packet's actual L2 destination (as opposed
/// to a flooded copy arriving at a bystander host)?
bool reached_destination(const mc::EvPacketDelivered& del) {
  return del.pkt.hdr.eth_dst == del.host_mac;
}

}  // namespace

void DirectPathsState::serialize(util::Ser& s) const {
  const util::Renamer* rn = util::Renamer::active();
  s.put_tag('D');
  s.put_u32(static_cast<std::uint32_t>(delivered.size()));
  util::for_each_named(
      delivered, util::rn_renames_hosts(rn),
      [&](const L2Flow& p) {
        return L2Flow{util::rn_mac(rn, p.src), util::rn_mac(rn, p.dst),
                      p.eth_type};
      },
      [&](const L2Flow& p, const L2Flow&) {
        s.put_u64(p.src);
        s.put_u64(p.dst);
        s.put_u64(p.eth_type);
      });
  s.put_u32(static_cast<std::uint32_t>(watched.size()));
  util::for_each_by_uid(
      watched, rn, [](std::uint32_t uid) { return uid; },
      [&](std::uint32_t uid, std::uint32_t) { s.put_u32(uid); });
}

void DirectPaths::on_events(mc::PropState& ps,
                            std::span<const mc::Event> events,
                            const mc::SystemState& state,
                            std::vector<mc::Violation>& out) const {
  (void)state;
  auto& st = static_cast<DirectPathsState&>(ps);
  for (const mc::Event& e : events) {
    if (const auto* sent = std::get_if<mc::EvPacketSent>(&e)) {
      if (is_trackable(sent->pkt.hdr) &&
          st.delivered.contains(L2Flow::of_packet(sent->pkt.hdr))) {
        st.watched.insert(sent->pkt.uid);
      }
    } else if (const auto* del = std::get_if<mc::EvPacketDelivered>(&e)) {
      if (is_trackable(del->pkt.hdr) && reached_destination(*del)) {
        st.delivered.insert(L2Flow::of_packet(del->pkt.hdr));
      }
    } else if (const auto* pin = std::get_if<mc::EvPacketIn>(&e)) {
      if (st.watched.contains(pin->pkt.uid)) {
        out.push_back(mc::Violation{
            name(),
            "packet " + pin->pkt.brief() +
                " reached the controller although its flow already had a "
                "direct path (switch " +
                std::to_string(pin->sw) + ")"});
      }
    }
  }
}

void StrictDirectPaths::on_events(mc::PropState& ps,
                                  std::span<const mc::Event> events,
                                  const mc::SystemState& state,
                                  std::vector<mc::Violation>& out) const {
  (void)state;
  auto& st = static_cast<DirectPathsState&>(ps);
  for (const mc::Event& e : events) {
    if (const auto* sent = std::get_if<mc::EvPacketSent>(&e)) {
      if (!is_trackable(sent->pkt.hdr)) continue;
      const L2Flow p = L2Flow::of_packet(sent->pkt.hdr);
      if (st.delivered.contains(p) && st.delivered.contains(p.reversed())) {
        st.watched.insert(sent->pkt.uid);
      }
    } else if (const auto* del = std::get_if<mc::EvPacketDelivered>(&e)) {
      if (is_trackable(del->pkt.hdr) && reached_destination(*del)) {
        st.delivered.insert(L2Flow::of_packet(del->pkt.hdr));
      }
    } else if (const auto* pin = std::get_if<mc::EvPacketIn>(&e)) {
      if (st.watched.contains(pin->pkt.uid)) {
        out.push_back(mc::Violation{
            name(),
            "packet " + pin->pkt.brief() +
                " reached the controller although both directions of its "
                "host pair already delivered (switch " +
                std::to_string(pin->sw) + ")"});
      }
    }
  }
}

}  // namespace nicemc::props
