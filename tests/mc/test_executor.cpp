#include "mc/execute.h"

#include <gtest/gtest.h>

#include "apps/scenarios.h"
#include "mc/discover.h"
#include "props/no_black_holes.h"
#include "props/no_forgotten_packets.h"

namespace nicemc::mc {
namespace {

/// Find the first enabled transition of a kind (or fail).
Transition find_kind(const std::vector<Transition>& ts, TKind kind) {
  for (const Transition& t : ts) {
    if (t.kind == kind) return t;
  }
  ADD_FAILURE() << "no transition of requested kind";
  return {};
}

bool has_kind(const std::vector<Transition>& ts, TKind kind) {
  for (const Transition& t : ts) {
    if (t.kind == kind) return true;
  }
  return false;
}

TEST(Executor, InitialEnabledTransitionsAreHostSends) {
  auto s = apps::pyswitch_ping_chain(2);
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  const auto ts = ex.enabled(st, cache);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].kind, TKind::kHostSendScript);
  EXPECT_EQ(ts[0].a, 0u);  // host A
}

TEST(Executor, SendProcessDeliverReceiveCycle) {
  auto s = apps::pyswitch_ping_chain(1);
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  // A sends its ping.
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostSendScript), v);
  EXPECT_EQ(st.host(0).sends_done, 1);
  EXPECT_EQ(st.host(0).burst, 0);
  EXPECT_TRUE(st.sw(0).can_process_pkt());

  // SW0 processes: no rule → packet_in to controller.
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kSwitchProcessPkt),
           v);
  EXPECT_EQ(st.sw(0).of_out().size(), 1u);

  // Controller handles packet_in: pyswitch floods (dst unknown).
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kCtrlDispatch), v);
  EXPECT_TRUE(st.sw(0).can_process_of());

  // SW0 applies the packet_out: flood → out the inter-switch link.
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kSwitchProcessOf), v);
  EXPECT_TRUE(st.sw(1).can_process_pkt());
  EXPECT_TRUE(v.empty());
}

TEST(Executor, StatelessMonitorsStaySharedWithTheParent) {
  // A monitor without local state is fed a scratch state, so a transition
  // with events leaves its node (and the memos on it) shared with the
  // parent; a monitor with state is unshared to be written.
  auto s = apps::pyswitch_ping_chain(1);
  s.properties.clear();
  s.properties.push_back(std::make_unique<props::NoBlackHoles>());
  s.properties.push_back(std::make_unique<props::NoForgottenPackets>());
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  const SystemState parent = ex.make_initial();
  SystemState child = parent.clone();
  std::vector<Violation> v;
  ex.apply(child,
           find_kind(ex.enabled(child, cache), TKind::kHostSendScript), v);
  EXPECT_FALSE(parent.shares_host(child, 0));  // the send had events
  EXPECT_FALSE(parent.shares_prop(child, 0));  // NoBlackHoles
  EXPECT_TRUE(parent.shares_prop(child, 1));   // NoForgottenPackets

  // Quiescence checks leave it shared as well.
  SystemState quiet = child.clone();
  ex.at_quiescence(quiet, v);
  EXPECT_TRUE(child.shares_prop(quiet, 1));
}

TEST(Executor, BurstTokenReplenishedOnReceive) {
  auto s = apps::pyswitch_ping_chain(2);
  // Throttle A to one outstanding ping.
  s.config.host_behavior[0].initial_burst = 1;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostSendScript), v);
  // Burst exhausted: no further send enabled.
  EXPECT_FALSE(has_kind(ex.enabled(st, cache), TKind::kHostSendScript));
  // Hand-deliver a packet to A and receive it: burst replenishes.
  st.host_mut(0).input.push(of::Packet{});
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostRecv), v);
  EXPECT_TRUE(has_kind(ex.enabled(st, cache), TKind::kHostSendScript));
}

TEST(Executor, EchoHostQueuesReplyOnlyForItsOwnMac) {
  auto s = apps::pyswitch_ping_chain(1);
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  of::Packet to_b;
  to_b.hdr.eth_src = s.config.topology->host(0).mac;
  to_b.hdr.eth_dst = s.config.topology->host(1).mac;
  st.host_mut(1).input.push(to_b);
  ex.apply(st, Transition{.kind = TKind::kHostRecv, .a = 1}, v);
  EXPECT_EQ(st.host(1).pending_replies.size(), 1u);
  EXPECT_EQ(st.host(1).pending_replies.front().hdr.eth_src,
            s.config.topology->host(1).mac);

  of::Packet other;
  other.hdr.eth_dst = 0xdead;
  st.host_mut(1).input.push(other);
  ex.apply(st, Transition{.kind = TKind::kHostRecv, .a = 1}, v);
  EXPECT_EQ(st.host(1).pending_replies.size(), 1u);  // unchanged
}

TEST(Executor, NoDelayDrainsControllerCommunicationAtomically) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.no_delay = true;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostSendScript), v);
  // The packet sits in SW0's ingress channel; process_pkt triggers
  // packet_in → handler → flood packet_out → application, all in one step.
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kSwitchProcessPkt),
           v);
  EXPECT_TRUE(st.sw(0).of_out().empty());
  EXPECT_FALSE(st.sw(0).can_process_of());
  // The flooded packet is already on its way to SW1.
  EXPECT_TRUE(st.sw(1).can_process_pkt());
}

TEST(Executor, FineInterleavingQueuesCommandsIndividually) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.fine_interleaving = true;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostSendScript), v);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kSwitchProcessPkt),
           v);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kCtrlDispatch), v);
  // The flood command is parked in the controller, not at the switch.
  EXPECT_FALSE(st.ctrl().pending_commands.empty());
  EXPECT_FALSE(st.sw(0).can_process_of());
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kCtrlApplyCommand),
           v);
  EXPECT_TRUE(st.sw(0).can_process_of());
}

TEST(Executor, HostMoveChangesDeliveryTarget) {
  auto s = apps::pyswitch_bug1();
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;
  ASSERT_TRUE(s.config.host_behavior[1].can_move);
  ex.apply(st, Transition{.kind = TKind::kHostMove, .a = 1, .aux = 0}, v);
  EXPECT_EQ(st.host(1).port, 3u);
  // A second move to the same alternative is no longer enabled.
  EXPECT_FALSE(has_kind(ex.enabled(st, cache), TKind::kHostMove));
}

TEST(Executor, DeadPortDeliveryRaisesEvent) {
  auto s = apps::pyswitch_bug1();
  s.properties.clear();
  s.properties.push_back(std::make_unique<props::NoBlackHoles>());
  Executor ex(s.config, s.properties);
  SystemState st = ex.make_initial();
  std::vector<Violation> v;
  // Move B away, then force a rule that forwards to the now-dead port 2.
  ex.apply(st, Transition{.kind = TKind::kHostMove, .a = 1, .aux = 0}, v);
  of::Rule r;
  r.match = of::Match::any();
  r.actions = {of::Action::output(2)};
  st.sw_mut(0).table_mut().add(r);
  st.sw_mut(0).enqueue_packet(1, of::Packet{});
  ex.apply(st, Transition{.kind = TKind::kSwitchProcessPkt, .a = 0}, v);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].property, "NoBlackHoles");
}

}  // namespace
}  // namespace nicemc::mc
