// Execution-semantics tests: channel fault injection, rule expiry, stats
// request/reply round trips, and the state-matching effects of the
// canonical representation across different interleavings.
#include <gtest/gtest.h>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/discover.h"
#include "mc/execute.h"
#include "props/no_black_holes.h"

namespace nicemc::mc {
namespace {

bool has_kind(const std::vector<Transition>& ts, TKind kind) {
  for (const Transition& t : ts) {
    if (t.kind == kind) return true;
  }
  return false;
}

Transition find_kind(const std::vector<Transition>& ts, TKind kind) {
  for (const Transition& t : ts) {
    if (t.kind == kind) return t;
  }
  ADD_FAILURE() << "transition kind not enabled";
  return {};
}

TEST(Semantics, ChannelFaultTransitionsAppearWhenEnabled) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_channel_faults = true;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  st.sw_mut(0).pkt_channel_faults = {.may_drop = true,
                                       .may_duplicate = true};
  std::vector<Violation> v;
  ex.apply(st, Transition{.kind = TKind::kHostSendScript, .a = 0}, v);
  const auto ts = ex.enabled(st, cache);
  EXPECT_TRUE(has_kind(ts, TKind::kChannelDropHead));
  EXPECT_TRUE(has_kind(ts, TKind::kChannelDupHead));
}

TEST(Semantics, ChannelDropRemovesPacketWithoutViolation) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_channel_faults = true;
  s.properties.push_back(std::make_unique<props::NoBlackHoles>());
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  st.sw_mut(0).pkt_channel_faults.may_drop = true;
  std::vector<Violation> v;
  ex.apply(st, Transition{.kind = TKind::kHostSendScript, .a = 0}, v);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDropHead), v);
  EXPECT_FALSE(st.sw(0).can_process_pkt());
  // A fault-model drop is environment behaviour, not a controller bug.
  EXPECT_TRUE(v.empty());
  ex.at_quiescence(st, v);
  EXPECT_TRUE(v.empty());
}

TEST(Semantics, ChannelDuplicateCreatesSecondCopy) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_channel_faults = true;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  st.sw_mut(0).pkt_channel_faults.may_duplicate = true;
  std::vector<Violation> v;
  ex.apply(st, Transition{.kind = TKind::kHostSendScript, .a = 0}, v);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDupHead), v);
  EXPECT_EQ(st.sw(0).in_ports().at(1).size(), 2u);
}

TEST(Semantics, RuleExpiryTransitionRemovesRule) {
  apps::PySwitchOptions opt;
  opt.fix_hard_timeout = true;  // installed rules carry a hard timeout
  auto s = apps::pyswitch_bug2(opt);
  s.config.enable_rule_expiry = true;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  // Install a rule directly with a timeout.
  of::Rule r;
  r.match = of::Match::any();
  r.actions = {of::Action::output(2)};
  r.hard_timeout = 10;
  st.sw_mut(0).table_mut().add(r);
  const auto ts = ex.enabled(st, cache);
  ASSERT_TRUE(has_kind(ts, TKind::kRuleExpire));
  std::vector<Violation> v;
  ex.apply(st, find_kind(ts, TKind::kRuleExpire), v);
  EXPECT_TRUE(st.sw(0).table().empty());
}

TEST(Semantics, PermanentRulesNeverExpire) {
  auto s = apps::pyswitch_bug2();
  s.config.enable_rule_expiry = true;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  of::Rule r;
  r.match = of::Match::any();
  r.actions = {of::Action::output(2)};
  st.sw_mut(0).table_mut().add(r);  // no timeouts
  EXPECT_FALSE(has_kind(ex.enabled(st, cache), TKind::kRuleExpire));
}

TEST(Semantics, StatsRequestRoundTripWithoutDiscovery) {
  apps::TeScenarioOptions o;
  o.fix_release_packet = true;
  o.fix_handle_intermediate = true;
  o.stats_rounds = 1;
  auto s = apps::te_scenario(o);
  s.config.symbolic_discovery = false;  // concrete stats path
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  auto ts = ex.enabled(st, cache);
  ASSERT_TRUE(has_kind(ts, TKind::kCtrlRequestStats));
  ex.apply(st, find_kind(ts, TKind::kCtrlRequestStats), v);
  EXPECT_TRUE(st.ctrl().pending_stats.contains(0));
  // Request is only issued once per round budget.
  EXPECT_FALSE(has_kind(ex.enabled(st, cache), TKind::kCtrlRequestStats));

  ex.apply(st, Transition{.kind = TKind::kSwitchProcessOf, .a = 0}, v);
  ts = ex.enabled(st, cache);
  ASSERT_TRUE(has_kind(ts, TKind::kCtrlDispatch));
  ex.apply(st, find_kind(ts, TKind::kCtrlDispatch), v);
  EXPECT_FALSE(st.ctrl().pending_stats.contains(0));
  // Concrete stats (no traffic yet) keep the energy state low.
  EXPECT_FALSE(
      static_cast<const apps::RespondTeState&>(*st.ctrl().app).energy_high);
}

TEST(Semantics, StatsDiscoveryReplacesConcreteDispatch) {
  apps::TeScenarioOptions o;
  o.fix_release_packet = true;
  o.fix_handle_intermediate = true;
  o.stats_rounds = 1;
  auto s = apps::te_scenario(o);  // symbolic_discovery on (stats_rounds > 0)
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;
  ex.apply(st, Transition{.kind = TKind::kCtrlRequestStats, .a = 0}, v);
  ex.apply(st, Transition{.kind = TKind::kSwitchProcessOf, .a = 0}, v);
  const auto ts = ex.enabled(st, cache);
  EXPECT_FALSE(has_kind(ts, TKind::kCtrlDispatch));
  // Two representative stats classes: below and above the threshold.
  int stats_transitions = 0;
  for (const Transition& t : ts) {
    if (t.kind == TKind::kCtrlProcessStats) ++stats_transitions;
  }
  EXPECT_EQ(stats_transitions, 2);
}

TEST(Semantics, ProcessStatsAppliesRepresentativeValues) {
  apps::TeScenarioOptions o;
  o.fix_release_packet = true;
  o.fix_handle_intermediate = true;
  o.stats_rounds = 1;
  auto s = apps::te_scenario(o);
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;
  ex.apply(st, Transition{.kind = TKind::kCtrlRequestStats, .a = 0}, v);
  ex.apply(st, Transition{.kind = TKind::kSwitchProcessOf, .a = 0}, v);
  Transition high;
  for (const Transition& t : ex.enabled(st, cache)) {
    if (t.kind != TKind::kCtrlProcessStats) continue;
    for (const auto& [port, bytes] : t.stats) {
      if (port == 2 && bytes > 500) high = t;
    }
  }
  ASSERT_EQ(high.kind, TKind::kCtrlProcessStats);
  ex.apply(st, high, v);
  EXPECT_TRUE(
      static_cast<const apps::RespondTeState&>(*st.ctrl().app).energy_high);
}

TEST(Semantics, EquivalentInterleavingsMergeOnlyCanonically) {
  // Two switches each hold a packet whose forwarding assigns a fresh copy
  // id from the shared counter: processing them in either order reaches
  // behaviourally isomorphic states that differ only in copy-id naming.
  // The canonical hash merges the two orders; the raw
  // (NO-SWITCH-REDUCTION) hash keeps them distinct — the mechanism behind
  // Table 1's state-space reduction.
  auto run_order = [](bool sw0_first, bool canonical) {
    auto s = apps::pyswitch_ping_chain(1);
    s.config.canonical_flowtables = canonical;
    Executor ex(s.config, s.properties);
    SystemState st = ex.make_initial();
    of::Rule fwd;
    fwd.match = of::Match::any();
    fwd.actions = {of::Action::output(1)};  // hairpin to the local host
    st.sw_mut(0).table_mut().add(fwd);
    st.sw_mut(1).table_mut().add(fwd);
    of::Packet p1;
    p1.hdr.eth_src = 0x0a;
    p1.uid = 1;
    of::Packet p2;
    p2.hdr.eth_src = 0x0b;
    p2.uid = 2;
    st.sw_mut(0).enqueue_packet(1, p1);
    st.sw_mut(1).enqueue_packet(1, p2);

    std::vector<Violation> v;
    const Transition proc0{.kind = TKind::kSwitchProcessPkt, .a = 0};
    const Transition proc1{.kind = TKind::kSwitchProcessPkt, .a = 1};
    ex.apply(st, sw0_first ? proc0 : proc1, v);
    ex.apply(st, sw0_first ? proc1 : proc0, v);
    return st.hash(canonical);
  };
  EXPECT_EQ(run_order(true, true), run_order(false, true));
  EXPECT_NE(run_order(true, false), run_order(false, false));
}

TEST(Semantics, ControllerInjectedPacketGetsFreshUid) {
  apps::LbScenarioOptions o;
  o.fix_discard_arp = true;
  o.client_sends_arp = true;
  auto s = apps::lb_scenario(o);
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;
  // ARP request in, proxied reply out.
  ex.apply(st, Transition{.kind = TKind::kHostSendScript, .a = 0}, v);
  ex.apply(st, Transition{.kind = TKind::kSwitchProcessPkt, .a = 0}, v);
  ex.apply(st, Transition{.kind = TKind::kCtrlDispatch, .a = 0}, v);
  const std::uint32_t uid_before = st.next_uid;
  EXPECT_GE(uid_before, 3u);  // request + injected reply
  // Apply the two packet_outs (reply + buffer discard).
  while (st.sw(0).can_process_of()) {
    ex.apply(st, Transition{.kind = TKind::kSwitchProcessOf, .a = 0}, v);
  }
  // The reply is on its way back to the client.
  EXPECT_FALSE(st.host(0).input.empty());
  EXPECT_EQ(st.sw(0).forgotten_packets(), 0u);
}

}  // namespace
}  // namespace nicemc::mc
