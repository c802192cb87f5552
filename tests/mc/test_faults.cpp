// Bounded fault-injection layer: link failures, controller-channel loss
// and switch restarts as first-class transitions, the per-execution
// FaultBudget woven into state identity, and the fault-reaction paths of
// the bundled controller apps.
#include <gtest/gtest.h>

#include "apps/pyswitch.h"
#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/discover.h"
#include "mc/execute.h"
#include "props/no_black_holes.h"
#include "props/no_stale_rules.h"

namespace nicemc::mc {
namespace {

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

CheckerResult exhaustive(const apps::Scenario& s) {
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  Checker c(s.config, opt, s.properties);
  return c.run();
}

// --- transition semantics ---

TEST(Faults, LinkDownMarksBothEndpointsAndNotifiesBothControllersEnds) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_link_faults = true;  // budget 1, repair on (defaults)
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  auto ts = ex.enabled(st, cache);
  EXPECT_TRUE(has_kind(ts, TKind::kLinkDown));
  EXPECT_FALSE(has_kind(ts, TKind::kLinkUp));

  // The ping chain has exactly one switch-switch link: sw0:2 — sw1:2.
  ex.apply(st, find_kind(ts, TKind::kLinkDown), v);
  EXPECT_TRUE(st.sw(0).down_ports().contains(2));
  EXPECT_TRUE(st.sw(1).down_ports().contains(2));
  EXPECT_EQ(st.faults.link_failures, 1u);
  ASSERT_EQ(st.sw(0).of_out().size(), 1u);
  ASSERT_EQ(st.sw(1).of_out().size(), 1u);
  EXPECT_TRUE(std::holds_alternative<of::PortStatus>(st.sw(0).of_out().front()));
  EXPECT_TRUE(std::holds_alternative<of::PortStatus>(st.sw(1).of_out().front()));

  // Budget spent: only the repair is enabled now.
  ts = ex.enabled(st, cache);
  EXPECT_FALSE(has_kind(ts, TKind::kLinkDown));
  ASSERT_TRUE(has_kind(ts, TKind::kLinkUp));

  ex.apply(st, find_kind(ts, TKind::kLinkUp), v);
  EXPECT_TRUE(st.sw(0).down_ports().empty());
  EXPECT_TRUE(st.sw(1).down_ports().empty());
  EXPECT_EQ(st.sw(0).of_out().size(), 2u);  // down + up notifications

  // Repair does not refund the budget.
  ts = ex.enabled(st, cache);
  EXPECT_FALSE(has_kind(ts, TKind::kLinkDown));
  EXPECT_FALSE(has_kind(ts, TKind::kLinkUp));
  EXPECT_TRUE(v.empty());
}

TEST(Faults, SpentFaultBudgetIsPartOfStateIdentity) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_link_faults = true;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  const util::Hash128 initial = st.hash(true);
  std::vector<Violation> v;

  // Fail and repair the link, then drain the port-status notifications
  // (pyswitch without react_to_port_status ignores them).
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kLinkDown), v);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kLinkUp), v);
  while (has_kind(ex.enabled(st, cache), TKind::kCtrlDispatch)) {
    ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kCtrlDispatch), v);
  }

  // The network is back to its initial configuration, but the execution
  // has consumed its failure budget — the states must NOT merge, or the
  // search would wrongly prune the post-repair behaviours.
  EXPECT_TRUE(st.sw(0).down_ports().empty());
  EXPECT_EQ(st.faults.link_failures, 1u);
  EXPECT_FALSE(st.hash(true) == initial);
}

TEST(Faults, CtrlChannelLossWipesChannelsAndReconnectsWithHandshake) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_ctrl_channel_faults = true;  // budget 1 (default)
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  // Put a packet_in in flight so the disconnect has something to lose.
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostSendScript), v);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kSwitchProcessPkt), v);
  ASSERT_EQ(st.sw(0).of_out().size(), 1u);

  auto ts = ex.enabled(st, cache);
  ex.apply(st, Transition{.kind = TKind::kCtrlChannelDown, .a = 0}, v);
  EXPECT_TRUE(st.sw(0).ctrl_channel_down());
  EXPECT_TRUE(st.sw(0).of_out().empty());
  EXPECT_TRUE(st.sw(0).of_in().empty());
  EXPECT_EQ(st.faults.channel_losses, 1u);

  // Budget spent: no second disconnect anywhere, reconnect is free.
  ts = ex.enabled(st, cache);
  EXPECT_FALSE(has_kind(ts, TKind::kCtrlChannelDown));
  ASSERT_TRUE(has_kind(ts, TKind::kCtrlChannelUp));
  ex.apply(st, find_kind(ts, TKind::kCtrlChannelUp), v);
  EXPECT_FALSE(st.sw(0).ctrl_channel_down());
  ts = ex.enabled(st, cache);
  EXPECT_FALSE(has_kind(ts, TKind::kCtrlChannelUp));
  EXPECT_FALSE(has_kind(ts, TKind::kCtrlChannelDown));
}

TEST(Faults, SwitchRestartWipesTableAndConsumesBudget) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_switch_restarts = true;  // budget 1 (default)
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  of::Rule r;
  r.match = of::Match::any();
  r.actions = {of::Action::output(2)};
  st.sw_mut(0).table_mut().add(r);

  ASSERT_TRUE(has_kind(ex.enabled(st, cache), TKind::kSwitchRestart));
  ex.apply(st, Transition{.kind = TKind::kSwitchRestart, .a = 0}, v);
  EXPECT_TRUE(st.sw(0).table().empty());
  EXPECT_EQ(st.faults.switch_restarts, 1u);
  EXPECT_FALSE(has_kind(ex.enabled(st, cache), TKind::kSwitchRestart));
}

TEST(Faults, PortStatusDispatchFlushesMacsLearnedOnTheFailedPort) {
  auto s = apps::pyswitch_linkfail(/*react=*/true);
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  // Pretend sw0 learned one MAC behind the inter-switch link (port 2) and
  // one local MAC (port 1) before the failure.
  {
    auto& mactable =
        static_cast<apps::PySwitchState&>(*st.ctrl_mut().app).mactable;
    mactable[0].put(0xbb, 2);
    mactable[0].put(0xaa, 1);
  }

  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kLinkDown), v);
  // Dispatch sw0's OFPT_PORT_STATUS: the reaction forgets only the MAC
  // whose learned location died with the link.
  ex.apply(st, Transition{.kind = TKind::kCtrlDispatch, .a = 0}, v);
  const auto& mactable =
      static_cast<const apps::PySwitchState&>(*st.ctrl().app).mactable;
  EXPECT_FALSE(mactable.at(0).raw().contains(0xbb));
  EXPECT_TRUE(mactable.at(0).raw().contains(0xaa));
}

// --- the packet drop/dup fold into the budget ---

TEST(Faults, UnboundedPacketFaultBudgetKeepsLegacyStateMerging) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_channel_faults = true;
  s.config.max_packet_faults = kUnboundedFaults;  // the escape hatch
  s.config.channel_depth_limit = 3;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostSendScript), v);
  const util::Hash128 before = st.hash(true);

  // Duplicate then drop: with an unbounded budget the counter never moves,
  // so the state merges back with the pre-fault one — exactly the legacy
  // behaviour (termination by state matching, not by budget).
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDupHead), v);
  EXPECT_EQ(st.faults.packet_faults, 0u);
  EXPECT_EQ(st.sw(0).in_ports().at(1).size(), 2u);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDropHead), v);
  EXPECT_EQ(st.faults.packet_faults, 0u);
  EXPECT_TRUE(st.hash(true) == before);

  // Even unbounded, duplication can never grow a channel past the depth
  // limit — the remaining guard against infinite queues.
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDupHead), v);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDupHead), v);
  ASSERT_EQ(st.sw(0).in_ports().at(1).size(), 3u);
  const auto ts = ex.enabled(st, cache);
  EXPECT_FALSE(has_kind(ts, TKind::kChannelDupHead));
  EXPECT_TRUE(has_kind(ts, TKind::kChannelDropHead));
}

TEST(Faults, BoundedPacketFaultBudgetSplitsStatesAndRunsDry) {
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_channel_faults = true;  // max_packet_faults = 2 (default)
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostSendScript), v);
  const util::Hash128 before = st.hash(true);

  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDupHead), v);
  EXPECT_EQ(st.faults.packet_faults, 1u);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDropHead), v);
  EXPECT_EQ(st.faults.packet_faults, 2u);
  // Same channel contents as before the dup/drop pair, but two units of
  // budget are gone: the states must not merge.
  EXPECT_EQ(st.sw(0).in_ports().at(1).size(), 1u);
  EXPECT_FALSE(st.hash(true) == before);

  // Budget exhausted: the fault transitions disappear.
  const auto ts = ex.enabled(st, cache);
  EXPECT_FALSE(has_kind(ts, TKind::kChannelDupHead));
  EXPECT_FALSE(has_kind(ts, TKind::kChannelDropHead));
}

TEST(Faults, BoundedChannelFaultSearchTerminatesExhaustively) {
  // With the default packet-fault budget a drop/dup-enabled search is
  // finite by construction; historically (unbounded) this relied on the
  // echo workload not amplifying forever.
  auto s = apps::pyswitch_ping_chain(1);
  s.config.enable_channel_faults = true;
  const CheckerResult r = exhaustive(s);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.hit_limit, LimitReason::kNone);
  EXPECT_FALSE(r.found_violation());
}

TEST(Faults, ChannelDupCountsAnExtraInFlightCopy) {
  auto s = apps::pyswitch_ping_chain(1);
  s.properties.clear();
  s.properties.push_back(std::make_unique<props::NoBlackHoles>());
  s.config.enable_channel_faults = true;
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState st = ex.make_initial();
  std::vector<Violation> v;

  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kHostSendScript), v);
  ex.apply(st, find_kind(ex.enabled(st, cache), TKind::kChannelDupHead), v);
  const auto& bst = static_cast<const props::NoBlackHolesState&>(st.prop(0));
  ASSERT_EQ(bst.balance.size(), 1u);
  EXPECT_EQ(bst.balance.begin()->second, 2);  // original + duplicate
  EXPECT_TRUE(v.empty());
}

// --- NoStaleRules ---

TEST(Faults, NoStaleRulesFlagsRulesForwardingIntoFailedPorts) {
  auto s = apps::pyswitch_ping_chain(1);
  s.properties.clear();
  s.properties.push_back(std::make_unique<props::NoStaleRules>());
  Executor ex(s.config, s.properties);
  SystemState st = ex.make_initial();

  of::Rule r;
  r.match = of::Match::any();
  r.actions = {of::Action::output(2)};
  st.sw_mut(0).table_mut().add(r);

  std::vector<Violation> v;
  ex.at_quiescence(st, v);
  EXPECT_TRUE(v.empty());  // port 2 is up: nothing stale

  st.sw_mut(0).set_link(2, /*up=*/false);
  ex.at_quiescence(st, v);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].property, "NoStaleRules");
}

// --- violation asymmetries of the bundled fault scenarios ---

TEST(Faults, PingChainViolationIsReachableOnlyWithTheFault) {
  // The fault-only-violation regression: the ping chain satisfies
  // NoBlackHoles in every interleaving until a link failure can kill an
  // in-flight copy at the dead port.
  {
    auto s = apps::pyswitch_linkfail(/*react=*/false);
    CheckerOptions opt;  // stop at the first violation
    Checker c(s.config, opt, s.properties);
    const CheckerResult r = c.run();
    ASSERT_TRUE(r.found_violation());
    EXPECT_EQ(r.violations.front().violation.property, "NoBlackHoles");
  }
  {
    auto s = apps::pyswitch_linkfail(/*react=*/false);
    s.config.enable_link_faults = false;  // same model, faults off
    const CheckerResult r = exhaustive(s);
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.found_violation());
  }
}

TEST(Faults, PingChainSurvivesCtrlChannelLossAndSwitchRestart) {
  // NoBlackHoles holds across a disconnect/reconnect and across a switch
  // reboot: lost packets were already buffered (= consumed) or are
  // accounted as environment losses, and the rejoin handshake resyncs the
  // controller's view.
  {
    const CheckerResult r = exhaustive(apps::pyswitch_ctrlloss());
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.found_violation()) << violation_keys(r).front();
  }
  {
    const CheckerResult r = exhaustive(apps::pyswitch_restart());
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.found_violation()) << violation_keys(r).front();
  }
}

TEST(Faults, LoadBalancerStaleWildcardsFixedByPortStatusReaction) {
  {
    auto s = apps::lb_linkfail(/*react=*/false);
    CheckerOptions opt;
    Checker c(s.config, opt, s.properties);
    const CheckerResult r = c.run();
    ASSERT_TRUE(r.found_violation());
    EXPECT_EQ(r.violations.front().violation.property, "NoStaleRules");
  }
  {
    const CheckerResult r = exhaustive(apps::lb_linkfail(/*react=*/true));
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.found_violation()) << violation_keys(r).front();
  }
}

TEST(Faults, RespondTeStalePathsFixedByPortStatusReaction) {
  {
    auto s = apps::te_linkfail(/*react=*/false);
    CheckerOptions opt;
    Checker c(s.config, opt, s.properties);
    const CheckerResult r = c.run();
    ASSERT_TRUE(r.found_violation());
    EXPECT_EQ(r.violations.front().violation.property, "NoStaleRules");
  }
  {
    const CheckerResult r = exhaustive(apps::te_linkfail(/*react=*/true));
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.found_violation()) << violation_keys(r).front();
  }
}

}  // namespace
}  // namespace nicemc::mc
