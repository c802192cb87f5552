// The partial-order-reduction subsystem (mc/por/): the differential
// soundness sweep over every bundled scenario — on exhaustive runs kSleep
// must report the identical violation set, the identical unique-state and
// quiescent-state counts, and fewer (or equal) transitions than the
// unreduced search — plus pinned kSleep counts per bundled scenario,
// strict-reduction checks on the paper scenarios, the controller-channel
// fault regression, and parallel/frontier composition. The slept-record
// mechanics of the revisit rule are tested with the seen-set
// (tests/util/test_seen_set.cpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"

namespace nicemc::mc {
namespace {

CheckerResult run_reduced(apps::Scenario s, Reduction reduction,
                          unsigned threads = 1,
                          FrontierKind frontier = FrontierKind::kDfs) {
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.reduction = reduction;
  opt.threads = threads;
  opt.frontier = frontier;
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

// The hard contract of the reduction layer: a sound reduction prunes only
// redundant interleavings, never states or violations. Unique-state and
// quiescent-state counts are exact equalities because this checker's
// properties are state predicates (quiescence checks run at every
// terminal state; monitor state is part of state identity).
TEST(Por, DifferentialSoundnessSweepAllBundledScenarios) {
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const CheckerResult none = run_reduced(ns.make(), Reduction::kNone);
    ASSERT_TRUE(none.exhausted) << ns.name;
    const CheckerResult red = run_reduced(ns.make(), Reduction::kSleep);
    EXPECT_TRUE(red.exhausted) << ns.name;
    EXPECT_EQ(red.unique_states, none.unique_states) << ns.name;
    EXPECT_EQ(red.quiescent_states, none.quiescent_states) << ns.name;
    EXPECT_EQ(violation_key_set(red), violation_key_set(none)) << ns.name;
    EXPECT_LE(red.transitions, none.transitions) << ns.name;
    // Every state but the root is discovered by exactly one non-revisit
    // transition: transitions = (unique-1) + revisits + violating.
    EXPECT_GE(red.transitions - red.revisits, red.unique_states - 1)
        << ns.name;
  }
}

TEST(Por, SleepDfsCountsArePinnedOnEveryBundledScenario) {
  // kSleep's exploration order is deterministic under 1-thread DFS, so
  // its counts are pinned per scenario: any change to sleep inheritance,
  // the revisit intersection or the footprints shows up here. Every
  // unique-state pin equals the scenario's kNone count.
  //
  // The same runs carry the footprint-memo hit-rate floor: on every run
  // with at least kMinLookups lookups, hits / lookups must stay at or
  // above kHitRateFloor. Tiny searches have nothing to reuse; the floor is
  // a tripwire for a keying change that turns the memo into a miss
  // machine, not a target. Lowest today: lb-sym4 at 0.373 (6541 / 17538),
  // then lb-fixed at 0.387 (265 / 685); the rest sit between 0.45 and 0.97.
  constexpr double kHitRateFloor = 0.30;
  constexpr std::uint64_t kMinLookups = 500;
  struct Pin {
    const char* name;
    std::uint64_t transitions, unique, quiescent;
  };
  constexpr Pin kPins[] = {
      {"pyswitch-ping1", 18, 19, 1},
      {"pyswitch-ping2", 501, 411, 7},
      {"pyswitch-ping2-raw", 952, 767, 7},
      {"pyswitch-bug1", 19084, 8688, 0},
      {"pyswitch-bug2", 5171, 2983, 17},
      {"pyswitch-bug3", 13649, 8068, 0},
      {"lb-fixed", 1613, 1163, 4},
      {"lb-bugs", 175, 156, 7},
      {"lb-affinity", 7336, 3235, 13},
      {"te", 6, 7, 1},
      {"te-routing", 114, 104, 4},
      {"pyswitch-linkfail", 457, 310, 1},
      {"pyswitch-linkfail-react", 634, 449, 4},
      {"pyswitch-ctrlloss", 134, 123, 15},
      {"pyswitch-restart", 88, 75, 9},
      {"lb-linkfail", 202, 159, 4},
      {"lb-linkfail-react", 338, 279, 7},
      {"te-linkfail", 390, 254, 7},
      {"te-linkfail-react", 883, 712, 11},
      {"sym-ping3", 378801, 139796, 7},
      {"lb-sym4", 43239, 31230, 16},
      {"te-sym2", 3660, 2672, 4},
  };
  const std::vector<apps::NamedScenario> scenarios = apps::bundled_scenarios();
  ASSERT_EQ(scenarios.size(), std::size(kPins));
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Pin& pin = kPins[i];
    ASSERT_EQ(scenarios[i].name, pin.name);
    const CheckerResult r = run_reduced(scenarios[i].make(), Reduction::kSleep);
    EXPECT_TRUE(r.exhausted) << pin.name;
    EXPECT_EQ(r.transitions, pin.transitions) << pin.name;
    EXPECT_EQ(r.unique_states, pin.unique) << pin.name;
    EXPECT_EQ(r.quiescent_states, pin.quiescent) << pin.name;
    const std::uint64_t hits = r.memo.footprint_hits;
    const std::uint64_t lookups = hits + r.memo.footprint_misses;
    if (lookups >= kMinLookups) {
      EXPECT_GE(static_cast<double>(hits), kHitRateFloor * lookups)
          << pin.name << ": footprint memo hit rate " << hits << " / "
          << lookups << " is below the floor";
    }
  }
}

TEST(Por, StrictReductionOnPaperScenarios) {
  // The acceptance bar: strictly fewer transitions on the 2-ping pyswitch
  // chain and the load-balancer scenarios.
  const auto strict = [](apps::Scenario a, apps::Scenario b,
                         const char* name) {
    const CheckerResult none = run_reduced(std::move(a), Reduction::kNone);
    const CheckerResult red = run_reduced(std::move(b), Reduction::kSleep);
    EXPECT_LT(red.transitions, none.transitions) << name;
  };
  strict(apps::pyswitch_ping_chain(2), apps::pyswitch_ping_chain(2),
         "pyswitch-ping2");
  apps::LbScenarioOptions lb;
  lb.fix_release_packet = true;
  lb.fix_install_before_delete = true;
  lb.fix_discard_arp = true;
  lb.fix_check_assignments = true;
  lb.client_sends_arp = true;
  strict(apps::lb_scenario(lb), apps::lb_scenario(lb), "lb-fixed");
  strict(apps::lb_scenario({}), apps::lb_scenario({}), "lb-bugs");
}

TEST(Por, CtrlChannelHandshakeIsDependentOnDiscoverySends) {
  // Regression: discovery sends are derived from the controller's app
  // state, and a controller-channel reconnect rewrites that state
  // (switch_leave/switch_join). While the send's footprint ignored the
  // controller, the handshake counted as independent of sends it enables
  // or disables, and every reducing search lost states and violations
  // on BUG-I under channel faults (36843 of 37794 states, 48 of 51
  // violation keys).
  const auto make = [] {
    apps::Scenario s = apps::pyswitch_bug1();
    s.config.enable_ctrl_channel_faults = true;
    s.config.max_channel_losses = 1;
    return s;
  };
  const CheckerResult none = run_reduced(make(), Reduction::kNone);
  const CheckerResult red = run_reduced(make(), Reduction::kSleep);
  ASSERT_TRUE(none.exhausted);
  EXPECT_EQ(none.unique_states, 37794u);
  EXPECT_EQ(violation_key_set(none).size(), 51u);
  EXPECT_TRUE(red.exhausted);
  EXPECT_EQ(red.unique_states, none.unique_states);
  EXPECT_EQ(red.quiescent_states, none.quiescent_states);
  EXPECT_EQ(violation_key_set(red), violation_key_set(none));
  EXPECT_LT(red.transitions, none.transitions);
}

TEST(Por, ReductionFindsKnownBugStopAtFirst) {
  // Default stop-at-first mode still finds BUG-II under reduction, with a
  // replayable trace.
  auto s = apps::pyswitch_bug2();
  CheckerOptions opt;
  opt.reduction = Reduction::kSleep;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  ASSERT_TRUE(r.found_violation());
  EXPECT_FALSE(r.violations.front().trace.empty());
  EXPECT_EQ(r.violations.front().violation.property, "StrictDirectPaths");
}

TEST(Por, ParallelDriverComposesWithReduction) {
  // Sleep sets ride on SearchNodes and the slept records live in the
  // lock-striped seen-set, so the parallel driver keeps the soundness
  // contract: same states, same violations. (Which arrival claims a
  // re-expansion is schedule-dependent, so the exact transition count may
  // vary between parallel runs — but it never exceeds the unreduced
  // count.)
  apps::LbScenarioOptions o;
  o.fix_install_before_delete = true;
  o.client_sends_arp = true;
  const CheckerResult none = run_reduced(apps::lb_scenario(o),
                                         Reduction::kNone);
  const CheckerResult seq = run_reduced(apps::lb_scenario(o),
                                        Reduction::kSleep);
  for (unsigned threads : {2u, 4u}) {
    const std::string tag = "x" + std::to_string(threads);
    const CheckerResult par =
        run_reduced(apps::lb_scenario(o), Reduction::kSleep, threads);
    EXPECT_TRUE(par.exhausted) << tag;
    EXPECT_EQ(par.unique_states, seq.unique_states) << tag;
    EXPECT_EQ(violation_key_set(par), violation_key_set(seq)) << tag;
    EXPECT_LE(par.transitions, none.transitions) << tag;
  }
}

TEST(Por, AlternativeFrontiersKeepTheContract) {
  // BFS/random arrival orders shuffle which sleep sets reach a state
  // first; the stored-sleep re-expansion rule keeps coverage exact.
  const CheckerResult none =
      run_reduced(apps::pyswitch_ping_chain(2), Reduction::kNone);
  for (const FrontierKind kind :
       {FrontierKind::kBfs, FrontierKind::kRandom}) {
    const std::string tag = frontier_name(kind);
    const CheckerResult red = run_reduced(apps::pyswitch_ping_chain(2),
                                          Reduction::kSleep, 1, kind);
    EXPECT_TRUE(red.exhausted) << tag;
    EXPECT_EQ(red.unique_states, none.unique_states) << tag;
    EXPECT_EQ(violation_key_set(red), violation_key_set(none)) << tag;
    EXPECT_LE(red.transitions, none.transitions) << tag;
  }
}

TEST(Por, ReductionIsInertUnderNoDelay) {
  // NO-DELAY's drain_lockstep runs inside every apply — controller
  // dispatches and installs at arbitrary switches that no per-transition
  // footprint could attribute. compute_footprint therefore returns a
  // universal (conflicts-with-everything) footprint under cfg.no_delay:
  // the reduced search must degenerate to exactly the unreduced one —
  // same states, same violations, same transition count.
  const auto make = [](auto factory) {
    auto s = factory();
    CheckerOptions opt;
    opt.stop_at_first_violation = false;
    apps::set_strategy(s, opt, Strategy::kNoDelay);
    return std::pair{std::move(s), opt};
  };
  const auto sweep = [&](auto factory, const char* name) {
    auto [s_none, opt_none] = make(factory);
    Checker c_none(s_none.config, opt_none, s_none.properties);
    const CheckerResult none = c_none.run();
    auto [s_red, opt_red] = make(factory);
    opt_red.reduction = Reduction::kSleep;
    Checker c_red(s_red.config, opt_red, s_red.properties);
    const CheckerResult red = c_red.run();
    EXPECT_EQ(red.transitions, none.transitions) << name;
    EXPECT_EQ(red.unique_states, none.unique_states) << name;
    EXPECT_EQ(violation_key_set(red), violation_key_set(none)) << name;
    EXPECT_EQ(red.exhausted, none.exhausted) << name;
  };
  sweep([] { return apps::pyswitch_bug3(); }, "pyswitch-bug3");
  sweep([] { return apps::lb_scenario({}); }, "lb-bugs");
}

TEST(Por, ReductionComposesWithFlowIr) {
  // Strategies prune the enabled set before the reduction layer sees it.
  // FLOW-IR is a pure function of the canonical state (flow grouping over
  // packet headers), so reduction under FLOW-IR keeps the exact same
  // contract as under PKT-SEQ. UNUSUAL is deliberately absent here: its
  // filter keys on controller→switch send-order tags that are excluded
  // from canonical state identity, so which orderings survive depends on
  // which path first reaches a state — any change in arrival order
  // (reduction included) legitimately shifts its explored subspace.
  CheckerOptions base;
  base.stop_at_first_violation = false;
  base.strategy = Strategy::kFlowIr;
  auto s1 = apps::pyswitch_ping_chain(2);
  Checker c1(s1.config, base, s1.properties);
  const CheckerResult none = c1.run();

  CheckerOptions opt = base;
  opt.reduction = Reduction::kSleep;
  auto s2 = apps::pyswitch_ping_chain(2);
  Checker c2(s2.config, opt, s2.properties);
  const CheckerResult red = c2.run();

  EXPECT_TRUE(red.exhausted);
  EXPECT_EQ(red.unique_states, none.unique_states);
  EXPECT_LE(red.transitions, none.transitions);
}

}  // namespace
}  // namespace nicemc::mc
