// Checker option coverage: limits, collect-all-violations mode, depth
// bounds, the interaction between strategies and baselines, and the full
// reduction × state-store option matrix (time limits, hit_limit
// reporting, store statistics).
#include <gtest/gtest.h>

#include <string>

#include "apps/scenarios.h"
#include "mc/checker.h"

namespace nicemc::mc {
namespace {

constexpr Reduction kAllReductions[] = {Reduction::kNone, Reduction::kSleep};
constexpr util::ShardedSeenSet::Mode kAllStores[] = {
    util::ShardedSeenSet::Mode::kHash,
    util::ShardedSeenSet::Mode::kFullState,
    util::ShardedSeenSet::Mode::kCollapsed};

std::string cell_tag(Reduction r, util::ShardedSeenSet::Mode m) {
  return reduction_name(r) + " store=" +
         std::to_string(static_cast<int>(m));
}

TEST(CheckerOptions, CollectAllViolationsExhaustsTheSpace) {
  // BUG-IV and BUG-VI are both live in this configuration: collect-all
  // mode keeps searching past the first violation and still reports the
  // space as exhausted.
  apps::LbScenarioOptions o;
  o.fix_install_before_delete = true;
  o.client_sends_arp = true;
  auto s = apps::lb_scenario(o);
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  EXPECT_GT(r.violations.size(), 1u);
  EXPECT_TRUE(r.exhausted);

  // Stop-at-first mode on the same scenario reports a truncated search.
  auto s2 = apps::lb_scenario(o);
  Checker first(s2.config, CheckerOptions{}, s2.properties);
  const CheckerResult rf = first.run();
  EXPECT_EQ(rf.violations.size(), 1u);
  EXPECT_FALSE(rf.exhausted);
}

TEST(CheckerOptions, DepthLimitBoundsTraceLength) {
  auto s = apps::pyswitch_ping_chain(2);
  CheckerOptions opt;
  opt.max_depth = 5;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  // With the frontier cut at depth 5, the searched region stays tiny.
  EXPECT_LT(r.unique_states, 200u);
}

TEST(CheckerOptions, UniqueStateLimitStopsSearch) {
  auto s = apps::pyswitch_ping_chain(3);
  CheckerOptions opt;
  opt.max_unique_states = 100;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  EXPECT_FALSE(r.exhausted);
  EXPECT_LE(r.unique_states, 101u);
}

TEST(CheckerOptions, ViolationTraceLengthIsBugDepth) {
  // BUG-VIII manifests after send → process → dispatch → quiescence.
  auto s = apps::te_scenario({});
  Checker checker(s.config, CheckerOptions{}, s.properties);
  const CheckerResult r = checker.run();
  ASSERT_TRUE(r.found_violation());
  EXPECT_LE(r.violations.front().trace.size(), 6u);
}

TEST(CheckerOptions, DiscoveryStatsAccumulate) {
  auto s = apps::pyswitch_bug2();
  Checker checker(s.config, CheckerOptions{}, s.properties);
  const CheckerResult r = checker.run();
  EXPECT_GT(r.discovery.packet_discoveries, 0u);
  EXPECT_GT(r.discovery.handler_runs, r.discovery.packet_discoveries);
  EXPECT_GT(r.discovery.packets_found, 0u);
}

TEST(CheckerOptions, DiscoveryIsMemoizedPerControllerState) {
  // Exhausting the same scenario twice with one checker instance reuses
  // the cache; a second checker re-discovers. Either way the searches are
  // identical — discovery is a pure function of the controller state.
  auto s = apps::pyswitch_bug2();
  Checker first(s.config, CheckerOptions{}, s.properties);
  const auto r1 = first.run();
  auto s2 = apps::pyswitch_bug2();
  Checker second(s2.config, CheckerOptions{}, s2.properties);
  const auto r2 = second.run();
  EXPECT_EQ(r1.transitions, r2.transitions);
  EXPECT_EQ(r1.discovery.packet_discoveries, r2.discovery.packet_discoveries);
}

TEST(CheckerOptions, RandomWalksDifferBySeedButReplayTheSame) {
  auto s = apps::pyswitch_ping_chain(2);
  Checker checker(s.config, CheckerOptions{}, s.properties);
  const auto a = checker.random_walk(1, 3, 50);
  auto s2 = apps::pyswitch_ping_chain(2);
  Checker checker2(s2.config, CheckerOptions{}, s2.properties);
  const auto b = checker2.random_walk(1, 3, 50);
  EXPECT_EQ(a.transitions, b.transitions);  // same seed → same walks
  // One thread walks on the caller's thread from SplitMix64(seed): these
  // counts pin the exact walks, so a change to the RNG seeding, the
  // strategy filter or the per-step order shows up here.
  EXPECT_EQ(a.transitions, 96u);
  EXPECT_EQ(a.unique_states, 77u);
  EXPECT_EQ(a.revisits, 19u);
  EXPECT_EQ(a.quiescent_states, 3u);
  // A walk set that records violations (BUG-II), run past the first one.
  auto s3 = apps::pyswitch_bug2();
  CheckerOptions all;
  all.stop_at_first_violation = false;
  Checker checker3(s3.config, all, s3.properties);
  const auto c = checker3.random_walk(7, 40, 60);
  EXPECT_EQ(c.transitions, 690u);
  EXPECT_EQ(c.unique_states, 363u);
  EXPECT_EQ(c.revisits, 327u);
  EXPECT_EQ(c.quiescent_states, 38u);
  EXPECT_EQ(c.violations.size(), 2u);
}

TEST(CheckerOptions, FineInterleavingStillFindsBugs) {
  // The JPF-like baseline is slower but sound: it still finds BUG-II.
  auto s = apps::pyswitch_bug2();
  s.config.fine_interleaving = true;
  Checker checker(s.config, CheckerOptions{}, s.properties);
  const CheckerResult r = checker.run();
  EXPECT_TRUE(r.found_violation());
}

TEST(CheckerOptions, NoSwitchReductionStillFindsBugs) {
  // Disabling canonicalization wastes states but is sound.
  auto s = apps::pyswitch_bug2();
  s.config.canonical_flowtables = false;
  Checker checker(s.config, CheckerOptions{}, s.properties);
  const CheckerResult r = checker.run();
  EXPECT_TRUE(r.found_violation());
}

TEST(CheckerOptions, CountLimitsReportTheirReason) {
  auto s = apps::pyswitch_ping_chain(3);
  CheckerOptions opt;
  opt.max_transitions = 200;
  Checker by_transitions(s.config, opt, s.properties);
  const CheckerResult rt = by_transitions.run();
  EXPECT_FALSE(rt.exhausted);
  EXPECT_EQ(rt.hit_limit, LimitReason::kTransitions);

  auto s2 = apps::pyswitch_ping_chain(3);
  CheckerOptions opt2;
  opt2.max_unique_states = 100;
  Checker by_states(s2.config, opt2, s2.properties);
  const CheckerResult rs = by_states.run();
  EXPECT_FALSE(rs.exhausted);
  EXPECT_EQ(rs.hit_limit, LimitReason::kUniqueStates);

  // A run that actually exhausts reports no limit.
  auto s3 = apps::pyswitch_ping_chain(1);
  Checker clean(s3.config, CheckerOptions{}, s3.properties);
  const CheckerResult rc = clean.run();
  EXPECT_TRUE(rc.exhausted);
  EXPECT_EQ(rc.hit_limit, LimitReason::kNone);
}

TEST(CheckerOptions, TimeLimitStopsSequentialSearch) {
  // A wall-clock budget far below the scenario's full search time: the
  // run must stop, report kTime, and never claim exhaustion.
  auto s = apps::pyswitch_ping_chain(4);
  CheckerOptions opt;
  opt.time_limit_seconds = 0.005;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  EXPECT_FALSE(r.exhausted);
  EXPECT_EQ(r.hit_limit, LimitReason::kTime);
}

TEST(CheckerOptions, TimeLimitStopsParallelSearch) {
  auto s = apps::pyswitch_ping_chain(4);
  CheckerOptions opt;
  opt.threads = 4;
  opt.time_limit_seconds = 0.005;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  EXPECT_FALSE(r.exhausted);
  EXPECT_EQ(r.hit_limit, LimitReason::kTime);
}

TEST(CheckerOptions, TimeLimitMatrixAcrossReductionsAndStores) {
  // Every reduction × state-store pair must honor the wall-clock budget:
  // a run truncated by time reports hit_limit = kTime and never claims
  // exhaustion, whatever bookkeeping (sleep store, interning tables)
  // rides along.
  for (const Reduction r : kAllReductions) {
    for (const util::ShardedSeenSet::Mode m : kAllStores) {
      auto s = apps::pyswitch_ping_chain(4);
      CheckerOptions opt;
      opt.reduction = r;
      opt.state_store = m;
      opt.time_limit_seconds = 0.004;
      Checker checker(s.config, opt, s.properties);
      const CheckerResult res = checker.run();
      const std::string tag = cell_tag(r, m);
      EXPECT_FALSE(res.exhausted) << tag;
      EXPECT_EQ(res.hit_limit, LimitReason::kTime) << tag;
    }
  }
}

TEST(CheckerOptions, StoreStatsConsistentAcrossReductionMatrix) {
  // Exhaustive runs across the full matrix: store statistics must match
  // the store mode (interning counters exactly when collapsed; nonzero
  // store bytes always).
  for (const Reduction r : kAllReductions) {
    for (const util::ShardedSeenSet::Mode m : kAllStores) {
      auto s = apps::pyswitch_ping_chain(2);
      CheckerOptions opt;
      opt.stop_at_first_violation = false;
      opt.reduction = r;
      opt.state_store = m;
      Checker checker(s.config, opt, s.properties);
      const CheckerResult res = checker.run();
      const std::string tag = cell_tag(r, m);
      EXPECT_TRUE(res.exhausted) << tag;
      EXPECT_EQ(res.hit_limit, LimitReason::kNone) << tag;
      EXPECT_GT(res.store_bytes, 0u) << tag;
      if (m == util::ShardedSeenSet::Mode::kCollapsed) {
        EXPECT_GT(res.collapse.unique_blobs, 0u) << tag;
        EXPECT_GT(res.collapse.dedupe_ratio, 1.0) << tag;
      } else {
        EXPECT_EQ(res.collapse.unique_blobs, 0u) << tag;
      }
    }
  }
}

TEST(CheckerOptions, MemoStatsConsistentAcrossReductionMatrix) {
  // Memo accounting contract over the full reduction × store matrix on a
  // scenario with symbolic discovery enabled (BUG-II): discovery lookups
  // happen in every mode (the discovery cache is always on), footprint
  // lookups exactly when the memo is on and a reduction is active, and
  // resident bytes never exceed the configured budget. With the memo off,
  // the footprint counters stay zero.
  for (const Reduction r : kAllReductions) {
    for (const util::ShardedSeenSet::Mode m : kAllStores) {
      const std::string tag = cell_tag(r, m);
      for (const bool memo : {true, false}) {
        auto s = apps::pyswitch_bug2();
        CheckerOptions opt;
        opt.stop_at_first_violation = false;
        opt.reduction = r;
        opt.state_store = m;
        opt.memo = memo;
        Checker checker(s.config, opt, s.properties);
        const CheckerResult res = checker.run();
        EXPECT_TRUE(res.exhausted) << tag;
        EXPECT_GT(res.memo.discover_hits + res.memo.discover_misses, 0u)
            << tag;
        EXPECT_LE(res.memo.bytes, opt.memo_budget_bytes) << tag;
        if (!memo) {
          EXPECT_EQ(res.memo.footprint_hits, 0u) << tag;
          EXPECT_EQ(res.memo.footprint_misses, 0u) << tag;
          EXPECT_EQ(res.memo.evictions, 0u) << tag;
          continue;
        }
        if (r == Reduction::kNone) {
          // No reduction → no footprint computations at all.
          EXPECT_EQ(res.memo.footprint_hits + res.memo.footprint_misses,
                    0u)
              << tag;
        } else {
          EXPECT_GT(res.memo.footprint_hits + res.memo.footprint_misses,
                    0u)
              << tag;
          // Reuse must actually happen on this scenario, not just
          // bookkeeping: the table answers some lookups.
          EXPECT_GT(res.memo.footprint_hits, 0u) << tag;
        }
        // The default budget is far above this scenario's working set, so
        // nothing should have been evicted.
        EXPECT_EQ(res.memo.evictions, 0u) << tag;
        EXPECT_GT(res.memo.bytes, 0u) << tag;
      }
    }
  }
}

TEST(CheckerOptions, MemoBudgetIsRespectedUnderPressure) {
  // A deliberately tiny budget forces the LRU to evict; the search must
  // still complete with identical counts, and the resident bytes must
  // stay within the budget.
  auto baseline_s = apps::pyswitch_ping_chain(3);
  CheckerOptions base_opt;
  base_opt.stop_at_first_violation = false;
  base_opt.reduction = Reduction::kSleep;
  Checker baseline(baseline_s.config, base_opt, baseline_s.properties);
  const CheckerResult want = baseline.run();

  auto s = apps::pyswitch_ping_chain(3);
  CheckerOptions opt = base_opt;
  opt.memo_budget_bytes = 8192;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult res = checker.run();
  EXPECT_EQ(res.transitions, want.transitions);
  EXPECT_EQ(res.unique_states, want.unique_states);
  EXPECT_EQ(violation_key_set(res), violation_key_set(want));
  EXPECT_LE(res.memo.bytes, opt.memo_budget_bytes);
  EXPECT_GT(res.memo.evictions, 0u);
}

TEST(CheckerOptions, CountLimitsReportReasonUnderReduction) {
  // Transition / unique-state caps keep their reporting contract when
  // the reduction layer is active (the caps see reduced counts).
  auto s = apps::pyswitch_ping_chain(3);
  CheckerOptions opt;
  opt.reduction = Reduction::kSleep;
  opt.max_transitions = 150;
  Checker by_transitions(s.config, opt, s.properties);
  const CheckerResult rt = by_transitions.run();
  EXPECT_FALSE(rt.exhausted);
  EXPECT_EQ(rt.hit_limit, LimitReason::kTransitions);

  auto s2 = apps::pyswitch_ping_chain(3);
  CheckerOptions opt2;
  opt2.reduction = Reduction::kSleep;
  opt2.max_unique_states = 80;
  Checker by_states(s2.config, opt2, s2.properties);
  const CheckerResult rs = by_states.run();
  EXPECT_FALSE(rs.exhausted);
  EXPECT_EQ(rs.hit_limit, LimitReason::kUniqueStates);
}

TEST(CheckerOptions, TimeLimitStopsRandomWalks) {
  for (const unsigned threads : {1u, 4u}) {
    auto s = apps::pyswitch_ping_chain(3);
    CheckerOptions opt;
    opt.threads = threads;
    opt.time_limit_seconds = 0.005;
    Checker checker(s.config, opt, s.properties);
    const CheckerResult r = checker.random_walk(/*seed=*/7,
                                                /*walks=*/1000000,
                                                /*max_steps=*/1000);
    EXPECT_EQ(r.hit_limit, LimitReason::kTime) << threads;
    EXPECT_FALSE(r.exhausted) << threads;
  }
}

}  // namespace
}  // namespace nicemc::mc
