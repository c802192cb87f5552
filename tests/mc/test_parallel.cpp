// The parallel search core: 1-thread determinism against an independent
// reference DFS (the original recursive checker's algorithm, re-implemented
// here from scratch), count-equivalence of the N-thread driver and the
// alternative frontiers, and the random-walk portfolio.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"

namespace nicemc::mc {
namespace {

struct RefCounts {
  std::uint64_t transitions{0};
  std::uint64_t unique_states{0};
  std::uint64_t revisits{0};
  std::uint64_t quiescent_states{0};
};

/// Straight-line re-implementation of the original single-threaded DFS
/// (explicit stack, one global seen-set, clone-per-transition). Kept
/// independent of SearchCore/Frontier so it pins the semantics the
/// refactored engine must reproduce.
RefCounts reference_dfs(const apps::Scenario& s) {
  const CheckerOptions options;
  Executor executor(s.config, s.properties);
  DiscoveryCache cache;
  std::unordered_set<util::Hash128> seen;
  RefCounts r;

  struct Entry {
    std::shared_ptr<const SystemState> state;
    Transition transition;
  };

  SystemState initial = executor.make_initial();
  seen.insert(initial.hash(s.config.canonical_flowtables));
  r.unique_states = 1;

  std::vector<Entry> stack;
  auto initial_sp = std::make_shared<const SystemState>(initial.clone());
  auto ts0 = apply_strategy(options.strategy, s.config, *initial_sp,
                            executor.enabled(*initial_sp, cache));
  if (ts0.empty()) ++r.quiescent_states;
  for (Transition& t : ts0) stack.push_back(Entry{initial_sp, std::move(t)});

  while (!stack.empty()) {
    Entry e = std::move(stack.back());
    stack.pop_back();
    SystemState next = e.state->clone();
    std::vector<Violation> violations;
    executor.apply(next, e.transition, violations);
    ++r.transitions;
    if (!violations.empty()) continue;
    if (!seen.insert(next.hash(s.config.canonical_flowtables)).second) {
      ++r.revisits;
      continue;
    }
    ++r.unique_states;
    auto ts = apply_strategy(options.strategy, s.config, next,
                             executor.enabled(next, cache));
    if (ts.empty()) {
      ++r.quiescent_states;
      continue;
    }
    auto sp = std::make_shared<const SystemState>(std::move(next));
    for (Transition& t : ts) stack.push_back(Entry{sp, std::move(t)});
  }
  return r;
}

CheckerResult run_with(const apps::Scenario& s, CheckerOptions opt) {
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

TEST(ParallelSearch, OneThreadDfsMatchesReferenceDfs) {
  for (int pings : {1, 2}) {
    auto s = apps::pyswitch_ping_chain(pings);
    const RefCounts ref = reference_dfs(s);
    const CheckerResult r = run_with(s, CheckerOptions{});
    EXPECT_EQ(r.transitions, ref.transitions) << "pings=" << pings;
    EXPECT_EQ(r.unique_states, ref.unique_states) << "pings=" << pings;
    EXPECT_EQ(r.revisits, ref.revisits) << "pings=" << pings;
    EXPECT_EQ(r.quiescent_states, ref.quiescent_states)
        << "pings=" << pings;
    EXPECT_TRUE(r.exhausted);
  }
}

TEST(ParallelSearch, MultiThreadCountEquivalentToSequential) {
  CheckerOptions base;
  base.stop_at_first_violation = false;
  const CheckerResult seq = run_with(apps::pyswitch_ping_chain(2), base);
  for (unsigned threads : {2u, 4u}) {
    CheckerOptions opt = base;
    opt.threads = threads;
    const CheckerResult par = run_with(apps::pyswitch_ping_chain(2), opt);
    EXPECT_EQ(par.unique_states, seq.unique_states) << threads;
    EXPECT_EQ(par.transitions, seq.transitions) << threads;
    EXPECT_EQ(par.revisits, seq.revisits) << threads;
    EXPECT_EQ(par.quiescent_states, seq.quiescent_states) << threads;
    EXPECT_EQ(par.store_bytes, seq.store_bytes) << threads;
    EXPECT_TRUE(par.exhausted) << threads;
  }
}

TEST(ParallelSearch, MultiThreadCountEquivalentUnderStrategies) {
  // MultiThreadCountEquivalent covers the default strategy; pin the
  // contract for the heuristic strategies too. FLOW-IR
  // is a pure function of the canonical state, so its equality is
  // structural. UNUSUAL reads send-order tags excluded from state
  // identity; on this scenario the surviving subspaces of divergently-
  // tagged arrivals are count-symmetric (stress-verified), but if this
  // ever flakes under real parallelism, weaken the kUnusual case to
  // violation-set equality rather than papering over it with a retry.
  for (const Strategy strategy : {Strategy::kFlowIr, Strategy::kUnusual}) {
    auto make = [&] {
      auto s = apps::pyswitch_ping_chain(2);
      CheckerOptions opt;
      opt.stop_at_first_violation = false;
      apps::set_strategy(s, opt, strategy);
      return std::pair{std::move(s), opt};
    };
    auto [s_seq, opt_seq] = make();
    const CheckerResult seq = run_with(s_seq, opt_seq);
    ASSERT_TRUE(seq.exhausted) << strategy_name(strategy);
    for (unsigned threads : {2u, 4u}) {
      auto [s_par, opt_par] = make();
      opt_par.threads = threads;
      const CheckerResult par = run_with(s_par, opt_par);
      const std::string tag =
          strategy_name(strategy) + " threads=" + std::to_string(threads);
      EXPECT_EQ(par.transitions, seq.transitions) << tag;
      EXPECT_EQ(par.unique_states, seq.unique_states) << tag;
      EXPECT_EQ(par.revisits, seq.revisits) << tag;
      EXPECT_EQ(par.quiescent_states, seq.quiescent_states) << tag;
      EXPECT_TRUE(par.exhausted) << tag;
    }
  }
}

TEST(ParallelSearch, MultiThreadFindsSameViolationSet) {
  apps::LbScenarioOptions o;
  o.fix_install_before_delete = true;
  o.client_sends_arp = true;
  CheckerOptions base;
  base.stop_at_first_violation = false;

  // Messages embed packet uid.copy_id values, which are path-dependent:
  // several interleavings reach the same canonical state and the thread
  // that wins the seen-set insert reports the violation, so the raw text
  // varies run to run. violation_keys (mc/search_core.h) normalizes the
  // uid=X.Y naming before comparing; multiplicity is preserved.
  const CheckerResult seq = run_with(apps::lb_scenario(o), base);
  CheckerOptions opt = base;
  opt.threads = 4;
  const CheckerResult par = run_with(apps::lb_scenario(o), opt);
  EXPECT_EQ(par.unique_states, seq.unique_states);
  EXPECT_EQ(violation_keys(par), violation_keys(seq));
  EXPECT_TRUE(par.exhausted);
}

TEST(ParallelSearch, MultiThreadStopsAtFirstViolation) {
  auto s = apps::pyswitch_bug2();
  CheckerOptions opt;
  opt.threads = 4;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  ASSERT_TRUE(r.found_violation());
  EXPECT_FALSE(r.exhausted);
  // The violation carries a usable replay trace.
  EXPECT_FALSE(r.violations.front().trace.empty());
}

/// Half the exhaustive transition count of pyswitch_ping_chain(2) (677):
/// a cap at which the counts depend on the one-worker pop order.
constexpr std::uint64_t kHalfPing2 = 677 / 2;

void expect_counts(const CheckerResult& r, std::uint64_t transitions,
                   std::uint64_t unique, std::uint64_t revisits,
                   std::uint64_t quiescent) {
  EXPECT_EQ(r.transitions, transitions);
  EXPECT_EQ(r.unique_states, unique);
  EXPECT_EQ(r.revisits, revisits);
  EXPECT_EQ(r.quiescent_states, quiescent);
}

TEST(ParallelSearch, BfsFrontierCountEquivalent) {
  const CheckerResult dfs =
      run_with(apps::pyswitch_ping_chain(2), CheckerOptions{});
  CheckerOptions opt;
  opt.frontier = FrontierKind::kBfs;
  const CheckerResult bfs = run_with(apps::pyswitch_ping_chain(2), opt);
  EXPECT_EQ(bfs.unique_states, dfs.unique_states);
  EXPECT_EQ(bfs.transitions, dfs.transitions);
  EXPECT_EQ(bfs.revisits, dfs.revisits);
  EXPECT_TRUE(bfs.exhausted);

  // Truncated, the counts pin the FIFO pop order itself.
  opt.max_transitions = kHalfPing2;
  const CheckerResult half = run_with(apps::pyswitch_ping_chain(2), opt);
  EXPECT_EQ(half.hit_limit, LimitReason::kTransitions);
  expect_counts(half, 338, 207, 132, 0);
}

TEST(ParallelSearch, RandomFrontierCountEquivalentAndSeedStable) {
  CheckerOptions opt;
  opt.frontier = FrontierKind::kRandom;
  opt.frontier_seed = 7;
  const CheckerResult a = run_with(apps::pyswitch_ping_chain(2), opt);
  const CheckerResult b = run_with(apps::pyswitch_ping_chain(2), opt);
  const CheckerResult dfs =
      run_with(apps::pyswitch_ping_chain(2), CheckerOptions{});
  EXPECT_EQ(a.unique_states, dfs.unique_states);
  EXPECT_EQ(a.transitions, dfs.transitions);
  EXPECT_EQ(a.transitions, b.transitions);  // same seed → same order
  EXPECT_TRUE(a.exhausted);

  // Truncated, the counts pin the seeded pop order itself.
  opt.max_transitions = kHalfPing2;
  const CheckerResult half = run_with(apps::pyswitch_ping_chain(2), opt);
  EXPECT_EQ(half.hit_limit, LimitReason::kTransitions);
  expect_counts(half, 338, 233, 106, 1);
}

TEST(ParallelSearch, BfsFindsShortestCounterexample) {
  // BFS counterexamples are minimal-length; DFS traces can only be equal
  // or longer on the same scenario.
  auto run_bug = [](FrontierKind kind) {
    auto s = apps::pyswitch_bug2();
    CheckerOptions opt;
    opt.frontier = kind;
    Checker checker(s.config, opt, s.properties);
    return checker.run();
  };
  const CheckerResult bfs = run_bug(FrontierKind::kBfs);
  const CheckerResult dfs = run_bug(FrontierKind::kDfs);
  ASSERT_TRUE(bfs.found_violation());
  ASSERT_TRUE(dfs.found_violation());
  EXPECT_LE(bfs.violations.front().trace.size(),
            dfs.violations.front().trace.size());
}

TEST(ParallelSearch, RandomWalkCountsRevisits) {
  // Repeated walks traverse overlapping prefixes: remember_state misses
  // must be counted as revisits (the seed walker silently dropped them).
  auto s = apps::pyswitch_ping_chain(1);
  Checker checker(s.config, CheckerOptions{}, s.properties);
  const CheckerResult r = checker.random_walk(/*seed=*/1, /*walks=*/10,
                                              /*max_steps=*/100);
  EXPECT_GT(r.revisits, 0u);
  EXPECT_EQ(r.transitions, r.unique_states + r.revisits);
}

TEST(ParallelSearch, RandomWalkPortfolioTerminatesAndCounts) {
  auto s = apps::pyswitch_ping_chain(2);
  CheckerOptions opt;
  opt.threads = 4;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.random_walk(/*seed=*/42, /*walks=*/8,
                                              /*max_steps=*/200);
  EXPECT_GT(r.transitions, 0u);
  EXPECT_GT(r.unique_states, 0u);
  EXPECT_EQ(r.transitions, r.unique_states + r.revisits);
  EXPECT_FALSE(r.found_violation());
}

TEST(ParallelSearch, RandomWalkPortfolioFindsKnownBug) {
  auto s = apps::pyswitch_bug2();
  CheckerOptions opt;
  opt.threads = 4;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.random_walk(/*seed=*/3, /*walks=*/64,
                                              /*max_steps=*/400);
  EXPECT_TRUE(r.found_violation());
}

TEST(ParallelSearch, ParallelFullStateStoreCountEquivalent) {
  CheckerOptions base;
  base.stop_at_first_violation = false;
  base.state_store = util::ShardedSeenSet::Mode::kFullState;
  const CheckerResult seq = run_with(apps::pyswitch_ping_chain(2), base);
  CheckerOptions opt = base;
  opt.threads = 4;
  const CheckerResult par = run_with(apps::pyswitch_ping_chain(2), opt);
  EXPECT_EQ(par.unique_states, seq.unique_states);
  EXPECT_EQ(par.store_bytes, seq.store_bytes);
}

TEST(ParallelSearch, ParallelCollapsedStoreCountEquivalent) {
  // The interning path is the one with real cross-thread sharing (the
  // CollapseTable and the per-snapshot id memos); the parallel run must
  // land on the identical explored set and the identical id-tuple bytes.
  CheckerOptions base;
  base.stop_at_first_violation = false;
  base.state_store = util::ShardedSeenSet::Mode::kCollapsed;
  const CheckerResult seq = run_with(apps::pyswitch_ping_chain(2), base);
  CheckerOptions opt = base;
  opt.threads = 4;
  const CheckerResult par = run_with(apps::pyswitch_ping_chain(2), opt);
  EXPECT_EQ(par.unique_states, seq.unique_states);
  EXPECT_EQ(par.store_bytes, seq.store_bytes);
  EXPECT_EQ(par.collapse.unique_blobs, seq.collapse.unique_blobs);
  EXPECT_EQ(par.collapse.interned_bytes, seq.collapse.interned_bytes);
}

TEST(ParallelSearch, ParallelRespectsTransitionLimitApproximately) {
  auto s = apps::pyswitch_ping_chain(3);
  CheckerOptions opt;
  opt.threads = 4;
  opt.max_transitions = 200;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  EXPECT_FALSE(r.exhausted);
  // Workers in flight when the limit trips may each add one transition.
  EXPECT_LE(r.transitions, 200u + opt.threads);
}

TEST(ParallelSearch, HandoffSpreadsWorkFromOneRoot) {
  // The initial state has one enabled transition, so the deque starts with
  // a single node: every other worker gets work only through a handoff
  // from a busy worker's private stack.
  const auto s = apps::pyswitch_ping_chain(3);
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.threads = 4;
  opt.telemetry = true;
  Executor executor(s.config, s.properties);
  DiscoveryCache discovery;
  const SystemState initial = executor.make_initial();
  ASSERT_EQ(apply_strategy(opt.strategy, s.config, initial,
                           executor.enabled(initial, discovery))
                .size(),
            1u);

  util::ShardedSeenSet seen(util::ShardedSeenSet::Mode::kHash, 16);
  util::Telemetry telem(opt.threads);
  const SearchCore core(s.config, opt, executor, seen, discovery,
                        /*packet_keys=*/false, /*collapse=*/nullptr,
                        /*fp_memo=*/nullptr, &telem);
  const CheckerResult r = run_search(core, opt.threads);
  ASSERT_TRUE(r.exhausted);

  CheckerOptions seq_opt = opt;
  seq_opt.threads = 1;
  seq_opt.telemetry = false;
  EXPECT_EQ(r.transitions, run_with(s, seq_opt).transitions);
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < opt.threads; ++w) {
    EXPECT_GT(telem.worker(w).transitions(), 0u) << "worker " << w;
    total += telem.worker(w).transitions();
  }
  EXPECT_EQ(total, r.transitions);
}

}  // namespace
}  // namespace nicemc::mc
