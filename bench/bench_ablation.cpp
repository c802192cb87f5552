// Ablations of the design choices ARCHITECTURE.md describes under "State
// pipeline" and "State storage" (paper Section 6, "Model checker
// details"):
//
//   1. State restoration: cloning states (our default) vs replaying the
//      transition sequence from the initial state (the paper's choice, to
//      save memory). We measure both costs on real search prefixes.
//   2. Explored-set representation: 128-bit hashes vs full serialized
//      states vs COLLAPSE-interned component-id tuples (memory per state).
//   3. Canonical vs raw flow-table serialization cost (the price of the
//      Section 2.2.2 reduction).
#include <chrono>
#include <cstdio>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/trace.h"

using namespace nicemc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  std::printf("Ablation 1: clone-based vs replay-based state restoration\n");
  {
    auto s = apps::pyswitch_ping_chain(2);
    mc::Executor ex(s.config, s.properties);
    mc::DiscoveryCache cache;

    // Drive one deterministic execution to quiescence, keeping the trace.
    mc::SystemState st = ex.make_initial();
    std::vector<mc::Transition> trace;
    std::vector<mc::Violation> v;
    for (;;) {
      const auto ts = ex.enabled(st, cache);
      if (ts.empty()) break;
      trace.push_back(ts.front());
      ex.apply(st, ts.front(), v);
    }
    std::printf("  execution depth: %zu transitions\n", trace.size());

    constexpr int kReps = 2000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      mc::SystemState c = st.clone();
      (void)c;
    }
    const double clone_s = seconds_since(t0) / kReps;

    const auto t1 = Clock::now();
    constexpr int kReplayReps = 200;
    for (int i = 0; i < kReplayReps; ++i) {
      std::vector<mc::Violation> vs;
      (void)mc::replay(ex, trace, vs);
    }
    const double replay_s = seconds_since(t1) / kReplayReps;

    std::printf("  clone restore:  %9.2f us/state\n", clone_s * 1e6);
    std::printf("  replay restore: %9.2f us/state (%.0fx clone)\n",
                replay_s * 1e6, replay_s / clone_s);
    std::printf("  -> the paper replays to save memory; in C++ the clone is "
                "cheap\n     enough to prefer, so we clone and note the "
                "trade-off here.\n\n");
  }

  std::printf("Ablation 2: explored-set representation (hashes vs full "
              "states vs collapsed)\n");
  {
    auto run = [](util::ShardedSeenSet::Mode mode) {
      auto s = apps::pyswitch_ping_chain(2);
      mc::CheckerOptions opt;
      opt.state_store = mode;
      mc::Checker c(s.config, opt, s.properties);
      return c.run();
    };
    const auto hashes = run(util::ShardedSeenSet::Mode::kHash);
    const auto full = run(util::ShardedSeenSet::Mode::kFullState);
    const auto collapsed = run(util::ShardedSeenSet::Mode::kCollapsed);
    std::printf("  hash store:      %llu states, %llu bytes (%.1f B/state)\n",
                static_cast<unsigned long long>(hashes.unique_states),
                static_cast<unsigned long long>(hashes.store_bytes),
                static_cast<double>(hashes.store_bytes) /
                    static_cast<double>(hashes.unique_states));
    std::printf("  full store:      %llu states, %llu bytes (%.1f B/state, "
                "%.0fx hash)\n",
                static_cast<unsigned long long>(full.unique_states),
                static_cast<unsigned long long>(full.store_bytes),
                static_cast<double>(full.store_bytes) /
                    static_cast<double>(full.unique_states),
                static_cast<double>(full.store_bytes) /
                    static_cast<double>(hashes.store_bytes));
    std::printf("  collapsed store: %llu states, %llu bytes (%.1f B/state, "
                "%.1fx smaller than full, collision-proof)\n\n",
                static_cast<unsigned long long>(collapsed.unique_states),
                static_cast<unsigned long long>(collapsed.store_bytes),
                static_cast<double>(collapsed.store_bytes) /
                    static_cast<double>(collapsed.unique_states),
                static_cast<double>(full.store_bytes) /
                    static_cast<double>(collapsed.store_bytes));
  }

  std::printf("Ablation 3: canonical vs raw flow-table serialization\n");
  {
    of::FlowTable table;
    for (int i = 0; i < 32; ++i) {
      of::Rule r;
      r.match.fields = static_cast<std::uint16_t>(of::MatchField::kEthDst);
      r.match.eth_dst = 0x1000 + static_cast<std::uint64_t>(i);
      r.priority = static_cast<std::uint16_t>(100 + (i % 4));
      r.actions = {of::Action::output(static_cast<of::PortId>(i % 8))};
      table.add(r);
    }
    constexpr int kReps = 20000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      util::Ser s;
      table.serialize(s, /*canonical=*/true);
    }
    const double canon_s = seconds_since(t0) / kReps;
    const auto t1 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      util::Ser s;
      table.serialize(s, /*canonical=*/false);
    }
    const double raw_s = seconds_since(t1) / kReps;
    std::printf("  canonical: %8.2f us/table (32 rules)\n", canon_s * 1e6);
    std::printf("  raw:       %8.2f us/table  -> canonicalization costs "
                "%.1fx,\n",
                raw_s * 1e6, canon_s / raw_s);
    std::printf("  but buys the Table 1 state-space reduction (rho).\n");
  }
  return 0;
}
