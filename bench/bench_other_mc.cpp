// Section 7's "comparison to other model checkers", reproduced with
// degraded configurations of our own checker (see ARCHITECTURE.md,
// "State storage"):
//
//   * NICE-MC            — hash-based state matching, handler-atomic
//                          controller transitions;
//   * FULL-STATE-STORE   — stores complete serialized states like SPIN's
//                          default state vector (same search, SPIN-like
//                          memory footprint: the paper notes SPIN runs out
//                          of memory at 7 pings);
//   * FINE-INTERLEAVING  — every command a handler emits becomes its own
//                          interleavable transition, approximating JPF's
//                          thread-level granularity (the paper measures JPF
//                          up to 290x slower than NICE).
#include <cstdio>
#include <cstdlib>

#include "apps/scenarios.h"
#include "mc/checker.h"

using namespace nicemc;

namespace {

struct Config {
  const char* name;
  bool full_store;
  bool fine_interleaving;
};

mc::CheckerResult run(int pings, const Config& c, std::uint64_t cap) {
  auto s = apps::pyswitch_ping_chain(pings);
  s.config.fine_interleaving = c.fine_interleaving;
  mc::CheckerOptions opt;
  opt.max_transitions = cap;
  opt.state_store = c.full_store ? util::ShardedSeenSet::Mode::kFullState
                                 : util::ShardedSeenSet::Mode::kHash;
  mc::Checker checker(s.config, opt, s.properties);
  return checker.run();
}

}  // namespace

int main(int argc, char** argv) {
  const int max_pings = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::uint64_t cap =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10'000'000ULL;

  const Config configs[] = {
      {"NICE-MC", false, false},
      {"FULL-STATE-STORE", true, false},
      {"FINE-INTERLEAVING", false, true},
  };

  std::printf("Model-checker comparison on the pyswitch ping workload "
              "(Section 7).\n\n");
  std::printf("%5s  %-18s %12s %13s %10s %14s\n", "pings", "config",
              "transitions", "unique-states", "time[s]", "store-bytes");
  for (int pings = 2; pings <= max_pings; ++pings) {
    mc::CheckerResult base;
    for (const Config& c : configs) {
      const auto r = run(pings, c, cap);
      std::printf("%5d  %-18s %12llu %13llu %10.3f %14llu%s\n", pings,
                  c.name, static_cast<unsigned long long>(r.transitions),
                  static_cast<unsigned long long>(r.unique_states),
                  r.seconds, static_cast<unsigned long long>(r.store_bytes),
                  r.exhausted ? "" : "  (capped)");
      if (std::string_view(c.name) == "NICE-MC") {
        base = r;
      } else if (base.transitions > 0) {
        std::printf("       -> vs NICE-MC: %.1fx transitions, %.1fx time, "
                    "%.1fx store bytes\n",
                    static_cast<double>(r.transitions) /
                        static_cast<double>(base.transitions),
                    base.seconds > 0 ? r.seconds / base.seconds : 0.0,
                    base.store_bytes > 0
                        ? static_cast<double>(r.store_bytes) /
                              static_cast<double>(base.store_bytes)
                        : 0.0);
      }
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "Paper's shape: NICE strikes the balance — the SPIN-like "
      "configuration\npays orders of magnitude more memory per state; the "
      "JPF-like granularity\nexplodes the interleaving space (JPF was 290x "
      "slower on 3 pings, 5.5x\nafter hand-tuning).\n");
  return 0;
}
