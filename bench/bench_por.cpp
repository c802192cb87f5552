// Partial-order-reduction benchmark: transitions explored without DPOR
// and under sleep sets on every bundled scenario, plus the soundness
// contract enforced at runtime — each reduced run must report the
// identical violation set and the identical unique-state count as the
// unreduced search, with fewer (or equal) transitions. The run aborts
// loudly on any mismatch, so a successful run doubles as a check (the CI
// bench-por job relies on it).
//
// Every (scenario, reduction) cell runs twice — memo on and memo off
// (CheckerOptions::memo, the footprint/discovery memoization layer) —
// with two more runtime gates:
//   * the memo knob must not change violation/unique/quiescent/transition
//     counts (pure-function caching, differentially enforced);
//   * the footprint-memo hit rate of every reduced memo-on run must stay
//     above a floor on the bundled scenarios (CI fails on regression).
//
// A third runtime gate exercises the durability layer (mc/checkpoint.h):
// for every scenario, a transition-capped run checkpoints at its halt and
// a fresh process-state Checker resumes it — the resumed totals
// (transitions, unique states, quiescent states, violation set) must be
// identical to the uninterrupted search's, under kNone and kSleep.
//
// A fourth runtime gate covers the observability layer (util/telemetry.h):
// for every scenario an extra telemetry-on run must report counts
// identical to the telemetry-off search (observation must not perturb the
// search), and its wall time must stay within 1.05x of the off run plus a
// small absolute slack for sub-100ms cells. The telemetry run's per-phase
// breakdown lands in the stdout table and the JSON record.
//
// Usage: bench_por [--json out.json] [--repeat N] [--progress FILE]
//   --repeat N re-runs every cell N times and records the minimum wall
//   time (counts are asserted identical across repeats); use when
//   regenerating the committed BENCH_por.json on a noisy machine.
//   --progress FILE streams NDJSON snapshots of the telemetry-on runs
//   (scenarios append to one file; CI uploads it as an artifact).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "util/resource.h"
#include "util/telemetry.h"

using namespace nicemc;
using mc::violation_key_set;

namespace {

/// Minimum footprint-memo hit rate on every bundled scenario's reduced
/// memo-on runs (only rows with enough lookups to be meaningful — see
/// check_hit_rate_floor). Sequential searches are deterministic, so the
/// rates are exactly reproducible; the lowest today is lb-sym4 under
/// SLEEP at 0.373 (most sit between 0.45 and 0.97). The floor
/// is a regression tripwire for the key scheme — a keying change that
/// silently turns the memo into a miss machine trips it — not a target.
constexpr double kFootprintHitRateFloor = 0.30;

mc::CheckerResult run_scenario(const apps::NamedScenario& ns,
                               mc::Reduction reduction, bool memo,
                               int repeats, bool telemetry = false,
                               const char* progress = nullptr) {
  mc::CheckerResult best;
  for (int i = 0; i < repeats; ++i) {
    apps::Scenario s = ns.make();
    mc::CheckerOptions opt;
    opt.stop_at_first_violation = false;
    opt.reduction = reduction;
    opt.memo = memo;
    opt.telemetry = telemetry;
    if (progress != nullptr && i == 0) {
      // Scenarios chain their snapshots into one NDJSON stream; only the
      // first repeat streams so repeats don't re-report the same search.
      opt.progress_path = progress;
      opt.progress_interval_seconds = 0.05;
      opt.progress_append = true;
    }
    mc::Checker checker(s.config, opt, s.properties);
    mc::CheckerResult r = checker.run();
    if (i == 0) {
      best = std::move(r);
      continue;
    }
    if (r.transitions != best.transitions ||
        r.unique_states != best.unique_states) {
      std::fprintf(stderr, "FATAL: %s: nondeterministic repeat\n",
                   ns.name.c_str());
      std::exit(1);
    }
    if (r.seconds < best.seconds) best = std::move(r);
  }
  return best;
}

void check_sound(const char* scenario, const char* mode,
                 const mc::CheckerResult& none, const mc::CheckerResult& red) {
  if (red.unique_states != none.unique_states ||
      red.quiescent_states != none.quiescent_states ||
      red.transitions > none.transitions ||
      violation_key_set(red) != violation_key_set(none)) {
    std::fprintf(stderr,
                 "FATAL: %s under %s is not sound vs NONE "
                 "(unique %llu vs %llu, transitions %llu vs %llu, "
                 "violations %zu vs %zu)\n",
                 scenario, mode,
                 static_cast<unsigned long long>(red.unique_states),
                 static_cast<unsigned long long>(none.unique_states),
                 static_cast<unsigned long long>(red.transitions),
                 static_cast<unsigned long long>(none.transitions),
                 violation_key_set(red).size(), violation_key_set(none).size());
    std::exit(1);
  }
}

/// The memo-knob soundness gate: memoization is pure-function caching, so
/// flipping it must be invisible in every search count.
void check_memo_identical(const char* scenario, const char* mode,
                          const mc::CheckerResult& on,
                          const mc::CheckerResult& off) {
  if (on.transitions != off.transitions ||
      on.unique_states != off.unique_states ||
      on.quiescent_states != off.quiescent_states ||
      violation_key_set(on) != violation_key_set(off)) {
    std::fprintf(
        stderr,
        "FATAL: %s under %s differs across the memo knob "
        "(transitions %llu vs %llu, unique %llu vs %llu, quiescent %llu "
        "vs %llu, violations %zu vs %zu)\n",
        scenario, mode, static_cast<unsigned long long>(on.transitions),
        static_cast<unsigned long long>(off.transitions),
        static_cast<unsigned long long>(on.unique_states),
        static_cast<unsigned long long>(off.unique_states),
        static_cast<unsigned long long>(on.quiescent_states),
        static_cast<unsigned long long>(off.quiescent_states),
        violation_key_set(on).size(), violation_key_set(off).size());
    std::exit(1);
  }
}

/// The observer-effect gate: telemetry must not perturb the search —
/// identical counts and violation sets — and must stay cheap. The wall
/// gate is 1.05x plus a small absolute slack: bundled-scenario cells run
/// tens of milliseconds, where a single scheduler hiccup exceeds 5%.
void check_telemetry(const char* scenario, const mc::CheckerResult& on,
                     const mc::CheckerResult& off) {
  if (on.transitions != off.transitions ||
      on.unique_states != off.unique_states ||
      on.quiescent_states != off.quiescent_states ||
      violation_key_set(on) != violation_key_set(off)) {
    std::fprintf(stderr,
                 "FATAL: %s differs across the telemetry knob "
                 "(transitions %llu vs %llu, unique %llu vs %llu)\n",
                 scenario, static_cast<unsigned long long>(on.transitions),
                 static_cast<unsigned long long>(off.transitions),
                 static_cast<unsigned long long>(on.unique_states),
                 static_cast<unsigned long long>(off.unique_states));
    std::exit(1);
  }
  if (!on.telemetry.enabled) {
    std::fprintf(stderr, "FATAL: %s: telemetry run reports enabled=false\n",
                 scenario);
    std::exit(1);
  }
  if (on.seconds > off.seconds * 1.05 + 0.05) {
    std::fprintf(stderr,
                 "FATAL: %s: telemetry overhead %.3fs on vs %.3fs off "
                 "exceeds 1.05x + 50ms\n",
                 scenario, on.seconds, off.seconds);
    std::exit(1);
  }
}

double phase_fraction(const mc::CheckerResult& r, util::Phase p) {
  return r.telemetry.wall_ns > 0
             ? static_cast<double>(
                   r.telemetry.phases[static_cast<std::size_t>(p)].total_ns) /
                   static_cast<double>(r.telemetry.wall_ns)
             : 0.0;
}

double hit_rate(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t lookups = hits + misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

double fp_hit_rate(const mc::CheckerResult& r) {
  return hit_rate(r.memo.footprint_hits, r.memo.footprint_misses);
}

void check_hit_rate_floor(const char* scenario, const char* mode,
                          const mc::CheckerResult& on) {
  const std::uint64_t lookups =
      on.memo.footprint_hits + on.memo.footprint_misses;
  // Tiny searches have nothing to reuse (every footprint is computed
  // once); the floor is about sustained reuse on real state spaces.
  if (lookups < 500) return;
  const double rate = fp_hit_rate(on);
  if (rate < kFootprintHitRateFloor) {
    std::fprintf(stderr,
                 "FATAL: %s under %s: footprint memo hit rate %.3f below "
                 "floor %.2f (%llu hits / %llu lookups)\n",
                 scenario, mode, rate, kFootprintHitRateFloor,
                 static_cast<unsigned long long>(on.memo.footprint_hits),
                 static_cast<unsigned long long>(lookups));
    std::exit(1);
  }
}

/// The resume differential gate: cap the search mid-way (the halt writes a
/// final checkpoint), resume it in a fresh Checker, and require the
/// resumed run's totals to match the uninterrupted search exactly. Both
/// runs are sequential DFS, so identity must hold down to the transition
/// count.
void check_resume_identity(const apps::NamedScenario& ns,
                           mc::Reduction reduction, const char* mode,
                           const mc::CheckerResult& full) {
  const std::string path = "/tmp/bench_por_ckpt_" + ns.name;
  std::remove((path + ".a").c_str());
  std::remove((path + ".b").c_str());

  mc::CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.reduction = reduction;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;  // at-halt checkpoint only
  opt.max_transitions = full.transitions / 2 + 1;
  apps::Scenario s1 = ns.make();
  mc::Checker first(s1.config, opt, s1.properties);
  (void)first.run();

  opt.max_transitions = ~0ULL;
  opt.resume = true;
  apps::Scenario s2 = ns.make();
  mc::Checker second(s2.config, opt, s2.properties);
  const mc::CheckerResult resumed = second.run();

  if (!resumed.exhausted || resumed.transitions != full.transitions ||
      resumed.unique_states != full.unique_states ||
      resumed.quiescent_states != full.quiescent_states ||
      violation_key_set(resumed) != violation_key_set(full)) {
    std::fprintf(stderr,
                 "FATAL: %s under %s: interrupted+resumed run differs from "
                 "uninterrupted (transitions %llu vs %llu, unique %llu vs "
                 "%llu, resumed=%d exhausted=%d)\n",
                 ns.name.c_str(), mode,
                 static_cast<unsigned long long>(resumed.transitions),
                 static_cast<unsigned long long>(full.transitions),
                 static_cast<unsigned long long>(resumed.unique_states),
                 static_cast<unsigned long long>(full.unique_states),
                 resumed.durability.resumed ? 1 : 0,
                 resumed.exhausted ? 1 : 0);
    std::exit(1);
  }
  std::remove((path + ".a").c_str());
  std::remove((path + ".b").c_str());
}

/// One (scenario, reduction) cell: the same search with the memo on and
/// off. Counts are gate-checked identical; `on.seconds` vs `off.seconds`
/// is the layer's wall-time effect.
struct ModePair {
  mc::CheckerResult on, off;
};

struct Row {
  std::string name;
  std::string faults;
  ModePair none, sleep;
  /// Telemetry-on re-run of the NONE cell (the largest transition count,
  /// so per-transition instrumentation cost is most visible there).
  mc::CheckerResult telem;
};

/// Compact description of the fault classes a scenario arms and their
/// per-execution budgets ("-" when the scenario injects no faults). The
/// fault scenarios flow through every gate above like any other bundled
/// scenario — this column is what makes their fault surface visible in
/// the table and the committed JSON record.
std::string fault_desc(const mc::SystemConfig& cfg) {
  std::string out;
  const auto add = [&](const char* tag, bool on, std::uint32_t cap) {
    if (!on) return;
    if (!out.empty()) out += ',';
    out += tag;
    out += '=';
    out += cap == mc::kUnboundedFaults ? std::string("inf")
                                       : std::to_string(cap);
  };
  add("link", cfg.enable_link_faults, cfg.max_link_failures);
  add("chan", cfg.enable_ctrl_channel_faults, cfg.max_channel_losses);
  add("rst", cfg.enable_switch_restarts, cfg.max_switch_restarts);
  add("pkt", cfg.enable_channel_faults, cfg.max_packet_faults);
  return out.empty() ? "-" : out;
}

double ratio(const mc::CheckerResult& none, const mc::CheckerResult& red) {
  return red.transitions > 0
             ? static_cast<double>(none.transitions) /
                   static_cast<double>(red.transitions)
             : 0.0;
}

double wall_ratio(double base, double red) {
  return base > 0.0 ? red / base : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* progress_path = nullptr;
  int repeats = 1;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    if (std::strcmp(argv[i], "--progress") == 0) progress_path = argv[i + 1];
    if (std::strcmp(argv[i], "--repeat") == 0) {
      repeats = std::atoi(argv[i + 1]);
      if (repeats < 1) repeats = 1;
    }
  }
  if (progress_path != nullptr) std::remove(progress_path);

  std::vector<Row> rows;
  std::printf("%-22s %-14s %10s %9s %7s %7s %7s %7s %6s %6s %6s\n",
              "scenario", "faults", "t(NONE)", "t(SLEEP)", "s(NONE)",
              "s(SLEEP)", "noMemo", "xWALL", "fpHit", "xTEL", "apply%");
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    Row row;
    row.name = ns.name;
    row.faults = fault_desc(ns.make().config);
    auto pair = [&](mc::Reduction r) {
      return ModePair{run_scenario(ns, r, /*memo=*/true, repeats),
                      run_scenario(ns, r, /*memo=*/false, repeats)};
    };
    row.none = pair(mc::Reduction::kNone);
    row.sleep = pair(mc::Reduction::kSleep);
    row.telem = run_scenario(ns, mc::Reduction::kNone, /*memo=*/true,
                             repeats, /*telemetry=*/true, progress_path);
    check_telemetry(ns.name.c_str(), row.telem, row.none.on);

    check_sound(ns.name.c_str(), "SLEEP", row.none.on, row.sleep.on);
    check_memo_identical(ns.name.c_str(), "NONE", row.none.on, row.none.off);
    check_memo_identical(ns.name.c_str(), "SLEEP", row.sleep.on,
                         row.sleep.off);
    check_hit_rate_floor(ns.name.c_str(), "SLEEP", row.sleep.on);
    check_resume_identity(ns, mc::Reduction::kNone, "NONE", row.none.on);
    check_resume_identity(ns, mc::Reduction::kSleep, "SLEEP", row.sleep.on);

    std::printf(
        "%-22s %-14s %10llu %9llu %6.3fs %6.3fs %6.3fs %6.2fx %5.0f%% "
        "%5.2fx %5.0f%%\n",
        ns.name.c_str(), row.faults.c_str(),
        static_cast<unsigned long long>(row.none.on.transitions),
        static_cast<unsigned long long>(row.sleep.on.transitions),
        row.none.on.seconds, row.sleep.on.seconds, row.sleep.off.seconds,
        wall_ratio(row.none.on.seconds, row.sleep.on.seconds),
        100.0 * fp_hit_rate(row.sleep.on),
        wall_ratio(row.none.on.seconds, row.telem.seconds),
        100.0 * phase_fraction(row.telem, util::Phase::kApply));
    rows.push_back(std::move(row));
  }

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"por\",\n  \"peak_rss_bytes\": %llu,\n",
                 static_cast<unsigned long long>(util::peak_rss_bytes()));
    std::fprintf(f, "  \"scenarios\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      auto emit = [&](const char* key, const ModePair& mp) {
        const mc::CheckerResult& cr = mp.on;
        std::fprintf(f,
                     "      \"%s\": {\"transitions\": %llu, \"unique_states\""
                     ": %llu, \"revisits\": %llu, \"violations\": %zu, "
                     "\"seconds\": %.4f, \"seconds_memo_off\": %.4f, "
                     "\"memo\": {\"footprint_hits\": %llu, "
                     "\"footprint_misses\": %llu, \"footprint_hit_rate\": "
                     "%.3f, \"discover_hits\": %llu, \"discover_misses\": "
                     "%llu, \"bytes\": %llu}},\n",
                     key, static_cast<unsigned long long>(cr.transitions),
                     static_cast<unsigned long long>(cr.unique_states),
                     static_cast<unsigned long long>(cr.revisits),
                     violation_key_set(cr).size(), cr.seconds,
                     mp.off.seconds,
                     static_cast<unsigned long long>(cr.memo.footprint_hits),
                     static_cast<unsigned long long>(
                         cr.memo.footprint_misses),
                     fp_hit_rate(cr),
                     static_cast<unsigned long long>(cr.memo.discover_hits),
                     static_cast<unsigned long long>(
                         cr.memo.discover_misses),
                     static_cast<unsigned long long>(cr.memo.bytes));
      };
      std::fprintf(f, "    {\n      \"name\": \"%s\",\n", r.name.c_str());
      std::fprintf(f, "      \"faults\": \"%s\",\n", r.faults.c_str());
      emit("none", r.none);
      emit("sleep", r.sleep);
      std::fprintf(f,
                   "      \"telemetry\": {\"seconds_on\": %.4f, "
                   "\"seconds_off\": %.4f, \"overhead\": %.3f, \"wall_ns\": "
                   "%llu, \"phases\": {",
                   r.telem.seconds, r.none.on.seconds,
                   wall_ratio(r.none.on.seconds, r.telem.seconds),
                   static_cast<unsigned long long>(r.telem.telemetry.wall_ns));
      for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
        std::fprintf(f, "%s\"%s\": %llu", p == 0 ? "" : ", ",
                     util::phase_name(static_cast<util::Phase>(p)),
                     static_cast<unsigned long long>(
                         r.telem.telemetry.phases[p].total_ns));
      }
      std::fprintf(f, "}},\n");
      std::fprintf(f,
                   "      \"reduction_sleep\": %.3f,\n"
                   "      \"wall_overhead_sleep\": %.3f\n    }%s\n",
                   ratio(r.none.on, r.sleep.on),
                   wall_ratio(r.none.on.seconds, r.sleep.on.seconds),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("benchmark record written to %s\n", json_path);
  }
  return 0;
}
