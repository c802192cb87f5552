// Durable search: crash-safe checkpointed exploration from the command
// line.
//
// Runs any bundled scenario with the durability layer on: periodic
// A/B-slot checkpoints, cooperative SIGINT/SIGTERM handling, an optional
// memory budget, and --resume to continue a previous (killed or
// interrupted) run as if it had never stopped. The CI kill-and-resume
// smoke job drives this binary: start it with a tiny checkpoint
// interval, SIGKILL it mid-search, resume, and require totals identical
// to an uninterrupted run.
//
//   durable_search --scenario pyswitch-bug1 --checkpoint /tmp/ck \
//                  --interval 0.01 --handle-signals --json out.json
//   durable_search --scenario pyswitch-bug1 --checkpoint /tmp/ck --resume
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/trace.h"

using namespace nicemc;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario NAME] [--checkpoint PATH] [--interval SECS]\n"
      "          [--resume] [--handle-signals] [--memory-budget BYTES]\n"
      "          [--threads N] [--frontier dfs|bfs|random]\n"
      "          [--reduction none|sleep]\n"
      "          [--store hash|full|collapsed] [--max-transitions N]\n"
      "          [--telemetry] [--progress PATH] [--progress-interval SECS]\n"
      "          [--tty] [--trace-json PATH] [--trace-dot PATH]\n"
      "          [--json PATH] [--list] [--symmetry]\n"
      "          [--faults CLASSES] [--fault-budget N|unbounded]\n"
      "\n"
      "--symmetry merges states that differ only by a permutation of the\n"
      "scenario's declared interchangeable hosts (plus uid renumbering);\n"
      "forces --reduction none.\n"
      "\n"
      "fault injection (bounded environment faults, on top of whatever the\n"
      "scenario already enables):\n"
      "  --faults CLASSES       comma list of link,channel,restart,packet\n"
      "                         (or 'all'): enable those fault transition\n"
      "                         classes on the selected scenario\n"
      "  --fault-budget N       per-execution cap for every enabled class\n"
      "                         ('unbounded' removes the cap — searches may\n"
      "                         not terminate; that is your choice)\n"
      "\n"
      "observability (--telemetry; --progress/--tty imply it):\n"
      "  metric                 meaning\n"
      "  transitions_per_sec    expansion rate over the last interval\n"
      "  unique_per_sec         new canonical states per second\n"
      "  frontier               nodes currently queued for expansion\n"
      "  utilization            1 - idle fraction across bound workers\n"
      "  memo_*_hit_rate        footprint / discovery memo effectiveness\n"
      "  engine_bytes           engine-accounted resident bytes\n"
      "  peak_rss_bytes         OS-reported high-water mark\n"
      "  phase_*_ns             per-phase time (clone, apply, enabled,\n"
      "                         footprint, property_check, remember,\n"
      "                         checkpoint, idle, other)\n"
      "--progress streams NDJSON snapshots of those metrics; a resumed run\n"
      "appends and continues the sequence numbers. --trace-json/--trace-dot\n"
      "export the first violation's counterexample trace.\n"
      "\n"
      "Numeric values must be plain non-negative decimals (N: integer,\n"
      "SECS: integer or fraction); anything else exits with status 2.\n",
      argv0);
  return 2;
}

/// Strict unsigned parse: the whole token must be decimal digits whose
/// value lies in [lo, hi] — no sign, whitespace, trailing garbage or
/// overflow (strtoull alone accepts "-1" as 2^64-1 and "abc" as 0).
bool parse_uint(const char* v, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t& out) {
  if (v == nullptr || *v < '0' || *v > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || *end != '\0' || x < lo || x > hi) return false;
  out = x;
  return true;
}

/// Strict non-negative finite seconds ("0.5", "30", ".01").
bool parse_seconds(const char* v, double& out) {
  if (v == nullptr || !((*v >= '0' && *v <= '9') || *v == '.')) return false;
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0' || !std::isfinite(x)) {
    return false;
  }
  out = x;
  return true;
}

int bad_value(const char* argv0, std::string_view flag, const char* v) {
  std::fprintf(stderr, "invalid value '%s' for %.*s\n",
               v == nullptr ? "" : v, static_cast<int>(flag.size()),
               flag.data());
  return usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "pyswitch-bug1";
  std::string json_path;
  std::string trace_json_path;
  std::string trace_dot_path;
  std::string faults;
  bool have_fault_budget = false;
  std::uint32_t fault_budget = 0;
  mc::CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.checkpoint_interval_seconds = 30.0;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      for (const auto& ns : apps::bundled_scenarios()) {
        std::printf("%s\n", ns.name.c_str());
      }
      return 0;
    } else if (arg == "--scenario") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      scenario = v;
    } else if (arg == "--checkpoint") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.checkpoint_path = v;
    } else if (arg == "--interval") {
      const char* v = value();
      if (!parse_seconds(v, opt.checkpoint_interval_seconds)) {
        return bad_value(argv[0], arg, v);
      }
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--symmetry") {
      opt.symmetry = true;
    } else if (arg == "--handle-signals") {
      opt.handle_signals = true;
    } else if (arg == "--memory-budget") {
      const char* v = value();
      if (!parse_uint(v, 0, UINT64_MAX, opt.memory_budget_bytes)) {
        return bad_value(argv[0], arg, v);
      }
    } else if (arg == "--threads") {
      const char* v = value();
      std::uint64_t n = 0;
      if (!parse_uint(v, 1, 1024, n)) return bad_value(argv[0], arg, v);
      opt.threads = static_cast<unsigned>(n);
    } else if (arg == "--max-transitions") {
      const char* v = value();
      if (!parse_uint(v, 0, UINT64_MAX, opt.max_transitions)) {
        return bad_value(argv[0], arg, v);
      }
    } else if (arg == "--frontier") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "dfs") == 0) opt.frontier = mc::FrontierKind::kDfs;
      else if (std::strcmp(v, "bfs") == 0) opt.frontier = mc::FrontierKind::kBfs;
      else if (std::strcmp(v, "random") == 0) opt.frontier = mc::FrontierKind::kRandom;
      else return usage(argv[0]);
    } else if (arg == "--reduction") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "none") == 0) opt.reduction = mc::Reduction::kNone;
      else if (std::strcmp(v, "sleep") == 0) opt.reduction = mc::Reduction::kSleep;
      else return usage(argv[0]);
    } else if (arg == "--json") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      json_path = v;
    } else if (arg == "--telemetry") {
      opt.telemetry = true;
    } else if (arg == "--progress") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      opt.telemetry = true;
      opt.progress_path = v;
    } else if (arg == "--progress-interval") {
      const char* v = value();
      if (!parse_seconds(v, opt.progress_interval_seconds)) {
        return bad_value(argv[0], arg, v);
      }
    } else if (arg == "--tty") {
      opt.telemetry = true;
      opt.progress_tty = true;
    } else if (arg == "--trace-json") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      trace_json_path = v;
    } else if (arg == "--trace-dot") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      trace_dot_path = v;
    } else if (arg == "--faults") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      faults = v;
    } else if (arg == "--fault-budget") {
      const char* v = value();
      std::uint64_t n = mc::kUnboundedFaults;
      if (v == nullptr ||
          (std::strcmp(v, "unbounded") != 0 &&
           !parse_uint(v, 0, mc::kUnboundedFaults - 1, n))) {
        return bad_value(argv[0], arg, v);
      }
      have_fault_budget = true;
      fault_budget = static_cast<std::uint32_t>(n);
    } else if (arg == "--store") {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      if (std::strcmp(v, "hash") == 0) opt.state_store = util::ShardedSeenSet::Mode::kHash;
      else if (std::strcmp(v, "full") == 0) opt.state_store = util::ShardedSeenSet::Mode::kFullState;
      else if (std::strcmp(v, "collapsed") == 0) opt.state_store = util::ShardedSeenSet::Mode::kCollapsed;
      else return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  apps::Scenario s;
  bool found = false;
  for (const auto& ns : apps::bundled_scenarios()) {
    if (ns.name == scenario) {
      s = ns.make();
      found = true;
      break;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                 scenario.c_str());
    return 2;
  }

  if (!faults.empty()) {
    // Strict comma-separated parse: every token must name a known class
    // ('--faults chanel' used to be silently ignored as long as some
    // other token matched — a typo'd class is a misconfigured search).
    std::string rest = faults;
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string cls = rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      if (cls == "all") {
        s.config.enable_link_faults = true;
        s.config.enable_ctrl_channel_faults = true;
        s.config.enable_switch_restarts = true;
        s.config.enable_channel_faults = true;
      } else if (cls == "link") {
        s.config.enable_link_faults = true;
      } else if (cls == "channel") {
        s.config.enable_ctrl_channel_faults = true;
      } else if (cls == "restart") {
        s.config.enable_switch_restarts = true;
      } else if (cls == "packet") {
        s.config.enable_channel_faults = true;
      } else {
        std::fprintf(stderr,
                     "unknown fault class '%s' in '--faults %s' "
                     "(known: link, channel, restart, packet, all)\n",
                     cls.c_str(), faults.c_str());
        return 2;
      }
    }
  }
  if (have_fault_budget) {
    s.config.max_link_failures = fault_budget;
    s.config.max_channel_losses = fault_budget;
    s.config.max_switch_restarts = fault_budget;
    s.config.max_packet_faults = fault_budget;
  }

  mc::Checker checker(s.config, opt, s.properties);
  const mc::CheckerResult r = checker.run();
  if (!r.durability.resume_error.empty()) {
    std::fprintf(stderr, "resume failed, searched from scratch: %s\n",
                 r.durability.resume_error.c_str());
  }

  std::printf(
      "%s: transitions=%llu unique=%llu revisits=%llu quiescent=%llu "
      "violations=%zu exhausted=%d limit=%s resumed=%d checkpoints=%llu "
      "%.3fs\n",
      scenario.c_str(), static_cast<unsigned long long>(r.transitions),
      static_cast<unsigned long long>(r.unique_states),
      static_cast<unsigned long long>(r.revisits),
      static_cast<unsigned long long>(r.quiescent_states),
      r.violations.size(), static_cast<int>(r.exhausted),
      mc::limit_reason_name(r.hit_limit),
      static_cast<int>(r.durability.resumed),
      static_cast<unsigned long long>(r.durability.checkpoints_written),
      r.seconds);

  if (r.symmetry.enabled) {
    std::printf("symmetry: orbits=%u orbit_hosts=%u canonicalizations=%llu "
                "raw_revisits=%llu memo_reuses=%llu\n",
                r.symmetry.orbits, r.symmetry.orbit_hosts,
                static_cast<unsigned long long>(r.symmetry.canonicalizations),
                static_cast<unsigned long long>(r.symmetry.raw_revisits),
                static_cast<unsigned long long>(r.symmetry.memo_reuses));
  }

  if (r.telemetry.enabled) {
    std::printf("phases:");
    for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
      std::printf(" %s=%.3fs", util::phase_name(static_cast<util::Phase>(p)),
                  static_cast<double>(r.telemetry.phases[p].total_ns) / 1e9);
    }
    std::printf(" (workers=%llu wall=%.3fs snapshots=%llu)\n",
                static_cast<unsigned long long>(r.telemetry.workers),
                static_cast<double>(r.telemetry.wall_ns) / 1e9,
                static_cast<unsigned long long>(
                    r.telemetry.progress_snapshots));
    for (const std::string& line : r.telemetry.flight) {
      std::printf("flight: %s\n", line.c_str());
    }
  }

  if ((!trace_json_path.empty() || !trace_dot_path.empty()) &&
      !r.violations.empty()) {
    const mc::ViolationRecord& vr = r.violations.front();
    if (!trace_json_path.empty()) {
      std::FILE* f = std::fopen(trace_json_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", trace_json_path.c_str());
        return 2;
      }
      const std::string body = mc::violation_trace_json(
          vr.violation.property, vr.violation.message, vr.trace);
      std::fwrite(body.data(), 1, body.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
    if (!trace_dot_path.empty()) {
      std::FILE* f = std::fopen(trace_dot_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", trace_dot_path.c_str());
        return 2;
      }
      const std::string body = mc::violation_trace_dot(
          vr.violation.property, vr.violation.message, vr.trace);
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
    }
  }

  // JSON record (the stdout line above is for humans): lets the CI smoke
  // job diff interrupted-and-resumed totals against an uninterrupted run
  // field by field.
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"scenario\": \"%s\",\n", scenario.c_str());
    std::fprintf(f, "  \"transitions\": %llu,\n",
                 static_cast<unsigned long long>(r.transitions));
    std::fprintf(f, "  \"unique_states\": %llu,\n",
                 static_cast<unsigned long long>(r.unique_states));
    std::fprintf(f, "  \"revisits\": %llu,\n",
                 static_cast<unsigned long long>(r.revisits));
    std::fprintf(f, "  \"quiescent_states\": %llu,\n",
                 static_cast<unsigned long long>(r.quiescent_states));
    std::fprintf(f, "  \"violations\": %zu,\n", r.violations.size());
    std::fprintf(f, "  \"exhausted\": %s,\n", r.exhausted ? "true" : "false");
    std::fprintf(f, "  \"limit\": \"%s\",\n",
                 mc::limit_reason_name(r.hit_limit));
    std::fprintf(f, "  \"resumed\": %s,\n",
                 r.durability.resumed ? "true" : "false");
    std::fprintf(f, "  \"checkpoints_written\": %llu,\n",
                 static_cast<unsigned long long>(
                     r.durability.checkpoints_written));
    std::fprintf(f, "  \"checkpoint_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.durability.checkpoint_bytes));
    std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
                 static_cast<unsigned long long>(r.peak_rss_bytes));
    std::fprintf(f, "  \"symmetry\": {\"enabled\": %s, \"orbits\": %u, "
                 "\"orbit_hosts\": %u, \"canonicalizations\": %llu, "
                 "\"raw_revisits\": %llu, \"memo_reuses\": %llu},\n",
                 r.symmetry.enabled ? "true" : "false", r.symmetry.orbits,
                 r.symmetry.orbit_hosts,
                 static_cast<unsigned long long>(r.symmetry.canonicalizations),
                 static_cast<unsigned long long>(r.symmetry.raw_revisits),
                 static_cast<unsigned long long>(r.symmetry.memo_reuses));
    std::fprintf(f, "  \"telemetry\": {\n");
    std::fprintf(f, "    \"enabled\": %s,\n",
                 r.telemetry.enabled ? "true" : "false");
    std::fprintf(f, "    \"workers\": %llu,\n",
                 static_cast<unsigned long long>(r.telemetry.workers));
    std::fprintf(f, "    \"wall_ns\": %llu,\n",
                 static_cast<unsigned long long>(r.telemetry.wall_ns));
    std::fprintf(f, "    \"progress_snapshots\": %llu,\n",
                 static_cast<unsigned long long>(
                     r.telemetry.progress_snapshots));
    std::fprintf(f, "    \"phases\": {");
    for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
      std::fprintf(f, "%s\"%s\": %llu", p == 0 ? "" : ", ",
                   util::phase_name(static_cast<util::Phase>(p)),
                   static_cast<unsigned long long>(
                       r.telemetry.phases[p].total_ns));
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "    \"flight\": [");
    for (std::size_t i = 0; i < r.telemetry.flight.size(); ++i) {
      std::string esc;
      for (const char c : r.telemetry.flight[i]) {
        if (c == '"' || c == '\\') esc += '\\';
        esc += c;
      }
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", esc.c_str());
    }
    std::fprintf(f, "]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"seconds\": %.6f\n", r.seconds);
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  return 0;
}
