// bench_nice: the checker's benchmark program. One process = one measured
// unit, so peak RSS and CPU time belong to exactly one search:
//
//   bench_nice describe
//       every workload's construction, options, pinned counts and
//       initial-state hash, as one JSON line (run.py fingerprints these);
//   bench_nice run <workload> [--threads N] [--reduction none]
//                  [--telemetry] [--setup-samples K]
//       time K scenario+Checker constructions, then one Checker::run()
//       from outside; gate the result against the pinned counts and print
//       one JSON line;
//   bench_nice replay <workload> [--probes]
//       the traced run: an explicit-stack DFS with kNone semantics that
//       calls the checker's public per-layer functions inside steady_clock
//       spans; --probes adds probes of the key layers the workload does
//       not use.
//
// Exhaustive DFS is deterministic, so every count below is pinned: a run
// that does not reproduce them is a failed run, never a measurement.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/por/footprint.h"
#include "mc/sym_reduce.h"
#include "util/collapse.h"
#include "util/resource.h"
#include "util/seen_set.h"
#include "util/telemetry.h"

using namespace nicemc;

namespace {

using Clock = std::chrono::steady_clock;
using Mode = util::ShardedSeenSet::Mode;

struct Pins {
  std::uint64_t transitions{0};
  std::uint64_t unique{0};
  std::uint64_t quiescent{0};
  std::vector<std::string> keys;  // mc::violation_key_set
};

struct Workload {
  std::string name;
  /// What `make` builds, stated once here and hashed into the fingerprint.
  std::string construction;
  std::function<apps::Scenario()> make;
  mc::CheckerOptions options;
  Pins pins;       // counts of `options` at 1 thread
  Pins none_pins;  // counts under Reduction::kNone (the replay's reference)
};

const std::string kTeRoutingKey =
    "UseCorrectRoutingTable|handler for pkt{00:aa:00:00:00:0a->"
    "00:aa:00:00:00:21 type=0x0800 10.0.0.1->10.0.2.1 proto=6 tp=1024:80 "
    "flags=0x02 flow=1 uid=#} installed rules on switches {0 1 2 } but the "
    "load-appropriate path is {0 1 }";
const std::string kTeStaleKey =
    "NoStaleRules|switch 0 rule rule{pri=100 match{type=0x0800 "
    "nw_src=10.0.0.1/32 nw_dst=10.0.2.1/32 proto=6 tp_src=1024 tp_dst=80} -> "
    "[output(2)]} still forwards out failed port 2";

mc::CheckerOptions exhaustive() {
  mc::CheckerOptions o;
  o.stop_at_first_violation = false;
  o.time_limit_seconds = 60.0;  // a run at the cap fails the gate
  return o;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "pyswitch-ping4";
    w.construction = "pyswitch_ping_chain(4)";
    w.make = [] { return apps::pyswitch_ping_chain(4); };
    w.options = exhaustive();
    w.pins = {1003059, 375329, 107, {}};
    w.none_pins = w.pins;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "lb-sym7";
    w.construction = "lb_sym_scenario(7)";
    w.make = [] { return apps::lb_sym_scenario(7); };
    w.options = exhaustive();
    w.options.symmetry = true;
    w.pins = {65571, 16665, 8, {}};
    w.none_pins = w.pins;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "te-faults-por";
    w.construction =
        "te_scenario{fix_release_packet,fix_handle_intermediate,"
        "stats_rounds=2,check_routing_table}+faults{link=1,ctrl_channel=1,"
        "restart=1}";
    w.make = [] {
      apps::TeScenarioOptions o;
      o.fix_release_packet = true;
      o.fix_handle_intermediate = true;
      o.stats_rounds = 2;
      o.check_routing_table = true;
      apps::Scenario s = apps::te_scenario(o);
      s.config.enable_link_faults = true;
      s.config.enable_ctrl_channel_faults = true;
      s.config.enable_switch_restarts = true;
      s.config.max_link_failures = 1;
      s.config.max_channel_losses = 1;
      s.config.max_switch_restarts = 1;
      return s;
    };
    w.options = exhaustive();
    w.options.reduction = mc::Reduction::kSleep;
    w.options.state_store = Mode::kCollapsed;
    w.pins = {447511, 133117, 40, {kTeRoutingKey}};
    w.none_pins = {707660, 133117, 40, {kTeRoutingKey}};
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "te-allfaults-par4";
    w.construction =
        "te_linkfail(react=true)+faults{link=1,ctrl_channel=1,restart=1,"
        "packet=1}";
    w.make = [] {
      apps::Scenario s = apps::te_linkfail(true);
      s.config.enable_ctrl_channel_faults = true;
      s.config.enable_switch_restarts = true;
      s.config.enable_channel_faults = true;
      s.config.max_link_failures = 1;
      s.config.max_channel_losses = 1;
      s.config.max_switch_restarts = 1;
      s.config.max_packet_faults = 1;
      return s;
    };
    w.options = exhaustive();
    w.options.threads = 4;
    w.pins = {2194507, 520258, 1699, {kTeStaleKey}};
    w.none_pins = w.pins;
    out.push_back(std::move(w));
  }
  return out;
}

// --- JSON output ------------------------------------------------------------

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

/// Comma-joined `"key": value` members of one JSON object.
class Obj {
 public:
  Obj& add(std::string_view key, const std::string& raw) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + raw;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string str_list(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ", ";
    out += quote(xs[i]);
  }
  return out + "]";
}

std::string pins_json(const Pins& p) {
  return Obj()
      .add("transitions", num(p.transitions))
      .add("unique", num(p.unique))
      .add("quiescent", num(p.quiescent))
      .add("keys", str_list(p.keys))
      .str();
}

const char* store_name(Mode m) {
  switch (m) {
    case Mode::kHash: return "hash";
    case Mode::kFullState: return "full_state";
    case Mode::kCollapsed: return "collapsed";
  }
  return "?";
}

std::string options_json(const mc::CheckerOptions& o) {
  return Obj()
      .add("strategy", quote(mc::strategy_name(o.strategy)))
      .add("frontier", num(static_cast<std::uint64_t>(o.frontier)))
      .add("store", quote(store_name(o.state_store)))
      .add("reduction", quote(mc::reduction_name(o.reduction)))
      .add("symmetry", o.symmetry ? "true" : "false")
      .add("threads", num(std::uint64_t{o.threads}))
      .add("memo", o.memo ? "true" : "false")
      .add("max_depth", num(std::uint64_t{o.max_depth}))
      .add("stop_at_first_violation",
           o.stop_at_first_violation ? "true" : "false")
      .add("time_limit_seconds", num(o.time_limit_seconds))
      .str();
}

std::string hex128(const util::Hash128& h) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return buf;
}

// --- helpers -----------------------------------------------------------------

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set of this process image in MiB: VmHWM, which exec
/// resets. getrusage's ru_maxrss survives fork and exec, so under a large
/// parent (the Python runner) it reports the parent's footprint instead.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kb = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kb) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kb) / 1024.0;
  }
  return static_cast<double>(util::peak_rss_bytes()) / 1048576.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
             1e6;
}

std::vector<std::string> key_set(const std::vector<mc::Violation>& vs) {
  std::vector<std::string> keys = mc::violation_keys(vs);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Empty when the counts match; otherwise why they do not.
std::string gate(const Pins& want, bool exhausted, std::uint64_t transitions,
                 std::uint64_t unique, std::uint64_t quiescent,
                 const std::vector<std::string>& keys, bool counts) {
  if (!exhausted) return "not exhausted";
  if (keys != want.keys) return "violation keys differ from the pins";
  if (!counts) return "";
  if (transitions != want.transitions || unique != want.unique ||
      quiescent != want.quiescent) {
    return "counts " + std::to_string(transitions) + "/" +
           std::to_string(unique) + "/" + std::to_string(quiescent) +
           " differ from pinned " + std::to_string(want.transitions) + "/" +
           std::to_string(want.unique) + "/" +
           std::to_string(want.quiescent);
  }
  return "";
}

const Workload* find_workload(const std::vector<Workload>& ws,
                              std::string_view name) {
  for (const Workload& w : ws) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// --- describe ------------------------------------------------------------------

int describe(const std::vector<Workload>& ws) {
  std::string out = "[";
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const Workload& w = ws[i];
    const apps::Scenario s = w.make();
    const mc::Executor ex(s.config, s.properties);
    const util::Hash128 h =
        ex.make_initial().hash(s.config.canonical_flowtables);
    if (i != 0) out += ", ";
    out += Obj()
               .add("name", quote(w.name))
               .add("construction", quote(w.construction))
               .add("options", options_json(w.options))
               .add("initial_state_hash", quote(hex128(h)))
               .add("pins", pins_json(w.pins))
               .add("none_pins", pins_json(w.none_pins))
               .str();
  }
  std::printf("%s]\n", out.c_str());
  return 0;
}

// --- run -------------------------------------------------------------------------

struct RunArgs {
  unsigned threads{0};  // 0 = the workload's own
  bool reduction_none{false};
  bool telemetry{false};
  int setup_samples{31};
};

int run(const Workload& w, const RunArgs& a) {
  mc::CheckerOptions opt = w.options;
  if (a.threads != 0) opt.threads = a.threads;
  if (a.reduction_none) opt.reduction = mc::Reduction::kNone;
  opt.telemetry = a.telemetry;

  // Set-up = scenario factory + Checker construction (orbit validation
  // included); destruction is outside the timed interval.
  std::vector<double> setups;
  for (int i = 0; i < a.setup_samples; ++i) {
    const auto t0 = Clock::now();
    auto s = std::make_unique<apps::Scenario>(w.make());
    auto c = std::make_unique<mc::Checker>(s->config, opt, s->properties);
    setups.push_back(seconds(t0, Clock::now()));
    c.reset();
    s.reset();
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups.empty() ? 0.0 : setups[setups.size() / 2];

  const apps::Scenario s = w.make();
  mc::Checker checker(s.config, opt, s.properties);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const mc::CheckerResult r = checker.run();
  const double wall = seconds(t0, Clock::now());
  const double cpu = cpu_seconds() - cpu0;

  const bool reduced = opt.reduction != mc::Reduction::kNone && !opt.symmetry;
  const Pins& want = reduced ? w.pins : w.none_pins;
  // Symmetric search is order-dependent on more than one thread: only
  // exhaustion and the violation set are fixed there.
  const bool counts = !(opt.symmetry && opt.threads > 1);
  const std::vector<std::string> keys = mc::violation_key_set(r);
  const std::string why =
      r.hit_limit != mc::LimitReason::kNone
          ? std::string("hit limit: ") + mc::limit_reason_name(r.hit_limit)
          : gate(want, r.exhausted, r.transitions, r.unique_states,
                 r.quiescent_states, keys, counts);

  Obj phases;
  if (r.telemetry.enabled) {
    for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
      phases.add(util::phase_name(static_cast<util::Phase>(p)),
                 num(r.telemetry.phases[p].total_ns));
    }
  }
  const std::string line =
      Obj()
          .add("workload", quote(w.name))
          .add("options", options_json(opt))
          .add("ok", why.empty() ? "true" : "false")
          .add("why", quote(why))
          .add("wall_s", num(wall))
          .add("cpu_s", num(cpu))
          .add("peak_rss_mb", num(peak_rss_mb()))
          .add("setup_s", num(setup_s))
          .add("setup_samples", num(std::uint64_t(setups.size())))
          .add("transitions", num(r.transitions))
          .add("unique", num(r.unique_states))
          .add("revisits", num(r.revisits))
          .add("quiescent", num(r.quiescent_states))
          .add("keys", str_list(keys))
          .add("store_bytes", num(r.store_bytes))
          .add("handler_runs", num(r.discovery.handler_runs))
          .add("solver_queries", num(r.discovery.solver_queries))
          .add("telemetry_wall_ns", num(r.telemetry.wall_ns))
          .add("phases_ns", phases.str())
          .str();
  std::printf("%s\n", line.c_str());
  return 0;
}

// --- replay ---------------------------------------------------------------------

struct Span {
  std::uint64_t count{0};
  std::uint64_t ns{0};
};

/// Adds the lifetime of the scope to one span.
class Timed {
 public:
  explicit Timed(Span& s) : s_(s), t0_(Clock::now()) {}
  ~Timed() {
    s_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
    ++s_.count;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span& s_;
  Clock::time_point t0_;
};

// Span slots. The key-path layers (hash, collapse_key, canonical_key,
// footprint) are on the search path when the workload's options use them.
// The others are probes, called on new states after the path so the
// metric exists on every workload; a probe replay is separate from the
// path replay because probes evict the path's working set from the caches.
enum Slot : std::size_t {
  kClone,
  kEnabled,
  kEnabledDiscover,  // enabled() calls during which handler_runs moved
  kStrategy,
  kQuiescence,
  kHash,
  kCollapseKey,
  kCanonicalKey,
  kInsert,
  kFootprint,
  kSlotCount,
};
constexpr std::array<const char*, kSlotCount> kSlotNames = {
    "state.clone",         "executor.enabled",  "executor.enabled_discover",
    "strategy.filter",     "executor.quiescence", "state.hash",
    "collapse.key",        "sym.canonical_key", "seen.insert",
    "por.footprint"};
constexpr std::size_t kKinds = 32;

int replay(const Workload& w, bool probe) {
  const apps::Scenario s = w.make();
  const mc::SystemConfig& cfg = s.config;
  const mc::CheckerOptions& opt = w.options;
  const bool canon = cfg.canonical_flowtables;
  const Mode mode = opt.state_store;
  if (mode == Mode::kFullState) {
    std::fprintf(stderr, "replay: kFullState is not a benchmark store\n");
    return 2;
  }
  const bool collapsed = mode == Mode::kCollapsed;
  const bool por_path = opt.reduction != mc::Reduction::kNone && !opt.symmetry;

  const mc::Executor ex(cfg, s.properties);
  mc::DiscoveryCache cache;
  util::ShardedSeenSet seen(mode, 1);
  // The path's interning table in kCollapsed mode, the probe's otherwise.
  util::CollapseTable table(1);
  const mc::SymContext sym(cfg);
  // Keyed like the Checker's memo: interned ids in kCollapsed mode,
  // memoized component hashes otherwise.
  mc::por::FootprintMemo fp(cfg, collapsed ? &table : nullptr, 1,
                            std::uint64_t{32} << 20);

  std::array<Span, kSlotCount> spans{};
  std::array<Span, kKinds> apply{};
  std::vector<std::string> probes;
  if (probe) {
    probes.push_back(kSlotNames[opt.symmetry ? kHash : kCanonicalKey]);
    if (!collapsed) probes.push_back(kSlotNames[kCollapseKey]);
    if (!por_path) probes.push_back(kSlotNames[kFootprint]);
  }
  const bool footprint = por_path || probe;
  std::uint64_t new_states = 0;

  // SearchCore::remember's key path for the workload's store and symmetry
  // mode, then the probes of the other key layers on new states.
  const auto remember = [&](const mc::SystemState& st) {
    bool fresh = false;
    if (opt.symmetry) {
      mc::SymKey k;
      {
        const Timed t(spans[kCanonicalKey]);
        k = sym.canonical_key(st, collapsed ? &table : nullptr);
      }
      const Timed t(spans[kInsert]);
      fresh = collapsed ? seen.insert_key(std::move(k.key))
                        : seen.insert(k.hash);
    } else if (collapsed) {
      std::string key;
      {
        const Timed t(spans[kCollapseKey]);
        key = st.collapse_key(table, canon);
      }
      {
        const Timed t(spans[kHash]);
        (void)st.hash(canon);
      }
      const Timed t(spans[kInsert]);
      fresh = seen.insert_key(std::move(key));
    } else {
      util::Hash128 h;
      {
        const Timed t(spans[kHash]);
        h = st.hash(canon);
      }
      const Timed t(spans[kInsert]);
      fresh = seen.insert(h);
    }
    if (!fresh || !probe) return fresh;
    if (opt.symmetry) {
      const Timed t(spans[kHash]);
      (void)st.hash(canon);
    } else if (++new_states % 4 == 0) {
      // canonical_key memoizes nothing, so a sample of the new states
      // measures its per-call cost without bias at a quarter of the time.
      const Timed t(spans[kCanonicalKey]);
      (void)sym.canonical_key(st, nullptr);
    }
    if (!collapsed) {
      const Timed t(spans[kCollapseKey]);
      (void)st.collapse_key(table, canon);
    }
    return true;
  };

  const auto enabled = [&](const mc::SystemState& st) {
    const std::uint64_t runs = cache.stats().handler_runs;
    const auto t0 = Clock::now();
    std::vector<mc::Transition> ts = ex.enabled(st, cache);
    Span& sp = cache.stats().handler_runs != runs ? spans[kEnabledDiscover]
                                                  : spans[kEnabled];
    sp.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    ++sp.count;
    const Timed t(spans[kStrategy]);
    return mc::apply_strategy(opt.strategy, cfg, st, std::move(ts));
  };

  const auto footprints = [&](const mc::SystemState& st,
                              const std::vector<mc::Transition>& ts) {
    if (!footprint) return;
    for (const mc::Transition& t : ts) {
      const Timed timed(spans[kFootprint]);
      (void)fp.get(st, t);
    }
  };

  struct Entry {
    std::shared_ptr<const mc::SystemState> state;
    mc::Transition transition;
    std::size_t depth;
  };
  std::uint64_t transitions = 0;
  std::uint64_t unique = 1;
  std::uint64_t revisits = 0;
  std::uint64_t quiescent = 0;
  std::vector<mc::Violation> violations;
  std::vector<Entry> stack;

  const auto t_start = Clock::now();
  auto initial = std::make_shared<const mc::SystemState>(ex.make_initial());
  remember(*initial);
  {
    std::vector<mc::Transition> ts = enabled(*initial);
    if (ts.empty()) {
      ++quiescent;
      mc::SystemState tmp = initial->clone();
      const Timed t(spans[kQuiescence]);
      ex.at_quiescence(tmp, violations);
    } else {
      footprints(*initial, ts);
    }
    for (mc::Transition& t : ts) stack.push_back({initial, std::move(t), 1});
  }

  std::vector<mc::Violation> vs;
  while (!stack.empty()) {
    Entry e = std::move(stack.back());
    stack.pop_back();
    mc::SystemState next;
    {
      const Timed t(spans[kClone]);
      next = e.state->clone();
    }
    vs.clear();
    {
      const Timed t(apply[static_cast<std::size_t>(e.transition.kind) %
                          kKinds]);
      ex.apply(next, e.transition, vs);
    }
    ++transitions;
    if (!vs.empty()) {
      violations.insert(violations.end(), vs.begin(), vs.end());
      continue;
    }
    if (!remember(next)) {
      ++revisits;
      continue;
    }
    ++unique;
    if (e.depth >= opt.max_depth) continue;
    std::vector<mc::Transition> ts = enabled(next);
    if (ts.empty()) {
      ++quiescent;
      const Timed t(spans[kQuiescence]);
      ex.at_quiescence(next, violations);
      continue;
    }
    footprints(next, ts);
    auto sp = std::make_shared<const mc::SystemState>(std::move(next));
    for (mc::Transition& t : ts) {
      stack.push_back({sp, std::move(t), e.depth + 1});
    }
  }
  const double wall = seconds(t_start, Clock::now());

  const std::vector<std::string> keys = key_set(violations);
  const std::string why = gate(w.none_pins, true, transitions, unique,
                               quiescent, keys, true);

  Obj span_json;
  for (std::size_t i = 0; i < kSlotCount; ++i) {
    span_json.add(kSlotNames[i], Obj()
                                     .add("count", num(spans[i].count))
                                     .add("ns", num(spans[i].ns))
                                     .str());
  }
  for (std::size_t k = 0; k < kKinds; ++k) {
    if (apply[k].count == 0) continue;
    span_json.add(
        std::string("executor.apply.") +
            mc::tkind_name(static_cast<mc::TKind>(k)),
        Obj().add("count", num(apply[k].count)).add("ns", num(apply[k].ns))
            .str());
  }
  const util::MemoCore::Stats fs = fp.stats();
  std::uint64_t store_bytes = seen.store_bytes();
  if (collapsed) store_bytes += table.interned_bytes();
  const std::string line =
      Obj()
          .add("workload", quote(w.name))
          .add("ok", why.empty() ? "true" : "false")
          .add("why", quote(why))
          .add("wall_s", num(wall))
          .add("transitions", num(transitions))
          .add("unique", num(unique))
          .add("revisits", num(revisits))
          .add("quiescent", num(quiescent))
          .add("keys", str_list(keys))
          .add("spans", span_json.str())
          .add("probes", str_list(probes))
          .add("handler_runs", num(cache.stats().handler_runs))
          .add("solver_queries", num(cache.stats().solver_queries))
          .add("footprint_hits", num(fs.hits))
          .add("footprint_misses", num(fs.misses))
          .add("collapse_dedupe_ratio", num(table.dedupe_ratio()))
          .add("store_bytes", num(store_bytes))
          .str();
  std::printf("%s\n", line.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_nice describe\n"
               "       bench_nice run <workload> [--threads N] "
               "[--reduction none] [--telemetry] [--setup-samples K]\n"
               "       bench_nice replay <workload> [--probes]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Workload> ws = workloads();
  if (argc < 2) return usage();
  const std::string_view cmd = argv[1];
  if (cmd == "describe") return describe(ws);
  if (argc < 3) return usage();
  const Workload* w = find_workload(ws, argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", argv[2]);
    return 2;
  }
  if (cmd == "replay") {
    if (argc > 4 || (argc == 4 && std::string_view(argv[3]) != "--probes")) {
      return usage();
    }
    return replay(*w, argc == 4);
  }
  if (cmd != "run") return usage();

  RunArgs a;
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--threads" && has_value) {
      const int t = std::atoi(argv[++i]);
      if (t < 1 || t > 64) return usage();
      a.threads = static_cast<unsigned>(t);
    } else if (arg == "--reduction" && has_value &&
               std::string_view(argv[i + 1]) == "none") {
      ++i;
      a.reduction_none = true;
    } else if (arg == "--telemetry") {
      a.telemetry = true;
    } else if (arg == "--setup-samples" && has_value) {
      a.setup_samples = std::atoi(argv[++i]);
      if (a.setup_samples < 0 || a.setup_samples > 100000) return usage();
    } else {
      return usage();
    }
  }
  return run(*w, a);
}
