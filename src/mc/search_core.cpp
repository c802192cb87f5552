#include "mc/search_core.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <regex>
#include <string>
#include <utility>

#include "mc/checkpoint.h"
#include "util/resource.h"
#include "util/ser.h"

namespace nicemc::mc {

const char* limit_reason_name(LimitReason r) noexcept {
  switch (r) {
    case LimitReason::kNone: return "none";
    case LimitReason::kTransitions: return "transitions";
    case LimitReason::kUniqueStates: return "unique_states";
    case LimitReason::kTime: return "time";
    case LimitReason::kMemory: return "memory";
    case LimitReason::kInterrupted: return "interrupted";
  }
  return "?";
}

std::vector<std::string> violation_keys(const std::vector<Violation>& vs) {
  static const std::regex uid_re("uid=[0-9]+(\\.[0-9]+)?");
  std::vector<std::string> keys;
  keys.reserve(vs.size());
  for (const Violation& v : vs) {
    keys.push_back(v.property + "|" +
                   std::regex_replace(v.message, uid_re, "uid=#"));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> violation_keys(const CheckerResult& r) {
  std::vector<Violation> vs;
  vs.reserve(r.violations.size());
  for (const ViolationRecord& v : r.violations) vs.push_back(v.violation);
  return violation_keys(vs);
}

std::vector<std::string> violation_key_set(const CheckerResult& r) {
  std::vector<std::string> keys = violation_keys(r);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

namespace {

/// An arrival's sleep set as the seen-set takes it: the sorted,
/// duplicate-free hashes of the slept transitions.
std::vector<std::uint64_t> slept_hashes(const por::SleepSet& sleep) {
  std::vector<std::uint64_t> out;
  out.reserve(sleep.size());
  for (const por::SleepEntry& z : sleep) out.push_back(z.thash);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::string SearchCore::state_key(const SystemState& state) const {
  // Byte-keyed modes only (kFullState / kCollapsed).
  const bool canon = cfg_.canonical_flowtables;
  if (sym_ != nullptr) {
    // Symmetry mode: the store key is the canonical serialization of a
    // permuted/renamed/uid-renumbered image of the state, so symmetric
    // states merge. In kCollapsed mode the canonicalizer interns each
    // renamed component itself (the Snap-memoized form ids belong to the
    // *un*-renamed bytes and cannot be reused — the renaming is
    // per-state).
    return sym_->canonical_key(
                   state, seen_.mode() == util::ShardedSeenSet::Mode::kCollapsed
                              ? collapse_
                              : nullptr)
        .key;
  }
  if (seen_.mode() == util::ShardedSeenSet::Mode::kFullState) {
    // Serialize with each changed component's bytes + hash memoized in
    // one pass, assembling the blob in a per-thread buffer that has grown
    // to the workload's state size, so the key is one exact-size copy.
    // The blob itself is the store key, so collisions can never merge
    // states.
    thread_local util::Ser s;  // clear() keeps capacity across calls
    s.clear();
    state.serialize(s, canon);
    return std::string(s.view());
  }
  return state.collapse_key(*collapse_, canon);
}

util::ShardedSeenSet::Arrival SearchCore::arrive(
    const SystemState& state, std::span<const std::uint64_t> slept) const {
  const util::PhaseMarks ps(util::Phase::kRemember);
  if (seen_.mode() != util::ShardedSeenSet::Mode::kHash) {
    return seen_.arrive(state_key(state), slept);
  }
  if (sym_ != nullptr) {
    // Hash of the canonical symmetric image: the blob stays in the
    // canonicalizer's per-thread buffer, as hash mode keeps only hashes.
    return seen_.arrive(sym_->canonical_hash(state), slept);
  }
  // Combined from the per-component hashes memoized on the shared
  // snapshots: only components the transition touched are re-serialized
  // (and no component bytes are retained — hash mode is Section 6's
  // computation-for-memory trade).
  return seen_.arrive(state.hash(cfg_.canonical_flowtables), slept);
}

void SearchCore::fill_store_stats(CheckerResult& result) const {
  result.store_bytes = seen_.store_bytes();
  if (collapse_ != nullptr) {
    result.store_bytes += collapse_->interned_bytes();
    result.collapse.unique_blobs = collapse_->unique_blobs();
    result.collapse.interned_bytes = collapse_->interned_bytes();
    result.collapse.intern_calls = collapse_->intern_calls();
    result.collapse.dedupe_ratio = collapse_->dedupe_ratio();
  }
  if (fp_memo_ != nullptr) {
    const util::MemoCore::Stats s = fp_memo_->stats();
    result.memo.footprint_hits = s.hits;
    result.memo.footprint_misses = s.misses;
    result.memo.evictions += s.evictions;
    result.memo.bytes += s.bytes;
  }
  const util::MemoCore::Stats d = discovery_.table_stats();
  result.memo.discover_hits = d.hits;
  result.memo.discover_misses = d.misses;
  result.memo.evictions += d.evictions;
  result.memo.bytes += d.bytes;
}

namespace {

/// Human rendering of one flight-recorder entry. The per-worker rings
/// store compact payloads (no strings on the hot path); the transition
/// label is reconstructed here, at dump time, from (kind, actor, aux).
std::string render_flight_event(const util::FlightEvent& e) {
  char head[48];
  std::snprintf(head, sizeof head, "w%u +%.3fs ",
                static_cast<unsigned>(e.seq),
                static_cast<double>(e.t_ns) / 1e9);
  std::string out = head;
  switch (e.kind) {
    case util::FlightEvent::Kind::kExpand: {
      Transition t;
      t.kind = static_cast<TKind>(e.a);
      t.a = e.b;
      t.aux = e.c;
      out += "expand ";
      out += t.label();
      break;
    }
    case util::FlightEvent::Kind::kCheckpoint:
      out += "checkpoint ";
      if (e.detail != nullptr) {
        out += e.detail;
        out += ' ';
      }
      out += std::to_string(e.value) + "B";
      break;
    case util::FlightEvent::Kind::kWatchdog:
      out += "watchdog ";
      if (e.detail != nullptr) {
        out += e.detail;
        out += ' ';
      }
      out += "bytes=" + std::to_string(e.value);
      break;
    case util::FlightEvent::Kind::kSignal:
      out += "signal ";
      if (e.detail != nullptr) out += e.detail;
      break;
    case util::FlightEvent::Kind::kLimit:
      out += "halt ";
      if (e.detail != nullptr) out += e.detail;
      break;
  }
  return out;
}

}  // namespace

void SearchCore::fill_telemetry(CheckerResult& result) const {
  if (telem_ == nullptr) return;
  CheckerResult::TelemetryStats& t = result.telemetry;
  t.enabled = true;
  t.workers = telem_->workers();
  // Every driver has unbound its workers by now, so each slot's live
  // phase slice is closed and the profile sums to the wall time exactly.
  t.phases = telem_->merged_phases();
  t.wall_ns = 0;
  for (std::size_t i = 0; i < telem_->workers(); ++i) {
    t.wall_ns += telem_->worker(i).wall_ns();
  }
  if (result.hit_limit != LimitReason::kNone) {
    const std::vector<util::FlightEvent> events = telem_->merged_flight();
    t.flight.reserve(events.size());
    for (const util::FlightEvent& e : events) {
      t.flight.push_back(render_flight_event(e));
    }
  }
}

void SearchCore::finish_stats(CheckerResult& result, Durability* dur) const {
  fill_store_stats(result);
  if (sym_ != nullptr) {
    result.symmetry.enabled = true;
    result.symmetry.orbits = sym_->orbit_count();
    result.symmetry.orbit_hosts = sym_->orbit_host_count();
    result.symmetry.canonicalizations = sym_->canonicalizations();
    result.symmetry.component_serializations =
        sym_->component_serializations();
    result.symmetry.raw_revisits = sym_->raw_revisits();
    result.symmetry.memo_reuses = sym_->memo_reuses();
  }
  if (dur != nullptr) dur->fill(result);
  fill_telemetry(result);
  result.peak_rss_bytes = util::peak_rss_bytes();
}

void SearchCore::publish_gauges(std::uint64_t frontier_nodes) const {
  if (telem_ == nullptr) return;
  telem_->frontier.store(frontier_nodes, std::memory_order_relaxed);
  telem_->engine_bytes.store(resident_bytes(frontier_nodes),
                             std::memory_order_relaxed);
  if (fp_memo_ != nullptr) {
    const util::MemoCore::Stats s = fp_memo_->stats();
    telem_->memo_fp_hits.store(s.hits, std::memory_order_relaxed);
    telem_->memo_fp_misses.store(s.misses, std::memory_order_relaxed);
  }
  const util::MemoCore::Stats d = discovery_.table_stats();
  telem_->memo_disc_hits.store(d.hits, std::memory_order_relaxed);
  telem_->memo_disc_misses.store(d.misses, std::memory_order_relaxed);
}

void SearchCore::check_quiescence(SystemState& state,
                                  const std::shared_ptr<const PathNode>& path,
                                  std::vector<ViolationRecord>& out) const {
  std::vector<Violation> vs;
  executor_.at_quiescence(state, vs);
  if (vs.empty()) return;
  const auto trace = trace_of(path);
  for (Violation& v : vs) out.push_back(ViolationRecord{std::move(v), trace});
}

std::vector<SearchNode> SearchCore::init(CheckerResult& result) const {
  // Build the shared initial state exactly once (the seed cloned it twice:
  // make_initial → local → clone into the shared_ptr).
  auto initial_sp =
      std::make_shared<const SystemState>(executor_.make_initial());
  // The root arrives with an empty sleep set, so later re-arrivals at the
  // initial state are pure revisits under reduction too.
  remember(*initial_sp);
  result.unique_states = 1;

  std::vector<SearchNode> roots;
  auto ts = apply_strategy(options_.strategy, cfg_, *initial_sp,
                           executor_.enabled(*initial_sp, discovery_));
  if (ts.empty()) {
    ++result.quiescent_states;
    // COW clone: O(#components) pointer copies. Monitors may mutate their
    // local state in at_quiescence, which must not leak into the published
    // initial state.
    SystemState tmp = initial_sp->clone();
    check_quiescence(tmp, nullptr, result.violations);
    return roots;
  }
  if (reduce_) {
    make_reduced_children(initial_sp, nullptr, 1, std::move(ts), {}, nullptr,
                          roots);
    return roots;
  }
  roots.reserve(ts.size());
  for (Transition& t : ts) {
    roots.push_back(SearchNode{initial_sp, std::move(t), nullptr, 1, {}});
  }
  return roots;
}

namespace {

/// The trace node of the state `node` reaches. Made only for a state that
/// is kept or reported: most arrivals are revisits and need none.
std::shared_ptr<const PathNode> path_to(const SearchNode& node) {
  return std::make_shared<const PathNode>(
      PathNode{node.path, node.transition});
}

}  // namespace

SearchCore::Expansion SearchCore::expand(const SearchNode& node) const {
  Expansion out;

  // Sibling stages, one clock read per boundary; the executor's and the
  // store's own scopes find their phase already running and read none.
  util::PhaseMarks phases;
  phases.mark(util::Phase::kClone);
  SystemState next = node.state->clone();
  phases.mark(util::Phase::kApply);
  std::vector<Violation> violations;
  executor_.apply(next, node.transition, violations);

  if (!violations.empty()) {
    phases.mark(util::Phase::kOther);
    out.transition_violated = true;
    const auto trace = trace_of(path_to(node));
    out.violations.reserve(violations.size());
    for (Violation& v : violations) {
      out.violations.push_back(ViolationRecord{std::move(v), trace});
    }
    return out;  // do not remember or expand beyond an erroneous state
  }

  phases.mark(util::Phase::kRemember);
  if (reduce_) {
    expand_reduced(out, std::move(next), node, phases);
    return out;
  }

  if (!remember(next)) return out;  // revisit
  out.new_state = true;

  if (node.depth >= options_.max_depth) return out;

  phases.mark(util::Phase::kEnabled);
  std::vector<Transition> enabled = executor_.enabled(next, discovery_);
  phases.mark(util::Phase::kOther);
  const auto path = path_to(node);
  auto ts = apply_strategy(options_.strategy, cfg_, next, std::move(enabled));
  if (ts.empty()) {
    out.quiescent = true;
    check_quiescence(next, path, out.violations);
    return out;
  }

  auto next_sp = std::make_shared<const SystemState>(std::move(next));
  out.children.reserve(ts.size());
  for (Transition& t : ts) {
    out.children.push_back(
        SearchNode{next_sp, std::move(t), path, node.depth + 1, {}});
  }
  return out;
}

void SearchCore::expand_reduced(Expansion& out, SystemState&& next,
                                const SearchNode& node,
                                util::PhaseMarks& phases) const {
  const util::ShardedSeenSet::Arrival at =
      arrive(next, slept_hashes(node.sleep));
  out.new_state = at.first;

  if (!at.first && at.explore.empty()) return;  // pure revisit
  if (node.depth >= options_.max_depth) return;

  phases.mark(util::Phase::kEnabled);
  std::vector<Transition> enabled = executor_.enabled(next, discovery_);
  phases.mark(util::Phase::kOther);
  const auto path = path_to(node);
  auto ts = apply_strategy(options_.strategy, cfg_, next, std::move(enabled));
  if (ts.empty()) {
    // Quiescence is a state predicate on the strategy-filtered enabled
    // set, never affected by sleep filtering; check it once (first
    // arrival), exactly like the unreduced search.
    if (at.first) {
      out.quiescent = true;
      check_quiescence(next, path, out.violations);
    }
    return;
  }

  auto next_sp = std::make_shared<const SystemState>(std::move(next));
  make_reduced_children(next_sp, path, node.depth + 1, std::move(ts),
                        node.sleep, at.first ? nullptr : &at.explore,
                        out.children);
}

void SearchCore::make_reduced_children(
    const std::shared_ptr<const SystemState>& sp,
    const std::shared_ptr<const PathNode>& path, std::size_t depth,
    std::vector<Transition>&& ts, const por::SleepSet& arrival_sleep,
    const std::vector<std::uint64_t>* explore_only,
    std::vector<SearchNode>& out) const {
  std::vector<std::uint64_t> th(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    th[i] = por::transition_hash(ts[i]);
  }
  const auto slept = [&arrival_sleep](std::uint64_t x) {
    for (const por::SleepEntry& z : arrival_sleep) {
      if (z.thash == x) return true;
    }
    return false;
  };

  // First arrival: everything outside the arrival sleep set. Revisit:
  // exactly the transitions every earlier arrival slept but this one does
  // not (intersected with the enabled set — stored entries can reference
  // inherited sleep members not enabled here; those need no exploration).
  std::vector<std::size_t> sel;
  sel.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (explore_only != nullptr) {
      if (std::find(explore_only->begin(), explore_only->end(), th[i]) !=
          explore_only->end()) {
        sel.push_back(i);
      }
    } else if (!slept(th[i])) {
      sel.push_back(i);
    }
  }
  if (sel.empty()) return;

  std::vector<por::Footprint> fps(ts.size());
  {
    // One scope around the whole batch, not one per call: at ~200ns of
    // total telemetry budget per transition, per-footprint boundaries
    // would cost more than they attribute.
    const util::PhaseMarks ps(util::Phase::kFootprint);
    for (const std::size_t i : sel) {
      fps[i] = footprint_of(*sp, ts[i]);
    }
  }

  out.reserve(out.size() + sel.size());
  for (std::size_t k = 0; k < sel.size(); ++k) {
    const std::size_t i = sel[k];
    por::SleepSet child;
    // Inherit arrival-sleep entries still independent of this transition.
    for (const por::SleepEntry& z : arrival_sleep) {
      if (!por::may_conflict(z.fp, fps[i], packet_keys_)) child.push_back(z);
    }
    // Earlier-expanded independent siblings go to sleep: exploring them
    // after `ts[i]` would only commute into states the sibling-first
    // order already reaches.
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t pj = sel[j];
      if (!por::may_conflict(fps[pj], fps[i], packet_keys_)) {
        child.push_back(por::SleepEntry{th[pj], fps[pj]});
      }
    }
    out.push_back(
        SearchNode{sp, std::move(ts[i]), path, depth, std::move(child)});
  }
}

}  // namespace nicemc::mc
