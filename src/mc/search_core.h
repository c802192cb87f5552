// The search engine core shared by every exploration mode.
//
// SearchCore factors the per-transition expand step of the model checker —
// clone → apply → check properties → remember in the seen-set → enumerate
// successors — out of the search loop, so the same semantics drive the two
// drivers of mc/parallel.h:
//   * the exhaustive search: one worker on the caller's thread over any
//     pluggable Frontier (DFS order is bit-for-bit the original recursive
//     checker), or N workers with private DFS stacks over one shared
//     handoff deque;
//   * the random-walk simulator (one thread or a portfolio).
//
// The explored-state store is a util::ShardedSeenSet, lock-striped so
// parallel workers can insert concurrently; with one worker the locks are
// uncontended and the counts are identical to a plain set.
// Under partial-order reduction the same table holds each state's slept
// record, so one arrival is one lookup.
#ifndef NICE_MC_SEARCH_CORE_H
#define NICE_MC_SEARCH_CORE_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mc/discover.h"
#include "mc/execute.h"
#include "mc/frontier.h"
#include "mc/por/reduction.h"
#include "mc/property.h"
#include "mc/strategy.h"
#include "mc/sym_reduce.h"
#include "mc/system.h"
#include "mc/trace.h"
#include "util/collapse.h"
#include "util/seen_set.h"
#include "util/telemetry.h"

namespace nicemc::mc {

namespace detail {

using SearchClock = std::chrono::steady_clock;

inline double seconds_since(SearchClock::time_point start) {
  return std::chrono::duration<double>(SearchClock::now() - start).count();
}

/// Interrupt/watchdog polls, checkpoint-due checks, and telemetry gauge
/// publication run every kPollStride expansions of each worker — cheap
/// enough to never show up in profiles, frequent enough that a signal
/// halts promptly.
inline constexpr std::uint64_t kPollStride = 32;

}  // namespace detail

struct CheckerOptions {
  Strategy strategy{Strategy::kPktSeqOnly};
  std::uint64_t max_transitions{~0ULL};
  std::uint64_t max_unique_states{~0ULL};
  std::size_t max_depth{100000};
  bool stop_at_first_violation{true};
  /// Explored-state store representation (see ARCHITECTURE.md, "State
  /// storage"):
  ///   * kHash (default) — 16 bytes per state; Section 6's computation-
  ///     for-memory trade, with a vanishingly small but nonzero chance of
  ///     merging distinct states;
  ///   * kFullState — the canonical serialized state per entry: the
  ///     collision-proof SPIN-like ground truth, at full blob cost;
  ///   * kCollapsed — COLLAPSE-style component interning: each distinct
  ///     component blob is stored once in a shared util::CollapseTable
  ///     and states are keyed by their packed component-id tuple —
  ///     collision-proof like kFullState at a fraction of the bytes.
  util::ShardedSeenSet::Mode state_store{util::ShardedSeenSet::Mode::kHash};
  /// Exploration order of a one-worker search (threads == 1). kDfs
  /// reproduces the original checker exactly; kBfs finds shortest
  /// counterexamples first; kRandom is a seeded random-priority order.
  /// Ignored when threads > 1: each worker then runs DFS from a private
  /// LIFO stack.
  FrontierKind frontier{FrontierKind::kDfs};
  std::uint64_t frontier_seed{0x9e3779b97f4a7c15ULL};
  /// Search workers. 1 = one deterministic worker on the caller's thread,
  /// in `frontier` order; N > 1 spawns N threads with per-worker DFS
  /// stacks that hand work to idle peers through a shared deque, and is
  /// count-equivalent on exhaustive runs (same unique states / transitions
  /// / violation set, any order).
  unsigned threads{1};
  /// Sound partial-order reduction (mc/por/): kSleep visits the same
  /// unique states and reports the same violation set as kNone on
  /// exhaustive runs, with fewer (or equal) transitions (sleep sets plus
  /// the stateful revisit rule; see mc/por/sleep.h). Composes with the
  /// heuristic strategies (inert under NO-DELAY, whose lock-step drain defeats
  /// per-transition footprints) and with every exhaustive driver; ignored
  /// by the random-walk simulator (a walk is a single path) and under
  /// `symmetry`. The per-state slept records live in the seen-set entry
  /// of their state (util::ShardedSeenSet::arrive), so they are exactly
  /// as collision-proof as the configured state_store mode.
  Reduction reduction{Reduction::kNone};
  /// Symmetry reduction over the scenario's declared interchangeable-host
  /// orbits (SystemConfig::symmetry_orbits; see mc/sym_reduce.h): the
  /// seen-set key becomes the canonical serialization of a permuted,
  /// identifier-renamed, uid-renumbered image of the state, so executions
  /// that differ only by which orbit member played which role merge. An
  /// exponential cut (up to k! per k-host orbit) that no partial-order
  /// mode can make — and one that composes with every store mode, driver
  /// and the checkpoint layer, but NOT with partial-order reduction: the
  /// sleep-set bookkeeping assumes key-equal states have identical
  /// enabled-transition *labels*, which symmetric merging breaks, so
  /// SearchCore ignores `reduction` while this is set. Default off. With
  /// empty orbits this still canonicalizes uid allocation order (and
  /// drops next_uid from keys when no host uses discovery sends).
  bool symmetry{false};
  /// Wall-clock budget in seconds; 0 = off. Honored by the exhaustive and
  /// random-walk drivers at every thread count; a timed-out search
  /// reports hit_limit = kTime and never claims exhaustion.
  double time_limit_seconds{0.0};
  /// Footprint memoization (util/memo.h): cache por::compute_footprint
  /// results under the component identities the store already computes,
  /// shared by all workers. Pure-function caching — violation/unique/
  /// quiescent/transition counts are identical with the memo on or off
  /// (the fuzz harness enforces this differentially). Discovery results
  /// are cached whatever this says (mc::DiscoveryCache).
  bool memo{true};
  /// Resident-byte budget across the memo tables, half to the footprint
  /// memo and half to the discovery cache (per-shard LRU eviction; entries
  /// that alone exceed a shard's slice are never stored, so
  /// CheckerResult::memo.bytes ≤ this at all times).
  std::uint64_t memo_budget_bytes{64ull << 20};
  /// Durability layer (mc/checkpoint.h). Non-empty = periodically write a
  /// crash-safe A/B-slot checkpoint of the full search state (seen-set
  /// with its slept records, collapse table, frontier, counters) to
  /// `<checkpoint_path>.a` / `.b`, and write a final one at every halt —
  /// so a SIGKILL at any point leaves a resumable latest-good snapshot.
  std::string checkpoint_path;
  /// Seconds between periodic checkpoints (checked between expansions).
  double checkpoint_interval_seconds{30.0};
  /// Load the latest valid checkpoint slot before searching and continue
  /// from it; falls back to a fresh run when no valid slot exists. An
  /// interrupted-and-resumed run reports totals (transitions, unique
  /// states, violations) as if it had never been interrupted.
  bool resume{false};
  /// Memory-budget watchdog: 0 = off. When the engine-accounted resident
  /// bytes (store + collapse + memo + frontier estimate) exceed
  /// the budget, the memo tables are shrunk/evicted first (they are
  /// count-invisible); if that cannot fit the budget, the search
  /// checkpoints (when checkpoint_path is set) and halts with
  /// LimitReason::kMemory instead of OOM-aborting.
  std::uint64_t memory_budget_bytes{0};
  /// Install cooperative SIGINT/SIGTERM handlers: the first signal
  /// requests a graceful halt — the drivers checkpoint and return
  /// LimitReason::kInterrupted instead of dying mid-write.
  bool handle_signals{false};
  /// Search observability (util/telemetry.h): per-worker phase profiling
  /// and the halt-time flight recorder, reported in
  /// CheckerResult::telemetry. Off (the default) costs strictly nothing
  /// on the hot path — no clock reads, no atomics, one thread-local
  /// null-pointer branch per instrumentation point. On, the overhead is
  /// bounded by CI's telemetry-overhead step (scripts/telemetry_overhead.py:
  /// median wall ≤ 1.05× the off runs' + 50 ms) and the counts
  /// (violations / unique / quiescent / transitions) are identical by
  /// construction — telemetry only observes, never steers.
  bool telemetry{false};
  /// NDJSON progress-stream path (requires telemetry; empty = no stream):
  /// the ProgressReporter appends one snapshot line per interval plus a
  /// final "halt" line. A resumed run appends to the existing file and
  /// continues its sequence numbers, so kill-and-resume yields one
  /// continuous monotone stream.
  std::string progress_path;
  /// Seconds between progress snapshots.
  double progress_interval_seconds{1.0};
  /// Repaint a single-line live summary on stderr each interval.
  bool progress_tty{false};
};

/// Which bound cut a search short (CheckerResult::hit_limit).
enum class LimitReason : std::uint8_t {
  kNone,          // ran to completion (exhausted, or stopped at violation)
  kTransitions,   // max_transitions reached
  kUniqueStates,  // max_unique_states reached
  kTime,          // time_limit_seconds elapsed
  kMemory,        // memory_budget_bytes exceeded past the eviction ladder
  kInterrupted,   // cooperative SIGINT/SIGTERM (or a test-injected request)
};

/// Stable lower-case name of a LimitReason ("none", "transitions", ...),
/// shared by the JSON emitters, the progress stream's halt line, and the
/// flight recorder.
[[nodiscard]] const char* limit_reason_name(LimitReason r) noexcept;

struct ViolationRecord {
  Violation violation;
  std::vector<Transition> trace;
};

struct CheckerResult {
  std::uint64_t transitions{0};
  std::uint64_t unique_states{0};
  std::uint64_t revisits{0};
  std::uint64_t quiescent_states{0};
  double seconds{0.0};
  /// True when the search exhausted the (bounded) state space rather than
  /// stopping at a violation or a limit.
  bool exhausted{false};
  /// The limit that truncated the search, if any — so "exhausted" is
  /// never misreported on a timeout or count cap.
  LimitReason hit_limit{LimitReason::kNone};
  /// Bytes held by the explored-state store: 16 per state in hash mode,
  /// the serialized states in full-state mode, and in collapsed mode the
  /// id-tuple keys *plus* the shared interned-blob table (the complete
  /// footprint of representing the explored set).
  std::uint64_t store_bytes{0};
  /// Component-interning statistics (kCollapsed mode only; zeros
  /// otherwise).
  struct CollapseStats {
    std::uint64_t unique_blobs{0};    // distinct component blobs interned
    std::uint64_t interned_bytes{0};  // blob payload held by the table
    std::uint64_t intern_calls{0};    // total intern requests
    double dedupe_ratio{0.0};         // intern_calls / unique_blobs
  };
  CollapseStats collapse;
  /// Memoization-layer statistics: the footprint memo (zeros when
  /// CheckerOptions::memo is off) and the discovery cache. Hits + misses =
  /// lookups; `bytes` is the resident entry footprint of both tables
  /// (≤ memo_budget_bytes by construction). The memo
  /// keys through identities the store computes anyway — interned ids
  /// (kCollapsed, reported under `collapse`) or memoized component
  /// hashes — so there is no separate key-table cost to account.
  struct MemoStats {
    std::uint64_t footprint_hits{0};
    std::uint64_t footprint_misses{0};
    std::uint64_t discover_hits{0};
    std::uint64_t discover_misses{0};
    std::uint64_t evictions{0};
    std::uint64_t bytes{0};
  };
  MemoStats memo;
  /// OS-reported peak resident set size of the process at search end
  /// (getrusage ru_maxrss; monotone over the process, so multi-run
  /// processes see the max across runs). Ground truth the engine's own
  /// byte accounting is validated against.
  std::uint64_t peak_rss_bytes{0};
  /// Durability-layer statistics (zeros when no checkpoint path, memory
  /// budget, or signal handling is configured).
  struct DurabilityStats {
    std::uint64_t checkpoints_written{0};  // snapshots persisted this run
    std::uint64_t checkpoint_bytes{0};     // size of the last snapshot
    bool resumed{false};                   // run continued a checkpoint
    std::uint64_t memo_shrinks{0};         // watchdog eviction-ladder steps
    std::uint64_t watchdog_bytes{0};       // last engine-accounted bytes
    /// Why a requested resume fell back to a fresh run (per-slot
    /// diagnostics: missing file, version mismatch, corrupt payload,
    /// fingerprint mismatch, ...); empty when the run resumed or no
    /// resume was requested.
    std::string resume_error;
  };
  DurabilityStats durability;
  /// Observability-layer report (CheckerOptions::telemetry; enabled=false
  /// and all-zero otherwise). Phase totals are exact at halt: every
  /// nanosecond a worker was bound lands in exactly one phase, so
  /// sum(phases[p].total_ns) == wall_ns up to clock-calibration error.
  struct TelemetryStats {
    bool enabled{false};
    std::uint64_t workers{0};
    /// Summed per-worker bound wall time (≈ workers × driver wall time
    /// when utilization is high).
    std::uint64_t wall_ns{0};
    std::array<util::PhaseStat, util::kPhaseCount> phases{};
    /// Halt-time flight recorder: the most recent per-worker events
    /// (expanded transitions, checkpoint writes, watchdog ladder steps,
    /// signal receipt), rendered human-readable and merged in time
    /// order. Populated only when hit_limit != kNone — a cleanly
    /// finished search needs no post-mortem.
    std::vector<std::string> flight;
    /// Progress-stream lines emitted this run (0 when no stream).
    std::uint64_t progress_snapshots{0};
  };
  TelemetryStats telemetry;
  /// Symmetry-reduction statistics (CheckerOptions::symmetry; enabled =
  /// false and zeros otherwise).
  SymmetryStats symmetry;
  std::vector<ViolationRecord> violations;
  DiscoveryStats discovery;

  [[nodiscard]] bool found_violation() const { return !violations.empty(); }
};

/// Violation identities with path-dependent packet naming normalized
/// ("uid=N[.M]" → "uid=#"), sorted: several interleavings reach the same
/// canonical state, and the arrival that wins the seen-set insert reports
/// the violation with its own path's packet uid/copy numbers. Used by the
/// parallel count-equivalence and reduction-soundness checks.
[[nodiscard]] std::vector<std::string> violation_keys(
    const std::vector<Violation>& vs);
[[nodiscard]] std::vector<std::string> violation_keys(const CheckerResult& r);
/// As violation_keys, deduplicated — a sound reduction prunes *duplicate*
/// reports of one violation reached through commuting orders, so set
/// semantics are what its equivalence checks compare.
[[nodiscard]] std::vector<std::string> violation_key_set(
    const CheckerResult& r);

class Durability;  // mc/checkpoint.h — checkpoint/watchdog/signal context

class SearchCore {
 public:
  /// The core reduces (sleep sets, with the slept records kept in
  /// `seen`) when options.reduction != kNone and `sym` is null;
  /// otherwise it expands every strategy-filtered transition (the exact
  /// seed semantics). `packet_keys` says whether packet conflict keys are
  /// live in footprints (any packet-keyed property monitor installed; see
  /// mc::packet_keyed). `collapse` is the
  /// shared component-interning table, required (and used) exactly when
  /// `seen` is in kCollapsed mode. `discovery` is the search's one
  /// discovery cache, `fp_memo` the shared footprint memo (nullptr = memo
  /// off). `telem` is the observability context (nullptr = telemetry off;
  /// the drivers then skip every counter/gauge publication). `sym`
  /// (nullable) is the compiled symmetry context: when set, every
  /// remembered key goes through SymContext::canonical_key.
  SearchCore(const SystemConfig& cfg, const CheckerOptions& options,
             const Executor& executor, util::ShardedSeenSet& seen,
             DiscoveryCache& discovery, bool packet_keys = false,
             util::CollapseTable* collapse = nullptr,
             por::FootprintMemo* fp_memo = nullptr,
             util::Telemetry* telem = nullptr,
             const SymContext* sym = nullptr)
      : cfg_(cfg),
        options_(options),
        executor_(executor),
        seen_(seen),
        discovery_(discovery),
        // Symmetry forces reduction off: the sleep-set bookkeeping assumes
        // key-equal states enable identically *labelled* transitions,
        // which merging permutation-equivalent states breaks.
        reduce_(options.reduction != Reduction::kNone && sym == nullptr),
        packet_keys_(packet_keys),
        collapse_(collapse),
        fp_memo_(fp_memo),
        telem_(telem),
        sym_(sym) {}

  /// Result of expanding one SearchNode (applying its transition).
  struct Expansion {
    /// Successor work items (empty on violation, revisit, quiescence or
    /// depth cap). Under partial-order reduction a *revisit* can also
    /// carry children: a state reached again with a smaller sleep set
    /// re-expands exactly the transitions every earlier arrival slept.
    std::vector<SearchNode> children;
    /// Violations raised by the transition itself, or by the quiescence
    /// check when the resulting state is terminal. Traces included.
    std::vector<ViolationRecord> violations;
    /// The transition itself violated a property (the resulting state is
    /// not remembered and never expanded).
    bool transition_violated{false};
    /// The resulting state was new (remembered); false = revisit.
    bool new_state{false};
    /// The resulting state is new and has no enabled transitions.
    bool quiescent{false};
  };

  /// The expand step: clone the node's source state, apply its transition,
  /// check properties, remember the result, enumerate successors. Thread-
  /// safe (the seen-set and the discovery cache are lock-striped).
  [[nodiscard]] Expansion expand(const SearchNode& node) const;

  /// Remember the initial state (accounting it in `result`), handle
  /// initial quiescence, and return the root work items in deterministic
  /// enumeration order.
  [[nodiscard]] std::vector<SearchNode> init(CheckerResult& result) const;

  /// The quiescence property check of a terminal `state` reached through
  /// `path` (nullptr = the initial state): appends each violation, with
  /// the path's trace, to `out`. Monitors may mutate their local state in
  /// at_quiescence, so `state` must be the caller's own copy.
  void check_quiescence(SystemState& state,
                        const std::shared_ptr<const PathNode>& path,
                        std::vector<ViolationRecord>& out) const;

  /// Returns true when the state was not seen before.
  bool remember(const SystemState& state) const {
    return arrive(state, {}).first;
  }

  /// Fill `result` with the store's memory footprint and (in collapsed
  /// mode) the interning counters — one implementation shared by the
  /// exhaustive and random-walk drivers.
  void fill_store_stats(CheckerResult& result) const;

  /// The shared end-of-run stat fill: store/collapse/memo stats,
  /// durability stats (when `dur` is non-null), the telemetry profile +
  /// flight recorder, and peak_rss_bytes — every driver calls exactly
  /// this, so a new stats block is filled in one place. The caller must
  /// have set result.hit_limit first (the flight recorder dumps only on
  /// a truncating halt), unbound its workers, and have written any final
  /// checkpoint already.
  void finish_stats(CheckerResult& result, Durability* dur) const;

  /// Publish the poll-point gauges (frontier size, engine-accounted
  /// bytes, memo hit/miss totals) into the telemetry
  /// context for the progress reporter. No-op when telemetry is off;
  /// never called from the per-transition hot path.
  void publish_gauges(std::uint64_t frontier_nodes) const;

  [[nodiscard]] util::Telemetry* telemetry() const noexcept {
    return telem_;
  }

  [[nodiscard]] const CheckerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const Executor& executor() const noexcept {
    return executor_;
  }
  /// The explored-state store, with the slept records of a reduced search.
  [[nodiscard]] util::ShardedSeenSet& seen() const noexcept { return seen_; }
  [[nodiscard]] util::CollapseTable* collapse() const noexcept {
    return collapse_;
  }
  [[nodiscard]] por::FootprintMemo* footprint_memo() const noexcept {
    return fp_memo_;
  }
  /// The search's one table of discovery results, shared by every worker.
  [[nodiscard]] DiscoveryCache& discovery() const noexcept {
    return discovery_;
  }
  [[nodiscard]] const SymContext* sym() const noexcept { return sym_; }

  /// Engine-accounted resident bytes of the search: seen-set (slept
  /// records included) + collapse table + footprint memo + discovery
  /// cache + a coarse
  /// per-node estimate for `frontier_nodes` pending nodes. The memory
  /// watchdog's trigger — a pure function of engine state, so the budget
  /// ladder behaves the same on every platform (peak_rss_bytes is
  /// reported alongside as the OS ground truth, not used as a trigger).
  [[nodiscard]] std::uint64_t resident_bytes(
      std::uint64_t frontier_nodes) const;

 private:
  /// Telemetry leg of finish_stats: merge the per-worker phase profiles
  /// and counters into result.telemetry, and render the flight recorder
  /// when the run was truncated.
  void fill_telemetry(CheckerResult& result) const;

  /// Reduction-mode tail of expand(): the arrival with its sleep set,
  /// sleep-filtered child enumeration and sleep inheritance.
  void expand_reduced(Expansion& out, SystemState&& next,
                      const SearchNode& node,
                      std::shared_ptr<const PathNode> path) const;

  /// Record an arrival at `state` carrying the sorted, duplicate-free
  /// slept transition hashes `slept` (empty outside reduction) in the
  /// seen-set, under the store's true identity for its mode: the 128-bit
  /// hash in kHash mode, the canonical blob in kFullState, the
  /// component-id tuple in kCollapsed.
  util::ShardedSeenSet::Arrival arrive(
      const SystemState& state, std::span<const std::uint64_t> slept) const;

  /// A state's identity key in the byte-keyed store modes: the canonical
  /// blob (kFullState) or the packed component-id tuple (kCollapsed).
  std::string state_key(const SystemState& state) const;

  /// Build the sleep-filtered, sleep-carrying children of a state.
  /// `explore_only` selects the revisit re-expansion set (nullptr = first
  /// arrival: expand everything outside `arrival_sleep`).
  void make_reduced_children(
      const std::shared_ptr<const SystemState>& sp,
      const std::shared_ptr<const PathNode>& path, std::size_t depth,
      std::vector<Transition>&& ts, const por::SleepSet& arrival_sleep,
      const std::vector<std::uint64_t>* explore_only,
      std::vector<SearchNode>& out) const;

  /// Memo-aware footprint computation (make_reduced_children).
  [[nodiscard]] por::Footprint footprint_of(const SystemState& state,
                                            const Transition& t) const {
    return fp_memo_ != nullptr ? fp_memo_->get(state, t)
                               : por::compute_footprint(cfg_, state, t);
  }

  const SystemConfig& cfg_;
  const CheckerOptions& options_;
  const Executor& executor_;
  util::ShardedSeenSet& seen_;
  DiscoveryCache& discovery_;
  bool reduce_;
  bool packet_keys_;
  util::CollapseTable* collapse_;
  por::FootprintMemo* fp_memo_;
  util::Telemetry* telem_;
  const SymContext* sym_;
  /// Pre-sizing hint for full-state blobs: the previous remembered state's
  /// serialized length. Per-core (a core serves one search), so concurrent
  /// searches in one process never cross-pollinate their hints; relaxed
  /// atomic because parallel workers of the same search update it
  /// concurrently and any of their values is a fine hint.
  mutable std::atomic<std::size_t> last_blob_size_{0};
};

}  // namespace nicemc::mc

#endif  // NICE_MC_SEARCH_CORE_H
