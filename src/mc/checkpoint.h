// Durable search: crash-safe checkpoint/restore of the full search state,
// the memory-budget watchdog, and cooperative signal handling.
//
// A checkpoint snapshots everything an exhaustive run needs to continue
// as if it had never stopped: the explored-state store (util/seen_set.h),
// the component-interning table (util/collapse.h — restored first, so the
// id tuples stored elsewhere stay valid verbatim), the pending frontier,
// and the run counters/violations. Under partial-order reduction the
// seen-set section also carries the per-state slept records. Shard placement in every
// store is a pure function of the entry bytes, so a snapshot is
// self-contained and restores correctly under any shard count.
//
// Frontier nodes are the one piece with no byte-level deserializer:
// SystemState has a canonical serializer but no inverse. The checkpoint
// leans on the engine's deterministic-replay contract instead (mc/trace.h,
// paper Section 6): every SearchNode satisfies
//     node.state ≡ replay(trace_of(node.path))
// so the snapshot stores the shared PathNode DAG as a parent-indexed
// table of self-describing transitions and rebuilds states on restore by
// one memoized replay pass — prefixes are computed once and shared, just
// like the live search shares them.
//
// Crash safety: two slot files (`<path>.a` / `<path>.b`) written
// alternately via write-to-temp + fsync + atomic rename, each carrying a
// version, a monotonically increasing sequence number, and a 128-bit
// payload checksum. A SIGKILL at any instant leaves at least one fully
// valid slot; the loader validates both and picks the highest valid
// sequence, reporting a per-slot diagnostic for anything it rejects
// (truncation, bit flips, version mismatch).
#ifndef NICE_MC_CHECKPOINT_H
#define NICE_MC_CHECKPOINT_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mc/frontier.h"
#include "mc/search_core.h"
#include "util/hash.h"
#include "util/ser.h"

namespace nicemc::mc {

/// ---- Cooperative signal handling ----------------------------------------
///
/// One process-wide flag, set by SIGINT/SIGTERM (when installed) or by
/// request_interrupt() from tests. The drivers poll it between expansions
/// when a Durability context is active, checkpoint, and halt with
/// LimitReason::kInterrupted — honoring it clears the flag.
void install_cooperative_signal_handlers();
void request_interrupt();
void clear_interrupt();
[[nodiscard]] bool interrupt_requested();

/// ---- Checkpoint file layer ----------------------------------------------

/// The two A/B slot paths for a configured checkpoint path.
[[nodiscard]] std::string checkpoint_slot_a(const std::string& path);
[[nodiscard]] std::string checkpoint_slot_b(const std::string& path);

/// One slot file, read and validated (magic, version, declared payload
/// size, 128-bit payload checksum). `error` explains any rejection —
/// truncation, corruption, and version mismatch each get a distinct,
/// human-readable diagnostic.
struct SlotInfo {
  bool valid{false};
  std::uint64_t sequence{0};
  std::string payload;  // checksum-verified payload bytes
  std::string error;    // non-empty exactly when !valid
};
[[nodiscard]] SlotInfo read_checkpoint_slot(const std::string& slot_path);

/// Frame `payload` into the on-disk format and write it crash-safely to
/// `slot_path` (temp file + fsync + atomic rename). Returns false (with
/// `error`) on I/O failure; the previous slot contents survive any
/// failure or kill mid-write.
bool write_checkpoint_slot(const std::string& slot_path,
                           std::uint64_t sequence, std::string_view payload,
                           std::string& error);

/// Fingerprint of everything a checkpoint must agree on to be resumable:
/// the search-shaping options (strategy, store mode, reduction, depth cap,
/// stop-at-first) and the scenario's canonical initial state (topology,
/// app, host scripts, installed property monitors). A sanity gate against
/// resuming the wrong scenario — not a security boundary.
[[nodiscard]] util::Hash128 search_config_fingerprint(
    const SystemConfig& cfg, const CheckerOptions& options,
    const Executor& executor);

/// ---- Durability context --------------------------------------------------

/// Per-run durability state owned by the Checker façade and threaded into
/// the drivers: periodic/at-halt checkpointing, resume seeding, the
/// memory-budget watchdog, and interrupt polling. Thread-safe where the
/// driver needs it (save() is called with every worker at rest; the
/// watchdog and due() checks are called by any worker, under the driver's
/// lock).
class Durability {
 public:
  /// `config_fp` fingerprints everything a checkpoint must agree on to be
  /// resumable (scenario initial state, strategy, store mode, reduction,
  /// depth cap); a mismatching checkpoint is rejected on resume.
  Durability(const CheckerOptions& options, util::Hash128 config_fp);

  [[nodiscard]] bool checkpointing() const noexcept {
    return !options_.checkpoint_path.empty();
  }

  /// Time for a periodic checkpoint (interval elapsed since the last
  /// save). Always false when no checkpoint path is configured.
  [[nodiscard]] bool due() const;

  /// Counters + live stores of a quiesced search, gathered for save().
  struct Snapshot {
    std::uint64_t transitions{0};
    std::uint64_t unique_states{0};
    std::uint64_t revisits{0};
    std::uint64_t quiescent_states{0};
    const std::vector<ViolationRecord>* violations{nullptr};
    DiscoveryStats discovery;
    std::uint64_t frontier_rng{0};
    /// Visits every pending node in reconstruction order: the handoff
    /// deque front-to-back, then each worker's Frontier::for_each.
    std::function<void(const std::function<void(const SearchNode&)>&)>
        for_each_node;
  };

  /// Serialize the full search state and write it to the next A/B slot.
  /// No-op (returns true) when checkpointing is off. The caller must have
  /// quiesced the search: no concurrent mutation of the stores or the
  /// frontier.
  bool save(const SearchCore& core, const Snapshot& snap);

  /// Load the best valid slot, restore the stores through `core` (they
  /// must be empty — resume before searching), rebuild the frontier nodes
  /// by deterministic replay, and stash the counters for seed(). Returns
  /// false when no usable checkpoint exists (the caller falls back to a
  /// fresh run); fill() then reports the per-slot diagnostics as
  /// CheckerResult::durability.resume_error.
  bool resume(const SearchCore& core);

  [[nodiscard]] bool resumed() const noexcept { return resumed_; }

  /// Seed `result` with the resumed counters/violations/discovery (no-op
  /// when resumed() is false; the stashed violations are moved out, so
  /// call once per resume).
  void seed(CheckerResult& result);

  /// The rebuilt pending nodes of a resumed run (moved out; call once).
  [[nodiscard]] std::vector<SearchNode> take_nodes() {
    return std::move(nodes_);
  }
  [[nodiscard]] std::uint64_t frontier_rng() const noexcept {
    return frontier_rng_;
  }

  /// Between-expansions poll: interrupt flag first, then the memory
  /// ladder. Over budget, the core's footprint memo and discovery cache
  /// are halved repeatedly (their contents are count-invisible, so this
  /// only costs wall-clock time);
  /// when they are empty and the accounted bytes still exceed the budget,
  /// returns kMemory — the driver checkpoints and halts instead of
  /// OOM-aborting. Returns kNone to continue.
  [[nodiscard]] LimitReason poll(const SearchCore& core,
                                 std::uint64_t frontier_nodes);

  /// Copy the layer's statistics into `result.durability`.
  void fill(CheckerResult& result) const;

 private:
  bool parse_payload(const SearchCore& core, util::Des& d,
                     std::string& error);

  const CheckerOptions& options_;
  util::Hash128 config_fp_;

  detail::SearchClock::time_point last_save_;
  std::uint64_t sequence_{1};

  bool resumed_{false};
  std::string resume_error_;
  std::uint64_t seed_transitions_{0};
  std::uint64_t seed_unique_{0};
  std::uint64_t seed_revisits_{0};
  std::uint64_t seed_quiescent_{0};
  std::vector<ViolationRecord> seed_violations_;
  DiscoveryStats seed_discovery_;
  std::uint64_t frontier_rng_{0};
  std::vector<SearchNode> nodes_;

  std::uint64_t checkpoints_written_{0};
  std::uint64_t checkpoint_bytes_{0};
  std::uint64_t memo_shrinks_{0};
  std::uint64_t watchdog_bytes_{0};
};

}  // namespace nicemc::mc

#endif  // NICE_MC_CHECKPOINT_H
