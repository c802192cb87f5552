// Sound dynamic partial-order reduction over SearchCore: sleep sets with
// per-state bookkeeping. The mode enum lives in mc/por/reduction.h — this
// header is the store.
//
// A sleep set rides on each SearchNode: the sibling transitions explored
// before it (and inherited entries) that are independent of everything
// executed since — re-exploring them would only re-derive a state the
// search already produces through the commuted order. At each state the
// engine expands `filtered_enabled \ sleep` instead of all of
// `filtered_enabled`.
//
// Stateful searches need one extra piece (Godefroid/Holzmann/Pirottin):
// the seen-set collapses commuting paths into one state, but different
// arrivals can carry different sleep sets. The SleepStore keeps, per
// canonical state hash, the set of transitions slept at *every* arrival
// so far. A later arrival whose sleep set no longer covers a stored entry
// re-expands exactly the difference (the classic "visited state revisited
// with a smaller sleep set" rule). This preserves the full reachable
// state set — only redundant transitions are pruned — which is the
// contract the differential test enforces: identical violation sets,
// identical unique-state counts, fewer (or equal) transitions.
#ifndef NICE_MC_POR_SLEEP_H
#define NICE_MC_POR_SLEEP_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mc/por/footprint.h"
#include "util/hash.h"
#include "util/seen_set.h"

namespace nicemc::mc::por {

/// One slept transition: its identity hash plus the footprint computed at
/// the state where it entered the sleep set. The footprint stays valid
/// down the path because every step it survives is independent of it (its
/// inputs are untouched).
struct SleepEntry {
  std::uint64_t thash{0};
  Footprint fp;
};

using SleepSet = std::vector<SleepEntry>;

/// Per-state reduction bookkeeping shared by all drivers, lock-striped
/// like the seen-set (same util::ShardSelect striping). Stores, per
/// state, the transition hashes slept at every arrival so far (the
/// intersection over arrivals).
///
/// States are matched by the seen-set's *true* identity key — the packed
/// 128-bit hash in kHash mode, the canonical blob in kFullState, the
/// interned component-id tuple in kCollapsed — so the sleep bookkeeping
/// is exactly as collision-proof as the store it rides on: a hash
/// collision can never merge two states' sleep sets in the modes whose
/// seen-set it cannot merge either.
class SleepStore {
 public:
  /// `shards` rounded up to a power of two, clamped to [1, 1024].
  explicit SleepStore(std::size_t shards);

  struct Arrival {
    /// First arrival at this state (the caller expands enabled \ sleep).
    bool first{false};
    /// Revisits only: transition hashes slept at every earlier arrival
    /// but not in this arrival's sleep set — they must be expanded now.
    std::vector<std::uint64_t> explore;
  };

  /// Record an arrival at the state identified by `identity` (the
  /// seen-set store key; the shard is selected by an internal hash of the
  /// identity bytes, so placement is a pure function of the entry and a
  /// checkpoint restore re-derives it under any shard count) carrying
  /// `sleep`; atomically updates the stored slept-set to its intersection
  /// with `sleep` and returns what the caller must expand. The
  /// first/revisit verdict is made here (not by the seen-set) so parallel
  /// workers agree under one lock. `identity` is copied only on first
  /// arrival.
  Arrival arrive(std::string_view identity, const SleepSet& sleep);

  [[nodiscard]] std::uint64_t states() const;

  /// Approximate resident bytes (identity keys and slept sets), maintained
  /// as a running counter so the memory watchdog can poll it without
  /// walking the shards.
  [[nodiscard]] std::uint64_t store_bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Checkpoint section: entry count + every entry (identity key, slept
  /// hashes). Placement on restore is re-derived from the identity bytes,
  /// so iteration order carries no meaning. Not safe against concurrent
  /// mutation — drivers quiesce before snapshotting.
  void serialize(util::Ser& s) const;
  /// Restore a serialize() section into this (must-be-empty) store.
  /// Returns false on a malformed section.
  bool restore(util::Des& d);

  void clear();

 private:
  struct Entry {
    /// Intersection over arrivals of their sleep sets.
    std::vector<std::uint64_t> slept;
  };

  struct Shard {
    mutable std::mutex mu;
    // Heterogeneous lookup: revisits probe with a string_view and
    // allocate nothing. Note the identity copy stored on first arrival:
    // in kFullState mode under reduction this holds each unique state's
    // blob a second time (the price of collision-proof sleep keying
    // there) — kCollapsed pays ~4 bytes per component instead, which is
    // one more reason it is the collision-proof mode of choice.
    std::unordered_map<std::string, Entry, util::TransparentStringHash,
                       std::equal_to<>>
        slept;
  };

  [[nodiscard]] Shard& shard_of(std::string_view identity) const {
    // Placement is a pure function of the identity bytes — the property
    // checkpoint restore relies on to re-shard entries.
    return *shards_[select_.index(util::hash128(
        {reinterpret_cast<const std::byte*>(identity.data()),
         identity.size()}))];
  }

  util::ShardSelect select_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace nicemc::mc::por

#endif  // NICE_MC_POR_SLEEP_H
