// Sharded explored-state store for the model checker.
//
// The search remembers which system states it has visited. A single global
// set serializes every worker on one lock, so the store is split into N
// lock-striped shards selected by the top bits of the state's Hash128 —
// concurrent inserts of different states almost never contend. Three
// modes span the memory/soundness trade-off (paper Section 6 + SPIN's
// COLLAPSE):
//   * kHash      — store 16-byte hashes (NICE's "trading computation for
//                  memory"); a vanishingly small but nonzero chance of
//                  merging distinct states. Each shard keeps them in one
//                  flat open-addressing table (HashSlots), allocated on
//                  the first insert, with no per-state node;
//   * kFullState — store the canonical serialized state bytes (the
//                  SPIN-like baseline), keyed by the full blob so hash
//                  collisions can never merge distinct states;
//   * kCollapsed — store the packed tuple of component ids interned in a
//                  util::CollapseTable: collision-proof like kFullState
//                  (id equality ⇔ blob equality by construction) at a
//                  fraction of the bytes.
//
// The store is also where sleep-set partial-order reduction (mc/por/)
// keeps its per-state bookkeeping: arrive() folds an arrival's slept
// transitions into the state's record under the same shard lock that
// decides first arrival vs revisit, so a reduced arrival does one lookup
// and the state identity is stored once.
#ifndef NICE_UTIL_SEEN_SET_H
#define NICE_UTIL_SEEN_SET_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/hash.h"
#include "util/ser.h"

namespace nicemc::util {

/// Shard selection shared by the lock-striped stores (ShardedSeenSet,
/// CollapseTable and the memo tables): normalizes the shard count to a
/// power of two in [1, 1024] and maps a Hash128 to a shard index via its
/// top bits, so related stores stripe the same way.
class ShardSelect {
 public:
  explicit ShardSelect(std::size_t shards) {
    std::size_t n = 1;
    while (n < shards && n < 1024) n <<= 1;
    unsigned lg = 0;
    while ((std::size_t{1} << lg) < n) ++lg;
    // shift_ stays < 64 even for a single shard (mask_ == 0 then selects
    // shard 0).
    shift_ = 64 - (lg == 0 ? 1 : lg);
    mask_ = n - 1;
    count_ = n;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t index(const Hash128& h) const noexcept {
    return (h.hi >> shift_) & mask_;
  }

 private:
  unsigned shift_;
  std::uint64_t mask_;
  std::size_t count_;
};

class ShardedSeenSet {
 public:
  enum class Mode : std::uint8_t { kHash, kFullState, kCollapsed };

  /// `shards` is rounded up to a power of two (so shard selection is a
  /// shift of the hash's top bits) and clamped to [1, 1024].
  explicit ShardedSeenSet(Mode mode = Mode::kHash, std::size_t shards = 1);

  /// One arrival at a state (arrive()).
  struct Arrival {
    /// The state was not in the store (the caller expands it).
    bool first{false};
    /// Revisits only: transition hashes slept at every earlier arrival
    /// but not at this one — the caller must expand them now.
    std::vector<std::uint64_t> explore;
  };

  /// Record an arrival at the state `h` (kHash mode) carrying `slept`,
  /// the sorted, duplicate-free hashes of the transitions asleep on
  /// arrival (empty outside partial-order reduction). Under one shard
  /// lock: a first arrival stores the state and, when `slept` is
  /// non-empty, its slept record; a revisit shrinks the stored record to
  /// its intersection with `slept` (a transition stays asleep only while
  /// *every* arrival justifies it — the Godefroid/Holzmann/Pirottin
  /// revisit rule) and returns the difference. A record that empties is
  /// dropped. Parallel workers agree on the verdict because it is made
  /// under the lock.
  Arrival arrive(const Hash128& h, std::span<const std::uint64_t> slept);

  /// As above for full-state / collapsed modes, keyed by the state's
  /// identity key — the canonical serialized blob (kFullState) or the
  /// packed tuple of interned component ids (kCollapsed). The shard is
  /// selected by an internal hash of the key bytes, so placement is a
  /// pure function of the key — which is what lets a checkpoint restore
  /// entries into the correct shards under any future shard count
  /// (mc/checkpoint.h). The key itself is the store key, so hash
  /// collisions can never merge distinct states or their slept records.
  Arrival arrive(std::string key, std::span<const std::uint64_t> slept);

  /// Hash mode: remember `h`. Returns true when it was not seen before.
  bool insert(const Hash128& h) { return arrive(h, {}).first; }

  /// Full-state / collapsed modes: remember the state's identity key.
  /// Returns true when new.
  bool insert_key(std::string key) {
    return arrive(std::move(key), {}).first;
  }

  /// Unique entries across all shards.
  [[nodiscard]] std::uint64_t size() const;

  /// Bytes held by the store: sizeof(Hash128) per entry in hash mode, the
  /// key bytes (serialized state / id tuple) otherwise, plus a coarse
  /// per-record overhead and 8 bytes per hash for the slept records.
  /// Collapsed mode's total footprint is this plus the shared
  /// CollapseTable's interned_bytes() — CheckerResult::store_bytes
  /// reports the sum.
  [[nodiscard]] std::uint64_t store_bytes() const;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Checkpoint section: entry count + every entry (16-byte hashes in
  /// hash mode, length-prefixed keys otherwise), then record count +
  /// every slept record (its entry, hash count, hashes). Iteration order
  /// is shard-then-slot order — placement on restore is re-derived, so
  /// the order carries no meaning. Not safe against concurrent inserts
  /// (the drivers quiesce before snapshotting).
  void serialize(Ser& s) const;
  /// Restore a serialize() section into this (must-be-empty) store.
  /// Returns false — leaving the store partially filled — on a malformed
  /// section, including a slept record whose entry is absent, an empty or
  /// unsorted record, and a second record for one entry; callers discard
  /// the store on failure.
  bool restore(Des& d);

  void clear();

 private:
  /// kHash entries of one shard: a linear-probing table of 16-byte
  /// slots, sized to a power of two on the first insert and doubled past
  /// 3/4 load. {0,0} marks an empty slot, so the hash {0,0} itself is
  /// kept in a flag. The slot comes from the Fibonacci hash of lo ^ hi,
  /// not from hi's top bits, which ShardSelect spends on the shard.
  /// Slots move on growth: nothing may hold a slot's address.
  class HashSlots {
   public:
    /// True when `h` was not present (it is now).
    bool insert(const Hash128& h);
    [[nodiscard]] bool contains(const Hash128& h) const;
    [[nodiscard]] std::size_t size() const noexcept {
      return used_ + (has_zero_ ? 1 : 0);
    }
    /// f(h) for every entry, in slot order.
    template <typename F>
    void for_each(F&& f) const {
      if (has_zero_) f(Hash128{});
      for (std::size_t i = 0; i < capacity(); ++i) {
        if (!empty_slot(slots_[i])) f(slots_[i]);
      }
    }
    void clear() noexcept;

   private:
    struct Free {
      void operator()(Hash128* p) const noexcept;
    };
    static bool empty_slot(const Hash128& h) noexcept {
      return h.lo == 0 && h.hi == 0;
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
      return slots_ ? mask_ + 1 : 0;
    }
    /// The slot holding `h`, else the empty slot where it would go.
    [[nodiscard]] std::size_t probe(const Hash128& h) const noexcept {
      auto i = static_cast<std::size_t>(
          ((h.lo ^ h.hi) * 0x9e3779b97f4a7c15ULL) >> shift_);
      while (!empty_slot(slots_[i]) && !(slots_[i] == h)) i = (i + 1) & mask_;
      return i;
    }
    void grow();

    std::unique_ptr<Hash128[], Free> slots_;  // zeroed: all empty
    std::size_t mask_{0};
    unsigned shift_{64};
    std::size_t used_{0};  // occupied slots
    bool has_zero_{false};
  };

  struct Shard {
    mutable std::mutex mu;
    HashSlots hashes;                      // kHash
    std::unordered_set<std::string> keys;  // blobs or id tuples, by mode
    /// Slept records, each keyed by its entry so the identity is stored
    /// once: by hash value in kHash mode (slots move as the table grows)
    /// and by the address of the element of `keys` otherwise
    /// (unordered_set nodes never move, not even on a rehash). Hold only
    /// non-empty records: a search without reduction keeps these empty
    /// and pays no byte per entry for them.
    std::unordered_map<Hash128, std::vector<std::uint64_t>> slept_hashes;
    std::unordered_map<const void*, std::vector<std::uint64_t>> slept_keys;
    std::uint64_t bytes{0};
  };

  /// The rest of an arrival under the shard lock, once the entry is
  /// stored (`inserted`: it was new) and keyed `entry` in `records`.
  template <typename Records, typename Entry>
  Arrival arrive_locked(Shard& s, Records& records, const Entry& entry,
                        bool inserted, std::uint64_t entry_bytes,
                        std::span<const std::uint64_t> slept);
  /// Restore one slept record of serialize()'s section for `entry`.
  template <typename Records, typename Entry>
  bool restore_record(Des& d, Shard& s, Records& records, const Entry& entry);

  [[nodiscard]] Shard& shard_of(const Hash128& h) const {
    return *shards_[select_.index(h)];
  }

  Mode mode_;
  ShardSelect select_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nicemc::util

#endif  // NICE_UTIL_SEEN_SET_H
