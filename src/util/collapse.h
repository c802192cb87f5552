// Component-interning blob table (SPIN's COLLAPSE compression).
//
// Full-state search stores the canonical serialization of every unique
// state, but consecutive states share almost all of their bytes: a
// transition touches one or two components, and the copy-on-write state
// pipeline (util/snap.h) already memoizes each component's canonical form
// on its shared snapshot. CollapseTable exploits exactly that structure:
// each distinct component blob is stored once and mapped to a stable,
// dense 32-bit id, so a state can be remembered as the fixed-width tuple
// of its component ids instead of the concatenated blobs.
//
// The interning contract — id equality ⇔ blob equality — is by
// construction (the blob itself is the map key), so an id tuple is a
// collision-proof state key, exactly like the full blob and unlike a
// 128-bit hash. The table is lock-striped with the same ShardSelect
// striping as the seen-set; the id counter is a shared atomic, so ids are
// dense across shards and stable once assigned.
#ifndef NICE_UTIL_COLLAPSE_H
#define NICE_UTIL_COLLAPSE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/hash.h"
#include "util/seen_set.h"

namespace nicemc::util {

class CollapseTable {
 public:
  /// `shards` is rounded up to a power of two and clamped to [1, 1024],
  /// like the seen-set.
  explicit CollapseTable(std::size_t shards = 1);

  /// Intern `bytes` and return its id (allocating the next dense id on
  /// first sight). The shard is selected by a fast internal hash of the
  /// bytes; the bytes themselves are the key, so two distinct blobs
  /// always get distinct ids even under a hash collision.
  std::uint32_t intern(std::string_view bytes);

  /// Distinct blobs interned so far (== ids handed out; ids are dense in
  /// [0, unique_blobs())).
  [[nodiscard]] std::uint64_t unique_blobs() const noexcept {
    return next_id_.load(std::memory_order_relaxed);
  }
  /// Bytes of blob payload held by the table (one copy per distinct blob).
  [[nodiscard]] std::uint64_t interned_bytes() const;
  /// Total intern() requests (every distinct snapshot that reached the
  /// table; per-snapshot memoization in Snap::form_id dedupes upstream).
  [[nodiscard]] std::uint64_t intern_calls() const;
  /// intern_calls / unique_blobs: 1.0 = every request was a new blob,
  /// higher = more component sharing across states.
  [[nodiscard]] double dedupe_ratio() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Generation stamp: drawn from a process-wide monotonic counter at
  /// construction and re-drawn by clear(), so no two table generations —
  /// even at the same heap address — ever share an epoch. Callers that
  /// memoize ids against this table (util::Snap::form_id) key their memo
  /// on (table, epoch); ids are only stable within one epoch.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Drop every interned blob and restart ids at 0 in a new epoch. Must
  /// not race intern() (callers clear between searches, not during one).
  void clear();

  /// Checkpoint section: blob count + every blob in ascending id order,
  /// plus the intern-call counter (so dedupe statistics survive a
  /// restore). Not safe against concurrent intern() — callers quiesce
  /// first.
  void serialize(Ser& s) const;
  /// Restore a serialize() section into this (must-be-empty) table by
  /// re-interning every blob in id order — ids are dense and allocated in
  /// intern order, so each blob receives exactly the id it held when the
  /// section was written, and id tuples stored elsewhere (seen-set keys
  /// and their slept records) remain valid verbatim. Returns false on a
  /// malformed section or an id mismatch.
  bool restore(Des& d);

 private:
  struct Shard {
    mutable std::mutex mu;
    // Heterogeneous lookup: intern() probes with a string_view and copies
    // the bytes only when inserting a new blob.
    std::unordered_map<std::string, std::uint32_t, TransparentStringHash,
                       std::equal_to<>>
        ids;
    std::uint64_t bytes{0};
    std::uint64_t calls{0};
  };

  [[nodiscard]] Shard& shard_of(std::string_view bytes) const {
    // One cheap hash pass selects the shard; equal bytes always land in
    // the same shard, which is all uniqueness needs.
    const std::uint64_t h = std::hash<std::string_view>{}(bytes);
    return *shards_[select_.index(Hash128{h, h})];
  }

  ShardSelect select_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint32_t> next_id_{0};
  std::atomic<std::uint64_t> epoch_;
};

}  // namespace nicemc::util

#endif  // NICE_UTIL_COLLAPSE_H
