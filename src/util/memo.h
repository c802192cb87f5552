// Lock-striped memoization tables with per-shard LRU eviction.
//
// The model checker's dominant per-transition costs are pure functions of
// a small set of inputs: a footprint is a function of (component bytes,
// transition), a discovery run of (app-state bytes, client location).
// util::CollapseTable already maps component bytes to dense ids whose
// equality is byte equality, so those inputs compress into short,
// collision-proof keys — exactly what a memo table needs. MemoCore is the
// shared machinery: byte-string keys, values held as shared_ptr<const
// void> (a hit hands out the pointer, so eviction never invalidates a
// reader), ShardSelect striping like the seen-set, and a per-shard byte
// budget enforced by least-recently-used eviction.
//
// MemoTable<V> is the typed wrapper por::FootprintMemo uses;
// mc::DiscoveryCache keeps its two result types in one MemoCore, told apart
// by a key tag. Entries larger than a shard's whole budget are
// computed but never stored, so resident bytes stay ≤ the budget at all
// times — CheckerResult::memo.bytes reports the figure.
#ifndef NICE_UTIL_MEMO_H
#define NICE_UTIL_MEMO_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/seen_set.h"

namespace nicemc::util {

class MemoCore {
 public:
  /// `shards` is rounded up to a power of two and clamped to [1, 1024]
  /// (ShardSelect). `byte_budget` is split evenly across the shards; each
  /// shard evicts least-recently-used entries to stay under its slice.
  MemoCore(std::size_t shards, std::uint64_t byte_budget);

  /// Look up `key`. A hit moves the entry to the front of its shard's LRU
  /// list and returns the stored value; the shared_ptr keeps the value
  /// alive even if a concurrent insert evicts the entry. Miss = nullptr.
  /// Every call counts as exactly one hit or one miss.
  [[nodiscard]] std::shared_ptr<const void> find(std::string_view key);

  /// Store `value` under `key`, charging key bytes + `value_bytes` +
  /// fixed per-entry overhead against the shard budget (evicting from the
  /// LRU tail first). An entry that alone exceeds the shard budget is
  /// dropped; re-inserting an existing key refreshes its value.
  void insert(std::string_view key, std::shared_ptr<const void> value,
              std::size_t value_bytes);

  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t insertions{0};
    std::uint64_t evictions{0};
    std::uint64_t bytes{0};    // resident entry bytes (≤ budget)
    std::uint64_t entries{0};  // resident entry count
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::uint64_t byte_budget() const noexcept {
    return budget_total_.load(std::memory_order_relaxed);
  }

  /// Lower the byte budget to `new_budget` (no-op if already at or below)
  /// and immediately evict LRU entries until every shard fits its new
  /// slice. This is the memory watchdog's first rung: memo contents are
  /// count-invisible by construction, so shrinking mid-search changes
  /// wall-clock time only. Safe against concurrent find/insert.
  void shrink_to(std::uint64_t new_budget);

  void clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    std::size_t bytes{0};
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used. List nodes are stable, so the index
    /// below may key on views into the node-owned key strings.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    std::uint64_t bytes{0};
  };

  [[nodiscard]] Shard& shard_of(std::string_view key) const {
    const std::uint64_t h = std::hash<std::string_view>{}(key);
    return *shards_[select_.index(Hash128{h, h})];
  }

  ShardSelect select_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Atomic so shrink_to() can lower the budget while workers insert; each
  // insert reads the per-shard slice once (relaxed — a stale read admits
  // at most one entry over a budget that just shrank).
  std::atomic<std::uint64_t> budget_total_;
  std::atomic<std::uint64_t> budget_per_shard_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Typed façade over MemoCore: values live behind shared_ptr<const V>, so
/// a hit is one pointer copy and eviction can never pull a value out from
/// under a reader.
template <typename V>
class MemoTable {
 public:
  MemoTable(std::size_t shards, std::uint64_t byte_budget)
      : core_(shards, byte_budget) {}

  [[nodiscard]] std::shared_ptr<const V> find(std::string_view key) {
    return std::static_pointer_cast<const V>(core_.find(key));
  }

  /// Store a freshly computed value; returns the shared handle so the
  /// caller can keep using it without a copy. `value_bytes` is the
  /// caller's estimate of the payload size (the key is charged
  /// automatically).
  std::shared_ptr<const V> insert(std::string_view key, V value,
                                  std::size_t value_bytes) {
    auto sp = std::make_shared<const V>(std::move(value));
    core_.insert(key, sp, value_bytes);
    return sp;
  }

  [[nodiscard]] MemoCore::Stats stats() const { return core_.stats(); }
  [[nodiscard]] std::uint64_t byte_budget() const noexcept {
    return core_.byte_budget();
  }
  void shrink_to(std::uint64_t new_budget) { core_.shrink_to(new_budget); }
  void clear() { core_.clear(); }

 private:
  MemoCore core_;
};

}  // namespace nicemc::util

#endif  // NICE_UTIL_MEMO_H
