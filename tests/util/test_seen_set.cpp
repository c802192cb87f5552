// ShardedSeenSet: hash vs full-state modes, store_bytes accounting, shard
// rounding, concurrent insert correctness, and the slept records of the
// sleep-set revisit rule (arrival semantics, identity keying, accounting,
// checkpoint-section validation).
#include "util/seen_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/hash.h"
#include "util/ser.h"

namespace nicemc::util {
namespace {

Hash128 h(std::uint64_t lo, std::uint64_t hi) { return Hash128{lo, hi}; }

TEST(ShardedSeenSet, HashModeDeduplicates) {
  ShardedSeenSet set(ShardedSeenSet::Mode::kHash, 4);
  EXPECT_TRUE(set.insert(h(1, 2)));
  EXPECT_FALSE(set.insert(h(1, 2)));
  EXPECT_TRUE(set.insert(h(1, 3)));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.store_bytes(), 2 * sizeof(Hash128));
}

TEST(ShardedSeenSet, FullStateModeKeysOnBlobNotHash) {
  ShardedSeenSet set(ShardedSeenSet::Mode::kFullState, 4);
  // Different blobs are distinct states; the shard-selection hash is
  // derived internally from the key bytes and can never merge them.
  EXPECT_TRUE(set.insert_key("state-a"));
  EXPECT_TRUE(set.insert_key("state-bb"));
  EXPECT_FALSE(set.insert_key("state-a"));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.store_bytes(), std::string("state-a").size() +
                                   std::string("state-bb").size());
}

TEST(ShardedSeenSet, CollapsedModeKeysOnIdTupleNotHash) {
  ShardedSeenSet set(ShardedSeenSet::Mode::kCollapsed, 4);
  // Packed id tuples are the keys; a shard-hash collision between
  // different tuples keeps both states.
  const std::string tuple_a("\x00\x00\x00\x01\x00\x00\x00\x02", 8);
  const std::string tuple_b("\x00\x00\x00\x01\x00\x00\x00\x03", 8);
  EXPECT_TRUE(set.insert_key(tuple_a));
  EXPECT_TRUE(set.insert_key(tuple_b));
  EXPECT_FALSE(set.insert_key(tuple_a));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.store_bytes(), tuple_a.size() + tuple_b.size());
}

TEST(ShardedSeenSet, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedSeenSet(ShardedSeenSet::Mode::kHash, 0).shard_count(), 1u);
  EXPECT_EQ(ShardedSeenSet(ShardedSeenSet::Mode::kHash, 1).shard_count(), 1u);
  EXPECT_EQ(ShardedSeenSet(ShardedSeenSet::Mode::kHash, 3).shard_count(), 4u);
  EXPECT_EQ(ShardedSeenSet(ShardedSeenSet::Mode::kHash, 16).shard_count(),
            16u);
  EXPECT_EQ(ShardedSeenSet(ShardedSeenSet::Mode::kHash, 17).shard_count(),
            32u);
}

TEST(ShardedSeenSet, SpreadsAcrossShardsByTopBits) {
  // Keys differing only in the top bits of `hi` land in different shards;
  // all are retained regardless.
  ShardedSeenSet set(ShardedSeenSet::Mode::kHash, 8);
  for (std::uint64_t top = 0; top < 8; ++top) {
    EXPECT_TRUE(set.insert(h(42, top << 61)));
  }
  EXPECT_EQ(set.size(), 8u);
}

TEST(ShardedSeenSet, ClearResetsCounts) {
  ShardedSeenSet set(ShardedSeenSet::Mode::kHash, 2);
  set.insert(h(1, 1));
  set.insert(h(2, 2));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.store_bytes(), 0u);
  EXPECT_TRUE(set.insert(h(1, 1)));
}

TEST(ShardedSeenSet, ConcurrentInsertsCountExactly) {
  // 4 workers insert overlapping ranges; exactly one worker wins each key
  // and the aggregate size matches the number of distinct keys.
  ShardedSeenSet set(ShardedSeenSet::Mode::kHash, 16);
  constexpr std::uint64_t kKeys = 20000;
  constexpr unsigned kWorkers = 4;
  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&set, &wins] {
      SplitMix64 mix(12345);  // same stream: all workers race on all keys
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const std::uint64_t lo = mix.next();
        if (set.insert(Hash128{lo, lo * 0x9e3779b97f4a7c15ULL})) {
          wins.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(set.size(), kKeys);
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_EQ(set.store_bytes(), kKeys * sizeof(Hash128));
}

TEST(ShardedSeenSet, ConcurrentFullStateInserts) {
  ShardedSeenSet set(ShardedSeenSet::Mode::kFullState, 8);
  constexpr int kBlobs = 2000;
  std::atomic<int> wins{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < 4; ++w) {
    workers.emplace_back([&set, &wins] {
      for (int i = 0; i < kBlobs; ++i) {
        std::string blob = "blob-" + std::to_string(i);
        if (set.insert_key(std::move(blob))) {
          wins.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(set.size(), static_cast<std::uint64_t>(kBlobs));
  EXPECT_EQ(wins.load(), kBlobs);
}


// ---- Slept records ---------------------------------------------------------

using Slept = std::vector<std::uint64_t>;

/// The slept-record cases run once in kHash mode and once in a byte-keyed
/// mode: `id` names a state, as its hash in kHash mode and as its key
/// otherwise.
constexpr ShardedSeenSet::Mode kArrivalModes[] = {
    ShardedSeenSet::Mode::kHash, ShardedSeenSet::Mode::kFullState};

Hash128 id_hash(const std::string& id) {
  // Every id shares the top bits, so all states land in one shard.
  return h(hash128({reinterpret_cast<const std::byte*>(id.data()),
                    id.size()})
               .lo,
           7);
}

ShardedSeenSet::Arrival arrive(ShardedSeenSet& set, const std::string& id,
                               const Slept& slept) {
  return set.mode() == ShardedSeenSet::Mode::kHash
             ? set.arrive(id_hash(id), slept)
             : set.arrive(id, slept);
}

/// store_bytes() of a set holding just the entries `ids`, no records.
std::uint64_t key_only_bytes(ShardedSeenSet::Mode mode,
                             const std::vector<std::string>& ids) {
  ShardedSeenSet plain(mode, 4);
  for (const std::string& id : ids) arrive(plain, id, {});
  return plain.store_bytes();
}

TEST(ShardedSeenSet, ArrivalKeepsSleptIntersection) {
  for (const ShardedSeenSet::Mode mode : kArrivalModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ShardedSeenSet set(mode, 4);
    const std::string id = "state-identity";
    const auto first = arrive(set, id, {10, 20});
    EXPECT_TRUE(first.first);
    EXPECT_TRUE(first.explore.empty());

    // Revisit with a smaller sleep set: the difference must be re-expanded
    // and the stored set shrinks to the intersection.
    const auto second = arrive(set, id, {20});
    EXPECT_FALSE(second.first);
    EXPECT_EQ(second.explore, (Slept{10}));

    // 10 is no longer stored-slept; arriving without 20 re-expands it.
    const auto third = arrive(set, id, {});
    EXPECT_FALSE(third.first);
    EXPECT_EQ(third.explore, (Slept{20}));
    const auto fourth = arrive(set, id, {});
    EXPECT_FALSE(fourth.first);
    EXPECT_TRUE(fourth.explore.empty());

    EXPECT_EQ(set.size(), 1u);
  }
}

TEST(ShardedSeenSet, SleptRecordsKeyOnTrueIdentity) {
  // Two distinct states in one shard keep separate slept records: the
  // record belongs to the entry (hash or key), never to a shard-selection
  // hash.
  for (const ShardedSeenSet::Mode mode : kArrivalModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ShardedSeenSet set(mode, 1);
    EXPECT_TRUE(arrive(set, "state-a", {10}).first);
    // A different state is a fresh first arrival, and its empty sleep set
    // must not dig into state-a's record.
    const auto other = arrive(set, "state-b", {});
    EXPECT_TRUE(other.first);
    EXPECT_TRUE(other.explore.empty());
    EXPECT_EQ(set.size(), 2u);

    // state-a's record survived untouched.
    const auto revisit = arrive(set, "state-a", {});
    EXPECT_FALSE(revisit.first);
    EXPECT_EQ(revisit.explore, (Slept{10}));
  }
}

TEST(ShardedSeenSet, EmptiedSleptRecordIsDropped) {
  for (const ShardedSeenSet::Mode mode : kArrivalModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ShardedSeenSet set(mode, 4);
    const std::uint64_t keys = key_only_bytes(mode, {"s"});
    arrive(set, "s", {1, 2, 3});
    EXPECT_GT(set.store_bytes(), keys + 3 * sizeof(std::uint64_t));
    // A partial intersection returns the three-hash record's difference
    // and gives back its bytes.
    const std::uint64_t three = set.store_bytes();
    EXPECT_EQ(arrive(set, "s", {2, 3}).explore, (Slept{1}));
    EXPECT_EQ(set.store_bytes(), three - sizeof(std::uint64_t));
    // The intersection empties: the record is dropped and the store holds
    // exactly what a search without reduction would.
    EXPECT_EQ(arrive(set, "s", {1}).explore, (Slept{2, 3}));
    EXPECT_EQ(set.store_bytes(), keys);
    Ser s;
    set.serialize(s);
    Ser plain;
    ShardedSeenSet unreduced(mode, 4);
    arrive(unreduced, "s", {});
    unreduced.serialize(plain);
    EXPECT_EQ(s.take(), plain.take());
    EXPECT_TRUE(arrive(set, "s", {1, 2, 3}).explore.empty());
  }
}

TEST(ShardedSeenSet, SleptRecordsRoundTripThroughSerialize) {
  for (const ShardedSeenSet::Mode mode : kArrivalModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ShardedSeenSet set(mode, 4);
    arrive(set, "a", {5, 9});
    arrive(set, "b", {});
    arrive(set, "c", {7});
    Ser s;
    set.serialize(s);
    const std::string bytes = s.take();

    // A different shard count re-derives placement from the entries.
    ShardedSeenSet back(mode, 16);
    Des d(bytes);
    ASSERT_TRUE(back.restore(d));
    EXPECT_TRUE(d.done());
    EXPECT_EQ(back.size(), 3u);
    EXPECT_EQ(back.store_bytes(), set.store_bytes());
    EXPECT_EQ(arrive(back, "a", {9}).explore, (Slept{5}));
    EXPECT_TRUE(arrive(back, "b", {}).explore.empty());
    EXPECT_EQ(arrive(back, "c", {}).explore, (Slept{7}));
  }
}

TEST(ShardedSeenSet, RestoreRejectsMalformedSleptRecords) {
  // A section for one entry "s" followed by hand-built records.
  const auto section = [](ShardedSeenSet::Mode mode,
                          const std::vector<std::pair<std::string, Slept>>&
                              records) {
    Ser s;
    s.put_u8(static_cast<std::uint8_t>(mode));
    s.put_u64(1);
    const auto put_entry = [&](const std::string& id) {
      if (mode == ShardedSeenSet::Mode::kHash) {
        s.put_u64(id_hash(id).lo);
        s.put_u64(id_hash(id).hi);
      } else {
        s.put_str(id);
      }
    };
    put_entry("s");
    s.put_u64(records.size());
    for (const auto& [id, hashes] : records) {
      put_entry(id);
      s.put_u64(hashes.size());
      for (const std::uint64_t th : hashes) s.put_u64(th);
    }
    return s.take();
  };
  const auto restores = [](ShardedSeenSet::Mode mode,
                           const std::string& bytes) {
    ShardedSeenSet set(mode, 4);
    Des d(bytes);
    return set.restore(d) && d.done();
  };
  for (const ShardedSeenSet::Mode mode : kArrivalModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    EXPECT_TRUE(restores(mode, section(mode, {{"s", {1, 2}}})));
    EXPECT_FALSE(restores(mode, section(mode, {{"absent", {1}}})));
    EXPECT_FALSE(restores(mode, section(mode, {{"s", {}}})));
    EXPECT_FALSE(restores(mode, section(mode, {{"s", {1}}, {"s", {2}}})));
    EXPECT_FALSE(restores(mode, section(mode, {{"s", {2, 1}}})));
  }
}

// ---- The flat hash-mode table -----------------------------------------------

/// `n` distinct pseudo-random hashes, plus {0,0} (the table's empty-slot
/// pattern, kept out of band) and a run sharing one `lo`, so their home
/// slots coincide and they probe past each other.
std::vector<Hash128> growth_hashes(std::size_t n) {
  std::vector<Hash128> out{Hash128{}};
  SplitMix64 mix(99);
  for (std::size_t i = 0; i < n; ++i) out.push_back(h(mix.next(), mix.next()));
  for (std::uint64_t i = 1; i <= 64; ++i) out.push_back(h(0, i));
  for (std::uint64_t i = 1; i <= 64; ++i) out.push_back(h(i, 0));
  return out;
}

TEST(ShardedSeenSet, HashMembershipSurvivesGrowth) {
  const std::vector<Hash128> hs = growth_hashes(50000);
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedSeenSet set(ShardedSeenSet::Mode::kHash, shards);
    EXPECT_EQ(set.size(), 0u);
    for (std::size_t i = 0; i < hs.size(); ++i) {
      ASSERT_TRUE(set.insert(hs[i])) << i;
      // An entry inserted before a growth is still found after it.
      ASSERT_FALSE(set.insert(hs[i / 2])) << i;
    }
    EXPECT_EQ(set.size(), hs.size());
    EXPECT_EQ(set.store_bytes(), hs.size() * sizeof(Hash128));
    for (const Hash128& x : hs) EXPECT_FALSE(set.insert(x));
    EXPECT_EQ(set.size(), hs.size());
  }
}

TEST(ShardedSeenSet, HashSleptRecordsSurviveGrowth) {
  // Records keyed on hash values, not slots: slots move on every growth.
  ShardedSeenSet set(ShardedSeenSet::Mode::kHash, 1);
  const std::vector<Hash128> hs = growth_hashes(20000);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(set.arrive(hs[i], Slept{i + 1, i + 2, 1000}).first);
  }
  for (std::size_t i = 40; i < hs.size(); ++i) set.insert(hs[i]);
  for (std::size_t i = 0; i < 40; ++i) {
    SCOPED_TRACE(i);
    const ShardedSeenSet::Arrival again = set.arrive(hs[i], Slept{i + 2});
    EXPECT_FALSE(again.first);
    EXPECT_EQ(again.explore, (Slept{i + 1, 1000}));
    EXPECT_EQ(set.arrive(hs[i], Slept{}).explore, (Slept{i + 2}));
    EXPECT_TRUE(set.arrive(hs[i], Slept{}).explore.empty());
  }
  EXPECT_EQ(set.store_bytes(), hs.size() * sizeof(Hash128));
}

TEST(ShardedSeenSet, HashSectionRoundTripsAfterGrowth) {
  const std::vector<Hash128> hs = growth_hashes(20000);
  ShardedSeenSet set(ShardedSeenSet::Mode::kHash, 4);
  // The {0,0} entry (hs[0]) carries a record.
  EXPECT_TRUE(set.arrive(hs[0], Slept{4}).first);
  for (std::size_t i = 1; i < hs.size(); ++i) set.insert(hs[i]);
  EXPECT_TRUE(set.arrive(h(5, 5), Slept{3, 8}).first);
  Ser s;
  set.serialize(s);

  ShardedSeenSet back(ShardedSeenSet::Mode::kHash, 2);
  Des d(s.view());
  ASSERT_TRUE(back.restore(d));
  EXPECT_TRUE(d.done());
  EXPECT_EQ(back.size(), set.size());
  EXPECT_EQ(back.store_bytes(), set.store_bytes());
  // (An insert is an arrival with nothing asleep: it would empty the
  // records, so the entries that carry one are checked by arriving.)
  for (std::size_t i = 1; i < hs.size(); ++i) EXPECT_FALSE(back.insert(hs[i]));
  EXPECT_EQ(back.arrive(h(5, 5), Slept{8}).explore, (Slept{3}));
  const ShardedSeenSet::Arrival zero = back.arrive(hs[0], Slept{});
  EXPECT_FALSE(zero.first);
  EXPECT_EQ(zero.explore, (Slept{4}));
  EXPECT_EQ(back.size(), set.size());
}

}  // namespace
}  // namespace nicemc::util
