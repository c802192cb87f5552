#include "util/seen_set.h"

#include <algorithm>

namespace nicemc::util {

namespace {

/// Placement hash of a key-mode entry: a pure function of the key bytes,
/// so the shard an entry lands in can be re-derived from the entry alone
/// (checkpoint restore) and never depends on caller-supplied state hashes.
Hash128 key_placement(std::string_view key) {
  return hash128({reinterpret_cast<const std::byte*>(key.data()), key.size()});
}

/// Coarse per-record accounting overhead (map node, bucket, vector and its
/// heap block) in store_bytes() — the memory watchdog needs honest
/// magnitudes, not exact heap telemetry.
constexpr std::uint64_t kRecordOverhead = 64;

std::uint64_t entry_bytes(const Hash128& h) { return sizeof(h); }
std::uint64_t entry_bytes(const std::string& key) { return key.size(); }

}  // namespace

ShardedSeenSet::ShardedSeenSet(Mode mode, std::size_t shards)
    : mode_(mode), select_(shards) {
  shards_.reserve(select_.count());
  for (std::size_t i = 0; i < select_.count(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

template <typename Set, typename Value>
ShardedSeenSet::Arrival ShardedSeenSet::arrive_locked(
    Shard& s, Set& set, Value&& value, std::span<const std::uint64_t> slept) {
  Arrival out;
  const auto [it, inserted] = set.insert(std::forward<Value>(value));
  if (inserted) {
    out.first = true;
    s.bytes += entry_bytes(*it);
    if (!slept.empty()) {
      s.slept.emplace(&*it,
                      std::vector<std::uint64_t>(slept.begin(), slept.end()));
      s.bytes += kRecordOverhead + slept.size() * sizeof(std::uint64_t);
    }
    return out;
  }
  const auto rec = s.slept.find(&*it);
  if (rec == s.slept.end()) return out;

  // Revisit: expand what every earlier arrival slept but this one does
  // not, and shrink the record to the intersection in place.
  std::vector<std::uint64_t>& stored = rec->second;
  std::size_t kept = 0;
  for (const std::uint64_t th : stored) {
    if (std::binary_search(slept.begin(), slept.end(), th)) {
      stored[kept++] = th;
    } else {
      out.explore.push_back(th);
    }
  }
  stored.resize(kept);
  s.bytes -= out.explore.size() * sizeof(std::uint64_t);
  if (stored.empty()) {
    s.slept.erase(rec);
    s.bytes -= kRecordOverhead;
  }
  return out;
}

ShardedSeenSet::Arrival ShardedSeenSet::arrive(
    const Hash128& h, std::span<const std::uint64_t> slept) {
  Shard& s = shard_of(h);
  std::lock_guard<std::mutex> lock(s.mu);
  return arrive_locked(s, s.hashes, h, slept);
}

ShardedSeenSet::Arrival ShardedSeenSet::arrive(
    std::string key, std::span<const std::uint64_t> slept) {
  Shard& s = shard_of(key_placement(key));
  std::lock_guard<std::mutex> lock(s.mu);
  return arrive_locked(s, s.keys, std::move(key), slept);
}

std::uint64_t ShardedSeenSet::size() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->hashes.size() + s->keys.size();
  }
  return total;
}

std::uint64_t ShardedSeenSet::store_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    total += s->bytes;
  }
  return total;
}

void ShardedSeenSet::serialize(Ser& s) const {
  const auto put_hash = [&s](const Hash128& h) {
    s.put_u64(h.lo);
    s.put_u64(h.hi);
  };
  s.put_u8(static_cast<std::uint8_t>(mode_));
  s.put_u64(size());
  std::uint64_t records = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    for (const Hash128& h : sh->hashes) put_hash(h);
    for (const std::string& k : sh->keys) s.put_str(k);
    records += sh->slept.size();
  }
  s.put_u64(records);
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    for (const auto& [entry, hashes] : sh->slept) {
      if (mode_ == Mode::kHash) {
        put_hash(*static_cast<const Hash128*>(entry));
      } else {
        s.put_str(*static_cast<const std::string*>(entry));
      }
      s.put_u64(hashes.size());
      for (const std::uint64_t th : hashes) s.put_u64(th);
    }
  }
}

bool ShardedSeenSet::restore_record(Des& d, Shard& s, const void* entry) {
  const std::uint64_t n = d.get_count(sizeof(std::uint64_t));
  if (n == 0) d.fail();  // only non-empty records are ever stored
  std::vector<std::uint64_t> hashes;
  hashes.reserve(n);
  for (std::uint64_t i = 0; i < n && d.ok(); ++i) {
    hashes.push_back(d.get_u64());
    // Sorted and duplicate-free, as arrive() keeps them.
    if (i > 0 && hashes[i] <= hashes[i - 1]) d.fail();
  }
  if (!d.ok() || !s.slept.emplace(entry, std::move(hashes)).second) {
    return false;  // malformed, or a second record for one entry
  }
  s.bytes += kRecordOverhead + n * sizeof(std::uint64_t);
  return true;
}

bool ShardedSeenSet::restore(Des& d) {
  const auto get_hash = [&d] {
    Hash128 h;
    h.lo = d.get_u64();
    h.hi = d.get_u64();
    return h;
  };
  if (static_cast<Mode>(d.get_u8()) != mode_) d.fail();
  const std::uint64_t n =
      d.get_count(mode_ == Mode::kHash ? sizeof(Hash128) : 4);
  if (!d.ok()) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (mode_ == Mode::kHash) {
      const Hash128 h = get_hash();
      if (!d.ok()) return false;
      insert(h);
    } else {
      const std::string_view k = d.get_str();
      if (!d.ok()) return false;
      insert_key(std::string(k));
    }
  }
  // Slept records: an entry + at least one hash each.
  const std::uint64_t records = d.get_count(
      (mode_ == Mode::kHash ? sizeof(Hash128) : 4) + 2 * sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < records && d.ok(); ++i) {
    const bool hash_mode = mode_ == Mode::kHash;
    const Hash128 h = hash_mode ? get_hash() : Hash128{};
    const std::string k = hash_mode ? std::string() : std::string(d.get_str());
    Shard& s = shard_of(hash_mode ? h : key_placement(k));
    std::lock_guard<std::mutex> lock(s.mu);
    const auto find = [](const auto& set, const auto& v) -> const void* {
      const auto it = set.find(v);
      return it == set.end() ? nullptr : &*it;
    };
    // A record must name a stored entry.
    const void* entry = hash_mode ? find(s.hashes, h) : find(s.keys, k);
    if (!d.ok() || entry == nullptr || !restore_record(d, s, entry)) {
      return false;
    }
  }
  return d.ok();
}

void ShardedSeenSet::clear() {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->hashes.clear();
    s->keys.clear();
    s->slept.clear();
    s->bytes = 0;
  }
}

}  // namespace nicemc::util
