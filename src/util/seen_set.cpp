#include "util/seen_set.h"

#include <algorithm>
#include <cstdlib>
#include <new>

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

}  // namespace

// ---- HashSlots --------------------------------------------------------------

void ShardedSeenSet::HashSlots::Free::operator()(Hash128* p) const noexcept {
  std::free(p);
}

bool ShardedSeenSet::HashSlots::insert(const Hash128& h) {
  if (empty_slot(h)) {
    const bool fresh = !has_zero_;
    has_zero_ = true;
    return fresh;
  }
  if (!slots_) grow();
  std::size_t i = probe(h);
  if (slots_[i] == h) return false;
  if (4 * (used_ + 1) > 3 * capacity()) {
    grow();
    i = probe(h);
  }
  slots_[i] = h;
  ++used_;
  return true;
}

bool ShardedSeenSet::HashSlots::contains(const Hash128& h) const {
  if (empty_slot(h)) return has_zero_;
  return slots_ && slots_[probe(h)] == h;
}

void ShardedSeenSet::HashSlots::grow() {
  constexpr unsigned kFirstLog2 = 6;  // 64 slots, 1 KiB
  const unsigned lg = slots_ ? 64 - shift_ + 1 : kFirstLog2;
  const std::size_t cap = std::size_t{1} << lg;
  // calloc: large tables come zeroed from the OS, pages touched on use.
  std::unique_ptr<Hash128[], Free> fresh(
      static_cast<Hash128*>(std::calloc(cap, sizeof(Hash128))));
  if (!fresh) throw std::bad_alloc();
  const std::size_t old_cap = capacity();
  std::unique_ptr<Hash128[], Free> old = std::move(slots_);
  slots_ = std::move(fresh);
  mask_ = cap - 1;
  shift_ = 64 - lg;
  for (std::size_t j = 0; j < old_cap; ++j) {
    if (!empty_slot(old[j])) slots_[probe(old[j])] = old[j];
  }
}

void ShardedSeenSet::HashSlots::clear() noexcept {
  slots_.reset();
  mask_ = 0;
  shift_ = 64;
  used_ = 0;
  has_zero_ = false;
}

// ---- ShardedSeenSet ---------------------------------------------------------

ShardedSeenSet::ShardedSeenSet(Mode mode, std::size_t shards)
    : mode_(mode), select_(shards) {
  shards_.reserve(select_.count());
  for (std::size_t i = 0; i < select_.count(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

template <typename Records, typename Entry>
ShardedSeenSet::Arrival ShardedSeenSet::arrive_locked(
    Shard& s, Records& records, const Entry& entry, bool inserted,
    std::uint64_t entry_bytes, std::span<const std::uint64_t> slept) {
  Arrival out;
  if (inserted) {
    out.first = true;
    s.bytes += entry_bytes;
    if (!slept.empty()) {
      records.emplace(entry,
                      std::vector<std::uint64_t>(slept.begin(), slept.end()));
      s.bytes += kRecordOverhead + slept.size() * sizeof(std::uint64_t);
    }
    return out;
  }
  const auto rec = records.find(entry);
  if (rec == records.end()) return out;

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
    records.erase(rec);
    s.bytes -= kRecordOverhead;
  }
  return out;
}

ShardedSeenSet::Arrival ShardedSeenSet::arrive(
    const Hash128& h, std::span<const std::uint64_t> slept) {
  Shard& s = shard_of(h);
  std::lock_guard<std::mutex> lock(s.mu);
  const bool inserted = s.hashes.insert(h);
  return arrive_locked(s, s.slept_hashes, h, inserted, sizeof(Hash128),
                       slept);
}

ShardedSeenSet::Arrival ShardedSeenSet::arrive(
    std::string key, std::span<const std::uint64_t> slept) {
  Shard& s = shard_of(key_placement(key));
  std::lock_guard<std::mutex> lock(s.mu);
  const auto [it, inserted] = s.keys.insert(std::move(key));
  const void* entry = &*it;
  return arrive_locked(s, s.slept_keys, entry, inserted, it->size(), slept);
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
  const auto put_record = [&s](const std::vector<std::uint64_t>& hashes) {
    s.put_u64(hashes.size());
    for (const std::uint64_t th : hashes) s.put_u64(th);
  };
  s.put_u8(static_cast<std::uint8_t>(mode_));
  s.put_u64(size());
  std::uint64_t records = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->hashes.for_each(put_hash);
    for (const std::string& k : sh->keys) s.put_str(k);
    records += sh->slept_hashes.size() + sh->slept_keys.size();
  }
  s.put_u64(records);
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    for (const auto& [h, hashes] : sh->slept_hashes) {
      put_hash(h);
      put_record(hashes);
    }
    for (const auto& [entry, hashes] : sh->slept_keys) {
      s.put_str(*static_cast<const std::string*>(entry));
      put_record(hashes);
    }
  }
}

template <typename Records, typename Entry>
bool ShardedSeenSet::restore_record(Des& d, Shard& s, Records& records,
                                    const Entry& entry) {
  const std::uint64_t n = d.get_count(sizeof(std::uint64_t));
  if (n == 0) d.fail();  // only non-empty records are ever stored
  std::vector<std::uint64_t> hashes;
  hashes.reserve(n);
  for (std::uint64_t i = 0; i < n && d.ok(); ++i) {
    hashes.push_back(d.get_u64());
    // Sorted and duplicate-free, as arrive() keeps them.
    if (i > 0 && hashes[i] <= hashes[i - 1]) d.fail();
  }
  if (!d.ok() || !records.emplace(entry, std::move(hashes)).second) {
    return false;  // malformed, or a second record for one entry
  }
  s.bytes += kRecordOverhead + n * sizeof(std::uint64_t);
  return true;
}

bool ShardedSeenSet::restore(Des& d) {
  const bool hash_mode = mode_ == Mode::kHash;
  const auto get_hash = [&d] {
    Hash128 h;
    h.lo = d.get_u64();
    h.hi = d.get_u64();
    return h;
  };
  if (static_cast<Mode>(d.get_u8()) != mode_) d.fail();
  const std::uint64_t n = d.get_count(hash_mode ? sizeof(Hash128) : 4);
  if (!d.ok()) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (hash_mode) {
      const Hash128 h = get_hash();
      if (!d.ok()) return false;
      insert(h);
    } else {
      const std::string_view k = d.get_str();
      if (!d.ok()) return false;
      insert_key(std::string(k));
    }
  }
  // Slept records: an entry + at least one hash each. A record must name
  // a stored entry.
  const std::uint64_t records = d.get_count(
      (hash_mode ? sizeof(Hash128) : 4) + 2 * sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < records && d.ok(); ++i) {
    if (hash_mode) {
      const Hash128 h = get_hash();
      Shard& s = shard_of(h);
      std::lock_guard<std::mutex> lock(s.mu);
      if (!d.ok() || !s.hashes.contains(h) ||
          !restore_record(d, s, s.slept_hashes, h)) {
        return false;
      }
    } else {
      const std::string k(d.get_str());
      Shard& s = shard_of(key_placement(k));
      std::lock_guard<std::mutex> lock(s.mu);
      const auto it = s.keys.find(k);
      if (!d.ok() || it == s.keys.end() ||
          !restore_record(d, s, s.slept_keys,
                          static_cast<const void*>(&*it))) {
        return false;
      }
    }
  }
  return d.ok();
}

void ShardedSeenSet::clear() {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->hashes.clear();
    s->keys.clear();
    s->slept_hashes.clear();
    s->slept_keys.clear();
    s->bytes = 0;
  }
}

}  // namespace nicemc::util
