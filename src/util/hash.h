// Hashing utilities used for state matching in the model checker.
//
// The paper (Section 6, "Model checker details") matches states by hashing a
// canonical serialization of the whole system state (Python cPickle + hash).
// We use a 128-bit word-at-a-time hash over the canonical byte serialization
// produced by util/ser.h, which makes accidental collisions negligible for
// the state counts involved (< 2^26 states in the largest experiment).
#ifndef NICE_UTIL_HASH_H
#define NICE_UTIL_HASH_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace nicemc::util {

/// 128-bit hash value: two 64-bit halves that depend on every input bit.
/// Comparable and usable as a key in ordered/unordered maps.
struct Hash128 {
  std::uint64_t lo{0};
  std::uint64_t hi{0};

  friend bool operator==(const Hash128&, const Hash128&) = default;
  friend auto operator<=>(const Hash128&, const Hash128&) = default;
};

/// 128-bit hash of a byte span. Two 64-bit lanes, seeded with the length,
/// consume 16-byte blocks (the 0-15 byte tail zero-padded) through a
/// 64×64→128 multiply folded to 64 bits; an invertible cross-lane
/// avalanche ends it. Words are read little-endian, so values are the same
/// on every host: seen-set keys and checkpoints depend on them.
Hash128 hash128(std::span<const std::byte> bytes) noexcept;

/// Boost-style combiner for incremental 64-bit hashing.
constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                     std::uint64_t v) noexcept {
  // splitmix64 finalizer on v, xor-rotated into seed.
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Fold a component's 128-bit hash into a running 128-bit combined hash.
/// The two 64-bit streams stay apart (lo combines with lo, hi with hi).
/// Order sensitive: combining [a, b] and [b, a] gives different results.
constexpr Hash128 hash128_combine(const Hash128& seed,
                                  const Hash128& v) noexcept {
  return Hash128{hash_combine(seed.lo, v.lo), hash_combine(seed.hi, v.hi)};
}

/// Fold a plain integer (a count, a counter) into a combined 128-bit hash.
constexpr Hash128 hash128_combine(const Hash128& seed,
                                  std::uint64_t v) noexcept {
  // Offset the hi stream so the two halves see decorrelated inputs.
  return Hash128{hash_combine(seed.lo, v),
                 hash_combine(seed.hi, v + 0x9e3779b97f4a7c15ULL)};
}

/// Transparent hasher for unordered containers keyed by std::string: lets
/// lookups probe with a string_view without materializing a std::string
/// (pair with std::equal_to<> as KeyEqual). Used by the byte-keyed
/// lock-striped CollapseTable.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Deterministic, seedable PRNG (splitmix64). Used for random-walk search;
/// never std::rand, so runs are reproducible from the seed.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform value in [0, bound). bound must be > 0.
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    return next() % bound;
  }

  /// The raw generator state — checkpointable: restoring it reproduces
  /// the exact remaining output sequence.
  [[nodiscard]] constexpr std::uint64_t state() const noexcept {
    return state_;
  }
  constexpr void set_state(std::uint64_t s) noexcept { state_ = s; }

 private:
  std::uint64_t state_;
};

}  // namespace nicemc::util

template <>
struct std::hash<nicemc::util::Hash128> {
  std::size_t operator()(const nicemc::util::Hash128& h) const noexcept {
    return static_cast<std::size_t>(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ULL));
  }
};

#endif  // NICE_UTIL_HASH_H
