// Hashing utilities used for state matching in the model checker.
//
// The paper (Section 6, "Model checker details") matches states by hashing a
// canonical serialization of the whole system state (Python cPickle + hash).
// We use 128-bit FNV-1a over the canonical byte serialization produced by
// util/ser.h, which makes accidental collisions negligible for the state
// counts involved (< 2^26 states in the largest experiment).
#ifndef NICE_UTIL_HASH_H
#define NICE_UTIL_HASH_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace nicemc::util {

/// 128-bit hash value (two independent 64-bit FNV-1a streams with distinct
/// offset bases). Comparable and usable as a key in ordered/unordered maps.
struct Hash128 {
  std::uint64_t lo{0};
  std::uint64_t hi{0};

  friend bool operator==(const Hash128&, const Hash128&) = default;
  friend auto operator<=>(const Hash128&, const Hash128&) = default;
};

/// FNV-1a over a byte span, 64-bit, with a configurable offset basis so the
/// two halves of Hash128 are decorrelated.
std::uint64_t fnv1a64(std::span<const std::byte> bytes,
                      std::uint64_t basis = 0xcbf29ce484222325ULL) noexcept;

/// 128-bit hash of a byte span.
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
/// The two 64-bit streams stay independent (lo combines with lo, hi with
/// hi), mirroring how hash128() derives them from distinct FNV bases. Order
/// sensitive: combining [a, b] and [b, a] gives different results.
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
