#include "util/hash.h"

#include <bit>
#include <cstring>

namespace nicemc::util {

namespace {

// Distinct odd multiplicand constants, one per (lane, block word), from
// wyhash's published primes.
constexpr std::uint64_t kLo0 = 0xa0761d6478bd642fULL;
constexpr std::uint64_t kLo1 = 0xe7037ed1a0b428dbULL;
constexpr std::uint64_t kHi0 = 0x8ebc6af09c88c6e3ULL;
constexpr std::uint64_t kHi1 = 0x589965cc75374cc3ULL;
// Length seeds: both have the top bit set, so `n ^ seed` is never zero.
constexpr std::uint64_t kSeedLo = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kSeedHi = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kSeedMul = 0x1d8e4e27c47d124fULL;

/// 64×64→128 multiply folded to 64 bits.
[[gnu::always_inline]] inline std::uint64_t mix(std::uint64_t a,
                                                std::uint64_t b) noexcept {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

/// A little-endian 64-bit word, whatever the host's byte order.
[[gnu::always_inline]] inline std::uint64_t load64(const std::byte* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// The splitmix64 finalizer: a bijection on 64 bits with full avalanche.
[[gnu::always_inline]] inline std::uint64_t avalanche(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Hash128 hash128(std::span<const std::byte> bytes) noexcept {
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t lo = mix(n ^ kSeedLo, kSeedMul);
  std::uint64_t hi = mix(n ^ kSeedHi, kSeedMul);
  // One 16-byte block into both lanes. The lane state enters both
  // multiplicands (rotated in the second), so no block word can zero a
  // multiplicand on its own and reset the lane.
  const auto absorb = [&lo, &hi](const std::byte* block) {
    const std::uint64_t w0 = load64(block);
    const std::uint64_t w1 = load64(block + 8);
    lo = mix(w0 ^ kLo0 ^ lo, w1 ^ kLo1 ^ std::rotl(lo, 32));
    hi = mix(w0 ^ kHi0 ^ hi, w1 ^ kHi1 ^ std::rotl(hi, 32));
  };
  for (; n >= 16; n -= 16, p += 16) absorb(p);
  if (n != 0) {
    std::byte tail[16] = {};
    std::memcpy(tail, p, n);
    absorb(tail);
  }
  // Cross-lane avalanche, invertible so it adds no collisions: every
  // input bit reaches both output halves.
  lo = avalanche(lo + hi);
  hi = avalanche(hi ^ lo);
  return Hash128{.lo = lo, .hi = hi};
}

}  // namespace nicemc::util
