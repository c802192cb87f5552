#include "util/hash.h"

namespace nicemc::util {

std::uint64_t fnv1a64(std::span<const std::byte> bytes,
                      std::uint64_t basis) noexcept {
  std::uint64_t h = basis;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x00000100000001b3ULL;
  }
  return h;
}

Hash128 hash128(std::span<const std::byte> bytes) noexcept {
  // Two FNV-1a streams with independent offset bases (the second basis is
  // the first run through the splitmix64 finalizer), advanced together in
  // one pass: each half equals fnv1a64(bytes, its basis), and the two
  // independent multiply chains overlap in the pipeline.
  std::uint64_t lo = 0xcbf29ce484222325ULL;
  std::uint64_t hi = 0x9ae16a3b2f90404fULL;
  for (std::byte b : bytes) {
    lo = (lo ^ static_cast<std::uint64_t>(b)) * 0x00000100000001b3ULL;
    hi = (hi ^ static_cast<std::uint64_t>(b)) * 0x00000100000001b3ULL;
  }
  return Hash128{.lo = lo, .hi = hi};
}

}  // namespace nicemc::util
