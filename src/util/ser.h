// Canonical byte serialization for state hashing and state comparison.
//
// Every model component (flow tables, channels, host state, controller app
// state, property-monitor state) serializes itself into a Ser buffer; the
// model checker hashes the buffer to detect revisited states (paper
// Section 6). Two states are "the same" exactly when their canonical
// serializations are byte-identical, so serializers must write data in a
// canonical order (e.g. std::map iteration, canonically sorted flow tables).
//
// The buffer is std::string-backed so a finished serialization can be moved
// out with take() — straight into the full-state seen-set — without a copy,
// and so append() of a cached component form is a single memcpy.
#ifndef NICE_UTIL_SER_H
#define NICE_UTIL_SER_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace nicemc::util {

/// Append-only canonical byte buffer.
class Ser {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  // Multi-byte integers are big-endian. Each writes its whole word with
  // one append: byte-at-a-time push_back dominated state-key building.
  void put_u16(std::uint16_t v) { put_be<2>(v); }
  void put_u32(std::uint32_t v) { put_be<4>(v); }
  void put_u64(std::uint64_t v) { put_be<8>(v); }

  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Length-prefixed string (prevents ambiguity between adjacent fields).
  void put_str(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }

  /// Tag byte for discriminating variants / sections; improves hash quality
  /// and debuggability of canonical forms.
  void put_tag(char c) { put_u8(static_cast<std::uint8_t>(c)); }

  template <typename T>
  void put_vec(const std::vector<T>& v, void (*f)(Ser&, const T&)) {
    put_u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) f(*this, x);
  }

  /// Serialize any type that exposes `void serialize(Ser&) const`.
  template <typename T>
  void put(const T& v) {
    v.serialize(*this);
  }

  /// Ordered map of integers — iteration order of std::map is canonical.
  void put_map_u64(const std::map<std::uint64_t, std::uint64_t>& m) {
    put_u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      put_u64(k);
      put_u64(v);
    }
  }

  /// Bulk-append raw bytes (e.g. a memoized component serialization).
  void append(std::string_view bytes) { buf_.append(bytes); }
  void append(std::span<const std::byte> bytes) {
    buf_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  /// Pre-size the buffer so repeated puts do not regrow it.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {reinterpret_cast<const std::byte*>(buf_.data()), buf_.size()};
  }
  [[nodiscard]] std::string_view view() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] Hash128 hash() const noexcept { return hash128(bytes()); }

  /// Move the accumulated bytes out, leaving the buffer empty (and its
  /// capacity surrendered with it). The caller owns the returned string —
  /// no copy is made.
  [[nodiscard]] std::string take() noexcept {
    std::string out = std::move(buf_);
    buf_.clear();  // moved-from state is unspecified; make it empty again
    return out;
  }

  void clear() noexcept { buf_.clear(); }

 private:
  template <std::size_t N>
  void put_be(std::uint64_t v) {
    char b[N];
    for (std::size_t i = 0; i < N; ++i) {
      b[i] = static_cast<char>(v >> (8 * (N - 1 - i)));
    }
    buf_.append(b, N);
  }

  std::string buf_;
};

/// Hash any serializable object in one call.
template <typename T>
Hash128 hash_of(const T& v) {
  Ser s;
  v.serialize(s);
  return s.hash();
}

/// Bounds-checked reader over bytes produced by Ser — the inverse half of
/// the serialization layer, used by the checkpoint/restore subsystem
/// (mc/checkpoint.h). Unlike the writer, the reader must survive hostile
/// input: a truncated or bit-flipped checkpoint may present impossible
/// lengths and counts, so every read is range-checked and the first
/// failure latches `ok() == false` (subsequent reads return zero values
/// and never touch memory out of range). Callers check ok() at section
/// boundaries instead of after every field.
class Des {
 public:
  explicit Des(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  [[nodiscard]] std::uint8_t get_u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(*p_++);
  }

  [[nodiscard]] std::uint16_t get_u16() {
    const std::uint16_t hi = get_u8();
    return static_cast<std::uint16_t>((hi << 8) | get_u8());
  }

  [[nodiscard]] std::uint32_t get_u32() {
    const std::uint32_t hi = get_u16();
    return (hi << 16) | get_u16();
  }

  [[nodiscard]] std::uint64_t get_u64() {
    const std::uint64_t hi = get_u32();
    return (hi << 32) | get_u32();
  }

  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }

  [[nodiscard]] bool get_bool() { return get_u8() != 0; }

  /// Length-prefixed string written by Ser::put_str. The returned view
  /// aliases the input buffer (no copy); empty on underflow.
  [[nodiscard]] std::string_view get_str() {
    const std::uint32_t n = get_u32();
    if (!need(n)) return {};
    const std::string_view out(p_, n);
    p_ += n;
    return out;
  }

  /// An element count about to drive a loop of elements each at least
  /// `min_elem_bytes` long. Rejects counts the remaining bytes cannot
  /// possibly satisfy, so corrupt headers can never trigger huge
  /// allocations or quadratic scans.
  [[nodiscard]] std::uint64_t get_count(std::size_t min_elem_bytes = 1) {
    const std::uint64_t n = get_u64();
    if (min_elem_bytes == 0) min_elem_bytes = 1;
    if (n > remaining() / min_elem_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when the buffer was fully and cleanly consumed.
  [[nodiscard]] bool done() const noexcept { return ok_ && p_ == end_; }
  /// Latch a caller-detected inconsistency (bad tag, mismatched id, ...).
  void fail() noexcept { ok_ = false; }

 private:
  bool need(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      p_ = end_;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool ok_{true};
};

}  // namespace nicemc::util

#endif  // NICE_UTIL_SER_H
