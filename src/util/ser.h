// Canonical byte serialization for state hashing and state comparison.
//
// Every model component (flow tables, channels, host state, controller app
// state, property-monitor state) serializes itself into a Ser buffer; the
// model checker hashes the buffer to detect revisited states (paper
// Section 6). Two states are "the same" exactly when their canonical
// serializations are byte-identical, so serializers must write data in a
// canonical order (e.g. std::map iteration, canonically sorted flow tables).
//
// Ser is a cursor over its own storage: every put_* is one bounds check
// and a direct store through the cursor (building state keys is mostly
// these puts), and the storage grows geometrically without zero-filling.
// The first kInline bytes live inside the object, so a fresh short-lived
// Ser (a transition hash) allocates nothing. take() copies the bytes out
// into a std::string; hot paths hash view()/bytes() in place, or copy
// once from a reused per-thread Ser.
#ifndef NICE_UTIL_SER_H
#define NICE_UTIL_SER_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
  Ser() noexcept {}  // user-provided: Ser{} must not zero the inline buffer
  ~Ser() { release(); }
  Ser(const Ser&) = delete;
  Ser& operator=(const Ser&) = delete;

  [[gnu::always_inline]] void put_u8(std::uint8_t v) {
    char* p = room(1);
    *p = static_cast<char>(v);
    cur_ = p + 1;
  }

  // Multi-byte integers are big-endian, written as one word store. The
  // puts are forced inline: in the big serializers the inliner would
  // otherwise leave each one an out-of-line call.
  [[gnu::always_inline]] void put_u16(std::uint16_t v) { put_be(v); }
  [[gnu::always_inline]] void put_u32(std::uint32_t v) { put_be(v); }
  [[gnu::always_inline]] void put_u64(std::uint64_t v) { put_be(v); }

  [[gnu::always_inline]] void put_i64(std::int64_t v) {
    put_u64(static_cast<std::uint64_t>(v));
  }

  [[gnu::always_inline]] void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Length-prefixed string (prevents ambiguity between adjacent fields).
  void put_str(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    append(s);
  }

  /// Tag byte for discriminating variants / sections; improves hash quality
  /// and debuggability of canonical forms.
  [[gnu::always_inline]] void put_tag(char c) {
    put_u8(static_cast<std::uint8_t>(c));
  }

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
  void append(std::string_view bytes) {
    if (bytes.empty()) return;
    char* p = room(bytes.size());
    std::memcpy(p, bytes.data(), bytes.size());
    cur_ = p + bytes.size();
  }
  void append(std::span<const std::byte> bytes) {
    append(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size()));
  }

  /// Pre-size the buffer so repeated puts do not regrow it.
  void reserve(std::size_t n) {
    if (n > capacity()) grow_to(n);
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {reinterpret_cast<const std::byte*>(base_), size()};
  }
  [[nodiscard]] std::string_view view() const noexcept {
    return {base_, size()};
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(cur_ - base_);
  }
  [[nodiscard]] Hash128 hash() const noexcept { return hash128(bytes()); }

  /// The accumulated bytes as a string, leaving the buffer empty (its
  /// capacity is kept for reuse).
  [[nodiscard]] std::string take() {
    std::string out(view());
    clear();
    return out;
  }

  void clear() noexcept { cur_ = base_; }

 private:
  static constexpr std::size_t kInline = 128;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return static_cast<std::size_t>(end_ - base_);
  }

  /// Where the next `n` bytes go (the caller advances cur_ past them).
  [[gnu::always_inline]] char* room(std::size_t n) {
    if (static_cast<std::size_t>(end_ - cur_) < n) grow_to(size() + n);
    return cur_;
  }

  /// Out-of-line slow path: capacity ≥ max(need, 2 × capacity), keeping
  /// the bytes written so far (new storage is not zero-filled).
  void grow_to(std::size_t need);

  void release() noexcept {
    if (base_ != inline_) delete[] base_;
  }

  template <typename U>
  [[gnu::always_inline]] void put_be(U v) {
    if constexpr (std::endian::native == std::endian::little) {
      if constexpr (sizeof(U) == 2) v = __builtin_bswap16(v);
      if constexpr (sizeof(U) == 4) v = __builtin_bswap32(v);
      if constexpr (sizeof(U) == 8) v = __builtin_bswap64(v);
    }
    char* p = room(sizeof(U));
    std::memcpy(p, &v, sizeof(U));
    cur_ = p + sizeof(U);
  }

  // The cursors start on the inline buffer.
  char inline_[kInline];
  char* base_{inline_};
  char* cur_{inline_};
  char* end_{inline_ + kInline};
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
