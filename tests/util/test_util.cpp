#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <vector>

#include "util/hash.h"
#include "util/ser.h"
#include "util/strings.h"

namespace nicemc::util {
namespace {

TEST(Hash, Hash128HalvesAreIndependent) {
  const std::byte data[] = {std::byte{1}, std::byte{2}, std::byte{3}};
  const Hash128 h = hash128(data);
  EXPECT_NE(h.lo, h.hi);
}

/// `n` bytes of a fixed pattern: byte i is (131 i + 7) mod 256.
std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }
  return v;
}

/// `n` bytes drawn from `rng`.
std::vector<std::byte> random_bytes(SplitMix64& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::byte& b : v) b = static_cast<std::byte>(rng.next() & 0xff);
  return v;
}

TEST(Hash, Hash128KnownAnswers) {
  // Seen-set keys, checkpoints and shard placement store these values, so
  // they must not drift with the host's byte order or the tail handling:
  // the lengths cover empty input, each side of the 8-byte word and of the
  // 16-byte block, two blocks and a switch-sized serialization.
  struct Answer {
    std::size_t n;
    Hash128 h;
  };
  const Answer answers[] = {
      {0, {0xec7f2e7e68e5289dULL, 0x6a3575d929bebca1ULL}},
      {1, {0x9755561b9f644808ULL, 0x732c0bfc76fef96eULL}},
      {7, {0xca91cda9d35750b2ULL, 0x3cc06db61acef591ULL}},
      {8, {0x15d724feaa4255e7ULL, 0x2aec4d3f3afd91d9ULL}},
      {9, {0x06cdc7e41e7c7454ULL, 0x138f8b13652e5f3dULL}},
      {15, {0xa40753d88ed591cdULL, 0x6ca390367cf2a09eULL}},
      {16, {0x4857a77589f8406dULL, 0x411e47d2f699f8ddULL}},
      {17, {0x22ced9dc3eba322aULL, 0x3870d401276fd8cdULL}},
      {31, {0x3d179975066d7dd6ULL, 0xd46f28b081804f86ULL}},
      {32, {0xba9a320be2b09824ULL, 0x848081c9804d5c8bULL}},
      {33, {0xb9e9a09e7d28bb0bULL, 0x544ebd620bb39152ULL}},
      {400, {0xb4f74aa2dda0d4c0ULL, 0x242a256aefec89a5ULL}},
  };
  for (const Answer& a : answers) {
    EXPECT_EQ(hash128(pattern(a.n)), a.h) << a.n;
  }
}

TEST(Hash, Hash128ZeroInputsOfEveryLengthDiffer) {
  // The length is mixed in first, so zero padding never makes inputs of
  // different lengths meet.
  std::vector<Hash128> seen;
  for (std::size_t n = 0; n <= 64; ++n) {
    seen.push_back(hash128(std::vector<std::byte>(n)));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Hash, Hash128SingleBitFlipsAvalanche) {
  // Every single-bit flip of a switch-sized input must change both halves,
  // and on average about half of the 128 output bits.
  SplitMix64 rng(0xa5a1a7c4eULL);
  std::uint64_t flipped = 0;
  std::uint64_t flips = 0;
  for (int input = 0; input < 8; ++input) {
    std::vector<std::byte> x = random_bytes(rng, 400);
    const Hash128 h = hash128(x);
    for (std::size_t bit = 0; bit < x.size() * 8; ++bit) {
      x[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
      const Hash128 g = hash128(x);
      x[bit / 8] ^= static_cast<std::byte>(1U << (bit % 8));
      ASSERT_NE(g.lo, h.lo) << "input " << input << " bit " << bit;
      ASSERT_NE(g.hi, h.hi) << "input " << input << " bit " << bit;
      flipped += std::popcount(g.lo ^ h.lo) + std::popcount(g.hi ^ h.hi);
      ++flips;
    }
  }
  const double mean = static_cast<double>(flipped) / flips;
  EXPECT_NEAR(mean, 64.0, 0.5) << flips << " flips";
}

TEST(Hash, Hash128LowBitsOfHalvesAreUncorrelated) {
  // Two FNV-1a lanes share bit 0 on every input (each is the parity of the
  // input bytes' low bits); the halves here must not be tied that way.
  SplitMix64 rng(0x10b175ULL);
  int ones = 0;
  constexpr int kInputs = 1000;
  for (int i = 0; i < kInputs; ++i) {
    const Hash128 h = hash128(random_bytes(rng, rng.next_below(600)));
    ones += static_cast<int>((h.lo ^ h.hi) & 1);
  }
  EXPECT_GT(ones, 0);
  EXPECT_LT(ones, kInputs);
}

TEST(Hash, Hash128NearDuplicatesDoNotCollide) {
  // 2^20 switch-sized inputs that differ only in one 8-byte counter, which
  // straddles a word boundary — the shape of states one transition apart.
  std::vector<std::byte> x = pattern(400);
  constexpr std::size_t kAt = 196;
  std::vector<Hash128> hs(std::size_t{1} << 20);
  for (std::uint64_t i = 0; i < hs.size(); ++i) {
    std::memcpy(x.data() + kAt, &i, sizeof i);
    hs[i] = hash128(x);
  }
  std::sort(hs.begin(), hs.end());
  EXPECT_EQ(std::adjacent_find(hs.begin(), hs.end()), hs.end());
}

TEST(Hash, DifferentInputsDiffer) {
  const std::byte a[] = {std::byte{1}};
  const std::byte b[] = {std::byte{2}};
  EXPECT_NE(hash128(a), hash128(b));
}

TEST(Hash, CombineIsOrderSensitive) {
  const std::uint64_t ab = hash_combine(hash_combine(0, 1), 2);
  const std::uint64_t ba = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

class SplitMixTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitMixTest, DeterministicPerSeed) {
  SplitMix64 a(GetParam());
  SplitMix64 b(GetParam());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST_P(SplitMixTest, BoundedDrawsAreInRange) {
  SplitMix64 rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitMixTest,
                         ::testing::Values(0, 1, 42, 0xdeadbeef));

TEST(Ser, IntegersAreBigEndianCanonical) {
  Ser s;
  s.put_u16(0x0102);
  s.put_u32(0x03040506);
  s.put_u64(0x0708090a0b0c0d0eULL);
  s.put_i64(-2);  // two's complement: ff ff ff ff ff ff ff fe
  const auto b = s.bytes();
  ASSERT_EQ(b.size(), 22u);
  for (std::size_t i = 0; i < 14; ++i) {
    EXPECT_EQ(b[i], static_cast<std::byte>(i + 1)) << i;
  }
  for (std::size_t i = 14; i < 21; ++i) {
    EXPECT_EQ(b[i], std::byte{0xff}) << i;
  }
  EXPECT_EQ(b[21], std::byte{0xfe});
}

TEST(Ser, StringsAreLengthPrefixed) {
  // "ab" + "c" must not collide with "a" + "bc".
  Ser s1;
  s1.put_str("ab");
  s1.put_str("c");
  Ser s2;
  s2.put_str("a");
  s2.put_str("bc");
  EXPECT_NE(s1.hash(), s2.hash());
}

TEST(Ser, MapSerializationIsCanonical) {
  std::map<std::uint64_t, std::uint64_t> m1{{2, 20}, {1, 10}};
  std::map<std::uint64_t, std::uint64_t> m2{{1, 10}, {2, 20}};
  Ser s1;
  s1.put_map_u64(m1);
  Ser s2;
  s2.put_map_u64(m2);
  EXPECT_EQ(s1.hash(), s2.hash());
}

TEST(Ser, ClearResets) {
  Ser s;
  s.put_u64(42);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
}

TEST(Ser, AppendIsByteIdenticalToElementwisePuts) {
  // append() of a pre-serialized fragment must splice the exact bytes the
  // elementwise puts would have produced (the canonical-bytes invariant
  // the COW state pipeline leans on).
  Ser frag;
  frag.put_u32(0x01020304);
  frag.put_str("hello");
  Ser a;
  a.put_u8(9);
  a.append(frag.bytes());
  a.put_u8(7);
  Ser b;
  b.put_u8(9);
  b.put_u32(0x01020304);
  b.put_str("hello");
  b.put_u8(7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(),
                         b.bytes().begin()));
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Ser, TakeMovesBytesOutAndEmptiesBuffer) {
  Ser s;
  s.put_str("abc");
  const Hash128 h = s.hash();
  const std::size_t n = s.size();
  const std::string blob = s.take();
  EXPECT_EQ(blob.size(), n);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(hash128({reinterpret_cast<const std::byte*>(blob.data()),
                     blob.size()}),
            h);
  // The drained buffer is reusable.
  s.put_u8(1);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Ser, ReserveDoesNotChangeContents) {
  Ser a;
  a.reserve(4096);
  a.put_str("xyz");
  Ser b;
  b.put_str("xyz");
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Hash, Hash128CombineIsOrderSensitiveAndStreamsIndependent) {
  const Hash128 x{1, 2};
  const Hash128 y{3, 4};
  const Hash128 seed{0, 0};
  const Hash128 xy = hash128_combine(hash128_combine(seed, x), y);
  const Hash128 yx = hash128_combine(hash128_combine(seed, y), x);
  EXPECT_NE(xy, yx);
  EXPECT_NE(xy.lo, xy.hi);
  // Integer overload: distinct counts must produce distinct combines.
  EXPECT_NE(hash128_combine(seed, std::uint64_t{1}),
            hash128_combine(seed, std::uint64_t{2}));
}

TEST(Strings, MacFormatting) {
  EXPECT_EQ(mac_to_string(0x0102030a0b0cULL), "01:02:03:0a:0b:0c");
  EXPECT_EQ(mac_to_string(0xffffffffffffULL), "ff:ff:ff:ff:ff:ff");
  EXPECT_EQ(mac_to_string(0), "00:00:00:00:00:00");
}

TEST(Strings, IpFormatting) {
  EXPECT_EQ(ip_to_string(0x0a000001), "10.0.0.1");
  EXPECT_EQ(ip_to_string(0xffffffff), "255.255.255.255");
  EXPECT_EQ(ip_to_string(0), "0.0.0.0");
}

TEST(Strings, HexFixedWidth) {
  EXPECT_EQ(hex_u64(0x2a, 4), "002a");
  EXPECT_EQ(hex_u64(0xdeadbeef, 8), "deadbeef");
  EXPECT_EQ(hex_u64(0, 2), "00");
}

TEST(Des, RoundTripsSerOutput) {
  Ser s;
  s.put_u8(7);
  s.put_u64(0x0102030405060708ULL);
  s.put_bool(true);
  s.put_str("payload");
  const std::string bytes = s.take();  // Des aliases the buffer (no copy)
  Des d(bytes);
  EXPECT_EQ(d.get_u8(), 7u);
  EXPECT_EQ(d.get_u64(), 0x0102030405060708ULL);
  EXPECT_TRUE(d.get_bool());
  EXPECT_EQ(d.get_str(), "payload");
  EXPECT_TRUE(d.done());
}

TEST(Des, UnderflowLatchesNotOk) {
  Ser s;
  s.put_u32(42);
  const std::string bytes = s.take();
  Des d(bytes);
  (void)d.get_u64();  // asks for more than the buffer holds
  EXPECT_FALSE(d.ok());
  EXPECT_FALSE(d.done());
  // Latched: every later read is a zero-value no-op, never a re-read.
  EXPECT_EQ(d.get_u32(), 0u);
  EXPECT_EQ(d.get_str(), "");
  EXPECT_FALSE(d.ok());
}

TEST(Des, TruncatedStringRejected) {
  Ser s;
  s.put_str("hello");
  const std::string bytes = s.take();
  // Des keeps a view of its input, so the truncated copy must outlive it.
  const std::string truncated = bytes.substr(0, bytes.size() - 2);
  Des d(truncated);
  EXPECT_EQ(d.get_str(), "");
  EXPECT_FALSE(d.ok());
}

TEST(Des, GetCountRejectsImpossibleCounts) {
  // A corrupt length claiming more elements than the remaining bytes can
  // hold must fail fast, never drive a huge allocation.
  Ser s;
  s.put_u64(~0ULL);
  const std::string huge = s.take();
  Des d(huge);
  EXPECT_EQ(d.get_count(8), 0u);
  EXPECT_FALSE(d.ok());

  Ser ok;
  ok.put_u64(2);
  ok.put_u64(1);
  ok.put_u64(2);
  const std::string two = ok.take();
  Des d2(two);
  EXPECT_EQ(d2.get_count(8), 2u);
  EXPECT_EQ(d2.get_u64(), 1u);
  EXPECT_EQ(d2.get_u64(), 2u);
  EXPECT_TRUE(d2.done());
}

TEST(Des, FailLatchesCallerDetectedErrors) {
  Ser s;
  s.put_u8(1);
  const std::string one = s.take();
  Des d(one);
  EXPECT_TRUE(d.ok());
  d.fail();
  EXPECT_FALSE(d.ok());
  EXPECT_FALSE(d.done());
}

TEST(Des, DoneRequiresFullConsumption) {
  Ser s;
  s.put_u16(1);
  s.put_u16(2);
  const std::string bytes = s.take();
  Des d(bytes);
  EXPECT_EQ(d.get_u16(), 1u);
  EXPECT_FALSE(d.done()) << "unread bytes remain";
  EXPECT_EQ(d.get_u16(), 2u);
  EXPECT_TRUE(d.done());
}

}  // namespace
}  // namespace nicemc::util
