#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "util/hash.h"
#include "util/ser.h"
#include "util/strings.h"

namespace nicemc::util {
namespace {

TEST(Hash, Fnv1aKnownValues) {
  const std::byte empty[1] = {};
  EXPECT_EQ(fnv1a64({empty, 0}), 0xcbf29ce484222325ULL);  // offset basis
  const std::byte a[] = {std::byte{'a'}};
  EXPECT_EQ(fnv1a64({a, 1}), 0xaf63dc4c8601ec8cULL);  // FNV-1a("a")
}

TEST(Hash, Hash128HalvesAreIndependent) {
  const std::byte data[] = {std::byte{1}, std::byte{2}, std::byte{3}};
  const Hash128 h = hash128(data);
  EXPECT_NE(h.lo, h.hi);
}

TEST(Hash, Hash128HalvesAreFnv1aStreams) {
  // hash128 advances both streams in one pass; each half must still be
  // exactly the single-stream FNV-1a with its own offset basis, so stored
  // keys, checkpoints and sleep-store shards keep their values.
  std::vector<std::byte> big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }
  const std::byte one[] = {std::byte{0x5a}};
  const std::span<const std::byte> inputs[] = {
      std::span<const std::byte>{}, one, big};
  for (const std::span<const std::byte> x : inputs) {
    const Hash128 h = hash128(x);
    EXPECT_EQ(h.lo, fnv1a64(x, 0xcbf29ce484222325ULL)) << x.size();
    EXPECT_EQ(h.hi, fnv1a64(x, 0x9ae16a3b2f90404fULL)) << x.size();
  }
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
