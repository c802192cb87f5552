#include "of/channel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace nicemc::of {
namespace {

TEST(Fifo, PreservesOrder) {
  Fifo<int> f;
  f.push(1);
  f.push(2);
  f.push(3);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 2);
  EXPECT_EQ(f.pop(), 3);
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, FrontDoesNotConsume) {
  Fifo<int> f;
  f.push(7);
  EXPECT_EQ(f.front(), 7);
  EXPECT_EQ(f.size(), 1u);
}

TEST(Fifo, DuplicateHeadFaultModel) {
  Fifo<int> f;
  f.push(1);
  f.push(2);
  f.duplicate_head();
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 2);
}

TEST(Fifo, DropHeadFaultModel) {
  Fifo<int> f;
  f.push(1);
  f.push(2);
  f.drop_head();
  EXPECT_EQ(f.pop(), 2);
}

TEST(Fifo, EqualityComparesContents) {
  Fifo<int> a;
  Fifo<int> b;
  a.push(1);
  b.push(1);
  EXPECT_EQ(a, b);
  b.push(2);
  EXPECT_NE(a, b);
}

TEST(Fifo, SerializationIsOrderSensitive) {
  auto ser = [](const Fifo<int>& f) {
    util::Ser s;
    f.serialize(s, [](util::Ser& ss, const int& v) {
      ss.put_u32(static_cast<std::uint32_t>(v));
    });
    return s.hash();
  };
  Fifo<int> a;
  a.push(1);
  a.push(2);
  Fifo<int> b;
  b.push(2);
  b.push(1);
  EXPECT_NE(ser(a), ser(b));
}

TEST(Fifo, InterleavedPushPopKeepsFifoOrder) {
  Fifo<int> f;
  f.push(1);
  f.push(2);
  EXPECT_EQ(f.pop(), 1);
  f.push(3);
  f.push(4);
  EXPECT_EQ(f.pop(), 2);
  f.push(5);
  EXPECT_EQ(f.pop(), 3);
  EXPECT_EQ(f.pop(), 4);
  f.push(6);
  EXPECT_EQ(f.pop(), 5);
  EXPECT_EQ(f.pop(), 6);
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, DuplicateHeadOfSingleElementChannel) {
  Fifo<std::string> f;
  f.push("head");
  f.duplicate_head();
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.pop(), "head");
  EXPECT_EQ(f.pop(), "head");
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, DropHeadDownToEmpty) {
  Fifo<int> f;
  for (int i = 0; i < 3; ++i) f.push(i);
  for (int left = 2; left >= 0; --left) {
    f.drop_head();
    EXPECT_EQ(f.size(), static_cast<std::size_t>(left));
  }
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f, Fifo<int>{});
  f.push(9);  // still usable after draining
  EXPECT_EQ(f.front(), 9);
}

TEST(Fifo, ItemsIterateFrontToBack) {
  Fifo<int> f;
  for (int i = 1; i <= 4; ++i) f.push(i);
  f.pop();
  f.duplicate_head();
  const std::vector<int> expected = {2, 2, 3, 4};
  EXPECT_EQ(f.items(), expected);
  std::vector<int> seen;
  for (const int v : f.items()) seen.push_back(v);
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(f.front(), f.items().front());
}

}  // namespace
}  // namespace nicemc::of
