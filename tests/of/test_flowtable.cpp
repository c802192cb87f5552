#include "of/flowtable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "util/hash.h"

namespace nicemc::of {
namespace {

Rule make_rule(std::uint64_t dst, std::uint16_t priority, PortId out) {
  Rule r;
  r.match.fields = static_cast<std::uint16_t>(MatchField::kEthDst);
  r.match.eth_dst = dst;
  r.priority = priority;
  r.actions = {Action::output(out)};
  return r;
}

sym::PacketFields to_dst(std::uint64_t dst) {
  sym::PacketFields h;
  h.eth_dst = dst;
  return h;
}

TEST(FlowTable, AddReplacesSameMatchAndPriority) {
  FlowTable t;
  t.add(make_rule(0x0a, 100, 1));
  t.add(make_rule(0x0a, 100, 2));  // same match+priority: replace
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.rules()[0].actions[0].port, 2u);
  t.add(make_rule(0x0a, 200, 3));  // different priority: append
  EXPECT_EQ(t.size(), 2u);
}

TEST(FlowTable, LookupPicksHighestPriority) {
  FlowTable t;
  t.add(make_rule(0x0a, 100, 1));
  t.add(make_rule(0x0a, 200, 2));
  const auto hit = t.lookup(5, to_dst(0x0a));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(t.rules()[*hit].priority, 200);
}

TEST(FlowTable, LookupMissReturnsNullopt) {
  FlowTable t;
  t.add(make_rule(0x0a, 100, 1));
  EXPECT_FALSE(t.lookup(5, to_dst(0x0b)).has_value());
}

TEST(FlowTable, RemoveStrictRequiresPriority) {
  FlowTable t;
  t.add(make_rule(0x0a, 100, 1));
  t.add(make_rule(0x0a, 200, 2));
  EXPECT_EQ(t.remove(make_rule(0x0a, 100, 1).match, 100), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.rules()[0].priority, 200);
}

TEST(FlowTable, RemoveNonStrictDropsAllPriorities) {
  FlowTable t;
  t.add(make_rule(0x0a, 100, 1));
  t.add(make_rule(0x0a, 200, 2));
  EXPECT_EQ(t.remove(make_rule(0x0a, 100, 1).match, std::nullopt), 2u);
  EXPECT_TRUE(t.empty());
}

TEST(FlowTable, CountersUpdateOnHit) {
  FlowTable t;
  t.add(make_rule(0x0a, 100, 1));
  const auto hit = t.lookup(1, to_dst(0x0a));
  ASSERT_TRUE(hit.has_value());
  t.count_hit(*hit, 100);
  t.count_hit(*hit, 100);
  EXPECT_EQ(t.rules()[0].packet_count, 2u);
  EXPECT_EQ(t.rules()[0].byte_count, 200u);
}

// The heart of Section 2.2.2's "merging equivalent flow tables": two tables
// holding the same rules in different insertion orders hash identically
// under canonical serialization, and differently under raw serialization.
TEST(FlowTable, CanonicalSerializationMergesInsertionOrders) {
  FlowTable t1;
  t1.add(make_rule(0x0a, 100, 1));
  t1.add(make_rule(0x0b, 100, 2));
  FlowTable t2;
  t2.add(make_rule(0x0b, 100, 2));
  t2.add(make_rule(0x0a, 100, 1));

  util::Ser c1;
  util::Ser c2;
  t1.serialize(c1, /*canonical=*/true);
  t2.serialize(c2, /*canonical=*/true);
  EXPECT_EQ(c1.hash(), c2.hash());

  util::Ser r1;
  util::Ser r2;
  t1.serialize(r1, /*canonical=*/false);
  t2.serialize(r2, /*canonical=*/false);
  EXPECT_NE(r1.hash(), r2.hash());  // the NO-SWITCH-REDUCTION baseline
}

TEST(FlowTable, LookupIsInsertionOrderIndependent) {
  // Same-priority overlapping rules must resolve identically regardless of
  // insertion order (canonical tie-break).
  Rule broad = make_rule(0, 100, 1);
  broad.match = Match::any();
  Rule narrow = make_rule(0x0a, 100, 2);

  FlowTable t1;
  t1.add(broad);
  t1.add(narrow);
  FlowTable t2;
  t2.add(narrow);
  t2.add(broad);

  const auto h1 = t1.lookup(1, to_dst(0x0a));
  const auto h2 = t2.lookup(1, to_dst(0x0a));
  ASSERT_TRUE(h1 && h2);
  EXPECT_EQ(t1.rules()[*h1].actions[0].port, t2.rules()[*h2].actions[0].port);
}

class FlowTablePermutationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTablePermutationTest, CanonicalHashInvariantUnderShuffle) {
  util::SplitMix64 rng(GetParam());
  std::vector<Rule> rules;
  for (int i = 0; i < 6; ++i) {
    rules.push_back(make_rule(0x10 + static_cast<std::uint64_t>(i),
                              static_cast<std::uint16_t>(100 + 10 * (i % 3)),
                              static_cast<PortId>(i)));
  }
  FlowTable reference;
  for (const Rule& r : rules) reference.add(r);

  // Fisher-Yates with the deterministic rng.
  for (std::size_t i = rules.size(); i > 1; --i) {
    std::swap(rules[i - 1], rules[rng.next_below(i)]);
  }
  FlowTable shuffled;
  for (const Rule& r : rules) shuffled.add(r);

  util::Ser a;
  util::Ser b;
  reference.serialize(a, true);
  shuffled.serialize(b, true);
  EXPECT_EQ(a.hash(), b.hash());
}

INSTANTIATE_TEST_SUITE_P(Shuffles, FlowTablePermutationTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(FlowTable, ExpirableRulesFilteredByTimeout) {
  FlowTable t;
  Rule permanent = make_rule(0x0a, 100, 1);
  Rule soft = make_rule(0x0b, 100, 2);
  soft.idle_timeout = 5;
  t.add(permanent);
  t.add(soft);
  EXPECT_FALSE(t.rules()[0].can_expire());
  EXPECT_TRUE(t.rules()[1].can_expire());
}

// The table's maintained canonical order against a brute-force sort by
// (priority descending, key bytes ascending), over seeded random
// add/remove/erase_at/count_hit sequences on few patterns and two
// priorities, so ties are common and rules get replaced, removed and
// re-added.
std::string key_bytes(const Rule& r) {
  util::Ser s;
  r.serialize_key(s);
  return s.take();
}

std::string brute_canonical(const std::vector<Rule>& rules) {
  std::vector<const Rule*> order;
  for (const Rule& r : rules) order.push_back(&r);
  std::sort(order.begin(), order.end(), [](const Rule* a, const Rule* b) {
    if (a->priority != b->priority) return a->priority > b->priority;
    return key_bytes(*a) < key_bytes(*b);
  });
  util::Ser s;
  s.put_tag('T');
  s.put_u32(static_cast<std::uint32_t>(order.size()));
  for (const Rule* r : order) r->serialize(s);
  return s.take();
}

std::optional<std::size_t> brute_lookup(const std::vector<Rule>& rules,
                                        PortId port,
                                        const sym::PacketFields& h) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!rules[i].match.matches(port, h)) continue;
    if (!best || rules[i].priority > rules[*best].priority ||
        (rules[i].priority == rules[*best].priority &&
         key_bytes(rules[i]) < key_bytes(rules[*best]))) {
      best = i;
    }
  }
  return best;
}

Rule random_rule(util::SplitMix64& rng) {
  Rule r;
  if (rng.next_below(2) == 0) {
    r.match.fields |= static_cast<std::uint16_t>(MatchField::kEthDst);
    r.match.eth_dst = 1 + rng.next_below(3);
  }
  if (rng.next_below(2) == 0) {
    r.match.fields |= static_cast<std::uint16_t>(MatchField::kInPort);
    r.match.in_port = static_cast<PortId>(rng.next_below(3));
  }
  r.priority = rng.next_below(2) == 0 ? 100 : 200;
  for (std::uint64_t n = rng.next_below(3); n > 0; --n) {
    r.actions.push_back(Action::output(static_cast<PortId>(rng.next_below(4))));
  }
  return r;
}

TEST(FlowTable, CanonicalOrderMatchesBruteForceSort) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    util::SplitMix64 rng(seed);
    FlowTable t;
    for (int step = 0; step < 200; ++step) {
      switch (rng.next_below(4)) {
        case 0:
        case 1:
          t.add(random_rule(rng));
          break;
        case 2: {
          const Rule r = random_rule(rng);
          t.remove(r.match, rng.next_below(2) == 0
                                ? std::nullopt
                                : std::optional<std::uint16_t>(r.priority));
          break;
        }
        default:
          if (t.empty()) break;
          if (rng.next_below(2) == 0) {
            t.erase_at(rng.next_below(t.size()));
          } else {
            t.count_hit(rng.next_below(t.size()), 100);
          }
          break;
      }
      util::Ser got;
      t.serialize(got, /*canonical=*/true);
      ASSERT_EQ(got.view(), brute_canonical(t.rules())) << "step " << step;
      for (PortId port = 0; port < 3; ++port) {
        for (std::uint64_t dst = 0; dst <= 3; ++dst) {
          ASSERT_EQ(t.lookup(port, to_dst(dst)),
                    brute_lookup(t.rules(), port, to_dst(dst)))
              << "step " << step << " port " << port << " dst " << dst;
        }
      }
    }
  }
}

}  // namespace
}  // namespace nicemc::of
