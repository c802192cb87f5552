// Copy-on-write aliasing guarantees of the state pipeline (see
// ARCHITECTURE.md "state pipeline").
//
// The load-bearing contract: a clone shares every component snapshot with
// its parent, and mutating the clone through ANY mutate-on-write accessor
// unshares (and re-hashes) exactly that component — the parent's canonical
// bytes and hash never move, no matter what the child does.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "apps/pyswitch.h"
#include "apps/scenarios.h"
#include "mc/execute.h"
#include "mc/system.h"
#include "util/ser.h"

namespace nicemc::mc {
namespace {

std::string canon_bytes(const SystemState& st) {
  util::Ser s;
  st.serialize(s, /*canonical_tables=*/true);
  auto b = s.bytes();
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

SystemState make_state(const apps::Scenario& s) {
  return Executor(s.config, s.properties).make_initial();
}

TEST(Cow, CloneSharesEveryComponentSnapshot) {
  auto s = apps::pyswitch_ping_chain(2);
  SystemState a = make_state(s);
  SystemState b = a.clone();
  EXPECT_TRUE(a.shares_ctrl(b));
  for (std::size_t i = 0; i < a.switch_count(); ++i) {
    EXPECT_TRUE(a.shares_switch(b, i)) << "switch " << i;
  }
  for (std::size_t i = 0; i < a.host_count(); ++i) {
    EXPECT_TRUE(a.shares_host(b, i)) << "host " << i;
  }
  for (std::size_t i = 0; i < a.prop_count(); ++i) {
    EXPECT_TRUE(a.shares_prop(b, i)) << "prop " << i;
  }
  EXPECT_EQ(canon_bytes(a), canon_bytes(b));
  EXPECT_EQ(a.hash(true), b.hash(true));
}

TEST(Cow, CtrlMutUnsharesOnlyTheController) {
  auto s = apps::pyswitch_ping_chain(1);
  SystemState parent = make_state(s);
  const std::string parent_bytes = canon_bytes(parent);
  const auto parent_hash = parent.hash(true);

  SystemState child = parent.clone();
  auto& app =
      static_cast<apps::PySwitchState&>(*child.ctrl_mut().app);
  app.mactable[0].put(0xbeef, 3);

  EXPECT_FALSE(parent.shares_ctrl(child));
  for (std::size_t i = 0; i < parent.switch_count(); ++i) {
    EXPECT_TRUE(parent.shares_switch(child, i));
  }
  for (std::size_t i = 0; i < parent.host_count(); ++i) {
    EXPECT_TRUE(parent.shares_host(child, i));
  }
  EXPECT_EQ(canon_bytes(parent), parent_bytes);
  EXPECT_EQ(parent.hash(true), parent_hash);
  EXPECT_NE(canon_bytes(child), parent_bytes);
  EXPECT_NE(child.hash(true), parent_hash);
}

TEST(Cow, SwMutUnsharesOnlyThatSwitch) {
  auto s = apps::pyswitch_ping_chain(1);
  SystemState parent = make_state(s);
  ASSERT_GE(parent.switch_count(), 2u);
  const std::string parent_bytes = canon_bytes(parent);
  const auto parent_hash = parent.hash(true);

  SystemState child = parent.clone();
  child.sw_mut(0).enqueue_packet(1, of::Packet{});

  EXPECT_FALSE(parent.shares_switch(child, 0));
  EXPECT_TRUE(parent.shares_switch(child, 1));
  EXPECT_TRUE(parent.shares_ctrl(child));
  EXPECT_EQ(canon_bytes(parent), parent_bytes);
  EXPECT_EQ(parent.hash(true), parent_hash);
  EXPECT_NE(canon_bytes(child), parent_bytes);
  EXPECT_NE(child.hash(true), parent_hash);
}

TEST(Cow, HostMutUnsharesOnlyThatHost) {
  auto s = apps::pyswitch_ping_chain(1);
  SystemState parent = make_state(s);
  ASSERT_GE(parent.host_count(), 2u);
  const std::string parent_bytes = canon_bytes(parent);
  const auto parent_hash = parent.hash(true);

  SystemState child = parent.clone();
  child.host_mut(1).burst += 1;

  EXPECT_FALSE(parent.shares_host(child, 1));
  EXPECT_TRUE(parent.shares_host(child, 0));
  EXPECT_TRUE(parent.shares_ctrl(child));
  EXPECT_EQ(canon_bytes(parent), parent_bytes);
  EXPECT_EQ(parent.hash(true), parent_hash);
  EXPECT_NE(canon_bytes(child), parent_bytes);
  EXPECT_NE(child.hash(true), parent_hash);
}

// A counting monitor state so the test can mutate a property component
// directly and watch its memoized form invalidate.
class CountingPropState final : public PropState {
 public:
  std::uint32_t count{0};
  [[nodiscard]] std::unique_ptr<PropState> clone() const override {
    auto c = std::make_unique<CountingPropState>();
    c->count = count;
    return c;
  }
  void serialize(util::Ser& s) const override {
    s.put_tag('C');
    s.put_u32(count);
  }
};

TEST(Cow, PropMutUnsharesOnlyThatMonitor) {
  SystemState parent;
  parent.add_prop(std::make_unique<CountingPropState>());
  parent.add_prop(std::make_unique<CountingPropState>());
  const std::string parent_bytes = canon_bytes(parent);
  const auto parent_hash = parent.hash(true);

  SystemState child = parent.clone();
  static_cast<CountingPropState&>(child.prop_mut(1)).count = 7;

  EXPECT_FALSE(parent.shares_prop(child, 1));
  EXPECT_TRUE(parent.shares_prop(child, 0));
  EXPECT_EQ(canon_bytes(parent), parent_bytes);
  EXPECT_EQ(parent.hash(true), parent_hash);
  EXPECT_NE(canon_bytes(child), parent_bytes);
  EXPECT_NE(child.hash(true), parent_hash);
}

TEST(Cow, MutWithoutChangeKeepsBytesAndHashEqual) {
  // The accessor itself must not perturb canonical forms: unsharing with
  // no semantic change leaves the child byte-identical to the parent
  // (the hash memo is invalidated, then recomputed to the same value).
  auto s = apps::pyswitch_ping_chain(1);
  SystemState parent = make_state(s);
  parent.add_prop(std::make_unique<CountingPropState>());
  SystemState child = parent.clone();
  (void)child.ctrl_mut();
  (void)child.sw_mut(0);
  (void)child.host_mut(0);
  (void)child.prop_mut(0);
  EXPECT_FALSE(parent.shares_ctrl(child));
  EXPECT_FALSE(parent.shares_switch(child, 0));
  EXPECT_FALSE(parent.shares_host(child, 0));
  EXPECT_FALSE(parent.shares_prop(child, 0));
  EXPECT_EQ(canon_bytes(parent), canon_bytes(child));
  EXPECT_EQ(parent.hash(true), child.hash(true));
  EXPECT_EQ(parent.hash(false), child.hash(false));
}

TEST(Cow, HashCacheInvalidationPerComponentType) {
  // For every component type: hash, mutate that one component through its
  // accessor, and the re-combined hash must change — i.e. the memoized
  // component form was dropped, not served stale.
  auto s = apps::pyswitch_ping_chain(1);

  {
    SystemState st = make_state(s);
    const auto h0 = st.hash(true);
    EXPECT_EQ(st.hash(true), h0);  // memo hit is stable
    static_cast<apps::PySwitchState&>(*st.ctrl_mut().app)
        .mactable[0]
        .put(0x42, 9);
    EXPECT_NE(st.hash(true), h0) << "stale controller form";
  }
  {
    SystemState st = make_state(s);
    const auto h0 = st.hash(true);
    st.sw_mut(0).enqueue_packet(1, of::Packet{});
    EXPECT_NE(st.hash(true), h0) << "stale switch form";
  }
  {
    SystemState st = make_state(s);
    const auto h0 = st.hash(true);
    st.host_mut(0).burst += 1;
    EXPECT_NE(st.hash(true), h0) << "stale host form";
  }
  {
    SystemState st;
    st.add_prop(std::make_unique<CountingPropState>());
    const auto h0 = st.hash(true);
    static_cast<CountingPropState&>(st.prop_mut(0)).count = 1;
    EXPECT_NE(st.hash(true), h0) << "stale prop form";
  }
}

TEST(Cow, ApplyingTransitionsNeverMovesParentBytes) {
  // The strongest aliasing guard: run real transitions (which mutate
  // through whatever accessors the executor uses) on clones and check the
  // parent snapshot byte-for-byte after each.
  auto s = apps::pyswitch_ping_chain(2);
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  SystemState parent = ex.make_initial();
  const std::string parent_bytes = canon_bytes(parent);
  const auto parent_hash = parent.hash(true);

  const auto ts = ex.enabled(parent, cache);
  ASSERT_FALSE(ts.empty());
  for (const Transition& t : ts) {
    SystemState child = parent.clone();
    std::vector<Violation> vs;
    ex.apply(child, t, vs);
    EXPECT_EQ(canon_bytes(parent), parent_bytes)
        << "transition mutated the parent through a shared snapshot";
    EXPECT_EQ(parent.hash(true), parent_hash);
  }
}

TEST(Cow, SecondGenerationCloneChainKeepsAncestorsIntact) {
  // grandparent → parent → child, each generation mutates; every ancestor
  // keeps its exact bytes (regression guard for unshare-once bugs where
  // use_count bookkeeping goes wrong past the first generation).
  auto s = apps::pyswitch_ping_chain(1);
  SystemState g = make_state(s);
  const std::string g_bytes = canon_bytes(g);

  SystemState p = g.clone();
  p.host_mut(0).burst += 1;
  const std::string p_bytes = canon_bytes(p);

  SystemState c = p.clone();
  c.host_mut(0).burst += 1;
  c.sw_mut(0).enqueue_packet(1, of::Packet{});

  EXPECT_EQ(canon_bytes(g), g_bytes);
  EXPECT_EQ(canon_bytes(p), p_bytes);
  EXPECT_NE(canon_bytes(c), p_bytes);
  // Untouched components still shared across all three generations.
  EXPECT_TRUE(g.shares_ctrl(p));
  EXPECT_TRUE(p.shares_ctrl(c));
}

TEST(Cow, CombinedHashMatchesSerializedBytesEquality) {
  // hash() is combined from component hashes, not hash128 over the whole
  // buffer — but the equality contract must hold in both directions on
  // real states: equal bytes ⇔ equal hash.
  auto s = apps::pyswitch_ping_chain(2);
  Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  // Collect a small frontier of distinct reachable states (breadth-first,
  // a few levels deep — the initial state may enable only one transition).
  std::vector<SystemState> children;
  children.push_back(ex.make_initial());
  for (std::size_t depth = 0; depth < 4 && children.size() < 8; ++depth) {
    std::vector<SystemState> next;
    for (const SystemState& st : children) {
      for (const Transition& t : ex.enabled(st, cache)) {
        SystemState child = st.clone();
        std::vector<Violation> vs;
        ex.apply(child, t, vs);
        next.push_back(std::move(child));
      }
    }
    if (next.empty()) break;
    for (SystemState& st : next) children.push_back(std::move(st));
  }
  ASSERT_GE(children.size(), 2u);
  for (const auto& a : children) {
    for (const auto& b : children) {
      for (bool canonical : {true, false}) {
        util::Ser sa, sb;
        a.serialize(sa, canonical);
        b.serialize(sb, canonical);
        const bool same_bytes =
            sa.size() == sb.size() &&
            std::equal(sa.bytes().begin(), sa.bytes().end(),
                       sb.bytes().begin());
        EXPECT_EQ(same_bytes, a.hash(canonical) == b.hash(canonical));
      }
    }
  }
}

TEST(Cow, SigMemoSharedByTwoNodesOutlivesBoth) {
  // One memo in the slots of two nodes (equal content) and in a cache: it
  // is freed with its last holder, whichever that is.
  using util::SigMemo;
  const SigMemo::Key key{7, 0, 3};
  const SigMemo::Tag tag{2, 1, 3};  // member 1: "ab" + "XYZ" + "f"
  const SigMemo::Ref cached =
      SigMemo::make(key, 0b10, "abcdef", {&tag, 1}, "XYZ");
  auto a = std::make_unique<util::Part<int>>(1);
  util::Part<int> b(1);
  EXPECT_EQ(a->sig_memo().publish(cached), cached.get());
  EXPECT_EQ(b.sig_memo().publish(cached), cached.get());

  // A slot keeps one memo per key: a second key joins it, and an
  // equal-keyed memo loses to the one already there.
  const SigMemo::Key other{8, 0, 3};
  const SigMemo* second =
      b.sig_memo().publish(SigMemo::make(other, 0, "other", {}, {}));
  EXPECT_EQ(b.sig_memo().find(key), cached.get());
  EXPECT_EQ(b.sig_memo().find(other), second);
  EXPECT_EQ(second->bottom(), "other");
  EXPECT_EQ(b.sig_memo().publish(SigMemo::make(key, 0, "lost", {}, {})),
            cached.get());

  // Writing one node and freeing the other drops only their counts.
  (void)b.mut();
  EXPECT_EQ(b.sig_memo().find(key), nullptr);
  EXPECT_EQ(b.sig_memo().find(other), nullptr);
  a.reset();
  EXPECT_EQ(cached->bottom(), "abcdef");
  const SigMemo::Pieces p = cached->member(1);
  EXPECT_EQ(std::string(p[0]) + std::string(p[1]) + std::string(p[2]),
            "abXYZf");
  EXPECT_EQ(cached->member(0)[0], "abcdef");
}

}  // namespace
}  // namespace nicemc::mc
