// Section-granular switch snapshots (of::Switch's four copy-on-write parts):
// a memoized switch hash must always equal the hash of the same switch
// built with no memo at all, including when the buffer renames a buffer
// id that an OpenFlow channel names (both live in the one channel part),
// and every transition must unshare only the parts it writes.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../mc/fuzz_scenarios.h"
#include "apps/scenarios.h"
#include "mc/discover.h"
#include "mc/execute.h"
#include "mc/system.h"
#include "of/switch.h"
#include "util/collapse.h"
#include "util/hash.h"
#include "util/ser.h"

namespace nicemc::mc {
namespace {

constexpr std::size_t kParts = of::Switch::kSerializeParts;

/// The state `path` reaches, replayed from a fresh initial state with
/// nothing hashed on the way: every component and part is built anew and
/// holds no memo.
SystemState rebuild(const Executor& ex, const std::vector<Transition>& path) {
  SystemState st = ex.make_initial();
  std::vector<Violation> vs;
  for (const Transition& t : path) ex.apply(st, t, vs);
  return st;
}

/// Fill `st`'s memos one of three ways: the hash itself, a collapse key
/// first (Switch::serialize_hashed), or the full byte form first.
void warm(const SystemState& st, std::uint64_t how, util::CollapseTable& t) {
  const bool canonical = (how & 4) != 0;
  switch (how % 3) {
    case 0:
      (void)st.hash(canonical);
      break;
    case 1:
      (void)st.collapse_key(t, canonical);
      break;
    default: {
      util::Ser s;
      st.serialize(s, canonical);
      break;
    }
  }
}

/// Seeded random walks that expand every child of each state on the walk
/// (siblings share the parent's parts and their memos), warm each child's
/// memos, and compare both hash forms with a memo-free rebuild; the walk
/// itself mutates its state in place. Returns the number of children
/// compared.
std::size_t expect_memos_sound(const apps::Scenario& s, std::uint64_t seed,
                               const std::string& tag) {
  SCOPED_TRACE(tag);
  constexpr int kWalks = 8;
  constexpr int kDepth = 30;
  std::size_t compared = 0;
  const Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  util::CollapseTable table;
  util::SplitMix64 rng(seed);
  for (int walk = 0; walk < kWalks; ++walk) {
    SystemState st = ex.make_initial();
    std::vector<Transition> path;
    for (int depth = 0; depth < kDepth; ++depth) {
      const std::vector<Transition> enabled = ex.enabled(st, cache);
      if (enabled.empty()) break;
      std::vector<SystemState> children;
      for (const Transition& t : enabled) {
        SystemState child = st.clone();
        std::vector<Violation> vs;
        ex.apply(child, t, vs);
        warm(child, rng.next(), table);
        std::vector<Transition> child_path = path;
        child_path.push_back(t);
        const SystemState fresh = rebuild(ex, child_path);
        EXPECT_EQ(child.hash(true), fresh.hash(true))
            << "depth " << depth << ": " << t.label();
        EXPECT_EQ(child.hash(false), fresh.hash(false))
            << "depth " << depth << ": " << t.label();
        ++compared;
        children.push_back(std::move(child));
      }
      // Continue on `st` itself once the children are gone: it then owns
      // its parts alone, so the step mutates memoized parts in place.
      children.clear();
      const Transition& t = enabled[rng.next_below(enabled.size())];
      std::vector<Violation> vs;
      ex.apply(st, t, vs);
      path.push_back(t);
      const SystemState fresh = rebuild(ex, path);
      EXPECT_EQ(st.hash(true), fresh.hash(true)) << "in place: " << t.label();
      EXPECT_EQ(st.hash(false), fresh.hash(false))
          << "in place: " << t.label();
    }
  }
  return compared;
}

TEST(SwitchParts, MemoizedHashesMatchMemoFreeRebuildOnBundledScenarios) {
  std::uint64_t seed = 0x5eed5;
  std::size_t compared = 0;
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    compared += expect_memos_sound(ns.make(), ++seed, ns.name);
  }
  EXPECT_GE(compared, 6000u);
}

TEST(SwitchParts, MemoizedHashesMatchMemoFreeRebuildOnFuzzCorpus) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 1000; seed < 1020; ++seed) {
    compared += expect_memos_sound(apps::fuzz_scenario(seed), seed,
                                   apps::fuzz_scenario_name(seed));
  }
  EXPECT_GE(compared, 4500u);
}

TEST(SwitchParts, ConcurrentHashingOfSharedPartsAgreesWithOneThread) {
  // Workers hash children that share a parent's parts, and the parent
  // itself, all memos empty at the start: every memo is filled while
  // other threads read it (run under TSan in CI).
  const apps::Scenario s = apps::pyswitch_ping_chain(2);
  const Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  std::vector<Transition> path;
  SystemState parent = ex.make_initial();
  std::vector<Violation> vs;
  for (int depth = 0; depth < 6; ++depth) {
    const std::vector<Transition> enabled = ex.enabled(parent, cache);
    ASSERT_FALSE(enabled.empty());
    path.push_back(enabled.back());
    ex.apply(parent, enabled.back(), vs);
  }
  const std::vector<Transition> enabled = ex.enabled(parent, cache);
  std::vector<util::Hash128> expected;
  for (const Transition& t : enabled) {
    std::vector<Transition> child_path = path;
    child_path.push_back(t);
    expected.push_back(rebuild(ex, child_path).hash(true));
  }
  const util::Hash128 parent_expected = rebuild(ex, path).hash(true);

  constexpr int kThreads = 4;
  std::vector<std::vector<util::Hash128>> got(kThreads);
  std::vector<util::Hash128> parent_got(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t k = 0; k < enabled.size(); ++k) {
        const Transition& t = enabled[(k + w) % enabled.size()];
        SystemState child = parent.clone();
        std::vector<Violation> local;
        ex.apply(child, t, local);
        got[w].push_back(child.hash(true));
      }
      parent_got[w] = parent.hash(true);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(parent_got[w], parent_expected);
    for (std::size_t k = 0; k < enabled.size(); ++k) {
      EXPECT_EQ(got[w][k], expected[(k + w) % enabled.size()])
          << enabled[(k + w) % enabled.size()].label();
    }
  }
}

of::Packet pkt(std::uint64_t dst) {
  of::Packet p;
  p.hdr.eth_src = 0x0a;
  p.hdr.eth_dst = dst;
  p.uid = 1;
  return p;
}

TEST(SwitchParts, SharedChannelPartIsRehashedWhenItsBufferNameChanges) {
  // The switch buffers X, then an of_in packet_out names X's buffer id.
  auto build = [](bool then_buffer_lower) {
    of::Switch sw(0, {1, 2});
    sw.enqueue_packet(1, pkt(0xb2));  // X: buffer id 1
    sw.process_pkt();
    of::PacketOut po;
    po.buffer_id = 1;
    po.actions = {of::Action::flood()};
    sw.push_of(of::ToSwitch{po}, 1);
    if (then_buffer_lower) {
      sw.enqueue_packet(1, pkt(0xb1));  // lower content rank than X
      sw.process_pkt();
    }
    return sw;
  };
  const of::Switch parent = build(false);
  const util::Hash128 parent_hash = parent.hash(true);  // memoizes of_in
  ASSERT_EQ(parent.buffer_name(1), 1u);

  of::Switch child = parent;
  child.enqueue_packet(1, pkt(0xb1));
  child.process_pkt();
  // X is renamed, and of_in, which names it, is in the buffer's part: the
  // child holds a part of its own, so no memo of the parent's applies.
  ASSERT_EQ(child.buffer_name(1), 2u);
  ASSERT_FALSE(child.shares_part(parent, 2));

  const of::Switch fresh = build(true);
  EXPECT_EQ(child.hash(true), fresh.hash(true));
  EXPECT_EQ(child.hash(false), fresh.hash(false));
  EXPECT_NE(child.hash(true), parent_hash);
  // The parent's memos are unaffected by the child's naming.
  EXPECT_EQ(parent.hash(true), parent_hash);
  EXPECT_EQ(parent.hash(true), build(false).hash(true));
}

TEST(SwitchParts, SharedOutChannelIsRehashedWhenAReleaseRenamesItsIds) {
  // of_out holds packet_ins for buffers 1 (X) and 2 (Y, the lower
  // content); releasing Y renames X, and the release unshares the channel
  // part that holds of_out too.
  auto build = [](bool release) {
    of::Switch sw(0, {1, 2});
    sw.enqueue_packet(1, pkt(0xb2));
    sw.process_pkt();
    sw.enqueue_packet(1, pkt(0xb1));
    sw.process_pkt();
    of::PacketOut po;
    po.buffer_id = 2;
    po.actions = {of::Action::output(2)};
    sw.push_of(of::ToSwitch{po}, 1);
    if (release) sw.process_of();
    return sw;
  };
  const of::Switch parent = build(false);
  const util::Hash128 parent_hash = parent.hash(true);
  ASSERT_EQ(parent.buffer_name(1), 2u);

  of::Switch child = parent;
  child.process_of();
  ASSERT_EQ(child.buffer_name(1), 1u);
  ASSERT_FALSE(child.shares_part(parent, 2));

  EXPECT_EQ(child.hash(true), build(true).hash(true));
  EXPECT_EQ(child.hash(false), build(true).hash(false));
  EXPECT_EQ(parent.hash(true), parent_hash);
}

// ---- Each transition unshares only the parts it writes ---------------------

using PartSet = std::set<std::size_t>;

enum : std::size_t { kCore, kIngress, kChannel, kStats };

/// The parts a transition may write on its own switch (`own`) and on every
/// other switch (`others`), and those it must write on its own (`must`).
struct WriteRule {
  PartSet must;
  PartSet own;
  PartSet others;
};

WriteRule write_rule(const Transition& t) {
  const PartSet all_but_ingress{kCore, kChannel, kStats};
  switch (t.kind) {
    case TKind::kHostSendScript:
    case TKind::kHostSendDiscovered:
    case TKind::kHostSendDup:
    case TKind::kHostSendReply:
      return {{kIngress}, {kIngress}, {}};  // own = the host's switch
    case TKind::kHostRecv:
    case TKind::kHostMove:
      return {{}, {}, {}};
    case TKind::kSwitchProcessPkt:
      return {{kIngress, kStats},
              {kCore, kIngress, kChannel, kStats},
              {kIngress}};
    case TKind::kSwitchProcessOf:
      return {{kChannel}, all_but_ingress, {kIngress}};
    case TKind::kCtrlDispatch:
    case TKind::kCtrlProcessStats:
      return {{kChannel}, {kChannel}, {kChannel}};
    case TKind::kCtrlApplyCommand:
    case TKind::kCtrlExternal:
    case TKind::kCtrlRequestStats:
      return {{}, {kChannel}, {kChannel}};
    case TKind::kRuleExpire:
      return {{kCore}, {kCore}, {}};
    case TKind::kChannelDropHead:
    case TKind::kChannelDupHead:
      return {{kIngress}, {kIngress}, {}};
    case TKind::kLinkDown:
    case TKind::kLinkUp:
      return {{kCore}, {kCore, kChannel}, {}};  // own = both endpoints
    case TKind::kCtrlChannelDown:
      return {{kCore, kChannel}, {kCore, kChannel}, {}};
    case TKind::kCtrlChannelUp:
      return {{kCore}, {kCore, kChannel}, {kChannel}};
    case TKind::kSwitchRestart:
      return {all_but_ingress, all_but_ingress, {kChannel}};
  }
  return {};
}

/// The switches a transition names as its own.
std::set<std::size_t> own_switches(const SystemConfig& cfg,
                                   const SystemState& st,
                                   const Transition& t) {
  switch (t.kind) {
    case TKind::kHostSendScript:
    case TKind::kHostSendDiscovered:
    case TKind::kHostSendDup:
    case TKind::kHostSendReply:
      return {st.host(t.a).sw};
    case TKind::kLinkDown:
    case TKind::kLinkUp: {
      const topo::LinkSpec& l = cfg.topology->links()[t.a];
      return {l.sw_a, l.sw_b};
    }
    case TKind::kHostRecv:
    case TKind::kHostMove:
    case TKind::kCtrlApplyCommand:
    case TKind::kCtrlExternal:
      return {};
    default:
      return {t.a};
  }
}

/// Bounded DFS over `s` checking every transition's unshared parts against
/// its WriteRule; adds each kind seen to `kinds`.
void expect_writes_within_rules(const apps::Scenario& s,
                                std::set<TKind>& kinds) {
  constexpr std::size_t kMaxStates = 400;
  const Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  std::set<util::Hash128> seen;
  std::vector<SystemState> stack;
  stack.push_back(ex.make_initial());
  while (!stack.empty() && seen.size() < kMaxStates) {
    const SystemState st = std::move(stack.back());
    stack.pop_back();
    for (const Transition& t : ex.enabled(st, cache)) {
      SystemState child = st.clone();
      std::vector<Violation> vs;
      ex.apply(child, t, vs);
      kinds.insert(t.kind);
      const WriteRule rule = write_rule(t);
      const std::set<std::size_t> own = own_switches(s.config, st, t);
      for (std::size_t i = 0; i < st.switch_count(); ++i) {
        PartSet unshared;
        for (std::size_t p = 0; p < kParts; ++p) {
          if (!child.shares_switch_part(st, i, p)) unshared.insert(p);
        }
        if (unshared.empty()) {
          EXPECT_TRUE(child.shares_switch(st, i) || own.contains(i) ||
                      !rule.others.empty())
              << t.label() << " copied switch " << i << " and wrote nothing";
        }
        const bool is_own = own.contains(i);
        const PartSet& allowed = is_own ? rule.own : rule.others;
        for (const std::size_t p : unshared) {
          EXPECT_TRUE(allowed.contains(p))
              << t.label() << " unshared part " << p << " of switch " << i;
        }
        if (is_own) {
          for (const std::size_t p : rule.must) {
            EXPECT_TRUE(unshared.contains(p))
                << t.label() << " kept part " << p << " of switch " << i;
          }
        }
      }
      if (seen.insert(child.hash(true)).second) {
        stack.push_back(std::move(child));
      }
    }
  }
}

TEST(SwitchParts, EachTransitionUnsharesOnlyThePartsItWrites) {
  std::set<TKind> kinds;
  apps::Scenario faults = apps::pyswitch_ping_chain(2);
  faults.config.enable_rule_expiry = true;
  faults.config.enable_channel_faults = true;
  faults.config.enable_link_faults = true;
  faults.config.enable_ctrl_channel_faults = true;
  faults.config.enable_switch_restarts = true;
  expect_writes_within_rules(faults, kinds);
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    SCOPED_TRACE(ns.name);
    expect_writes_within_rules(ns.make(), kinds);
  }
  for (const TKind k :
       {TKind::kHostSendScript, TKind::kSwitchProcessPkt,
        TKind::kSwitchProcessOf, TKind::kCtrlDispatch,
        TKind::kCtrlProcessStats, TKind::kRuleExpire,
        TKind::kChannelDropHead, TKind::kChannelDupHead, TKind::kLinkDown,
        TKind::kLinkUp, TKind::kCtrlChannelDown, TKind::kCtrlChannelUp,
        TKind::kSwitchRestart}) {
    EXPECT_TRUE(kinds.contains(k)) << "never exercised: " << tkind_name(k);
  }
}

}  // namespace
}  // namespace nicemc::mc
