// discover_packets against the real pyswitch handler: the discovered
// equivalence classes must track the controller state, exactly as in
// Figure 4 of the paper.
#include "mc/discover.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "apps/pyswitch.h"
#include "apps/respond_te.h"
#include "apps/scenarios.h"
#include "mc/execute.h"
#include "mc/search_core.h"
#include "util/collapse.h"

namespace nicemc::mc {
namespace {

TEST(Discover, EmptyMacTableYieldsFloodClasses) {
  auto s = apps::pyswitch_bug2();
  Executor ex(s.config, s.properties);
  SystemState st = ex.make_initial();
  DiscoveryStats stats;
  const auto packets = discover_packets(s.config, st, /*host=*/0, stats);
  // With an empty mactable the handler has two feasible outcomes for a
  // unicast-source packet: broadcast destination vs unknown unicast
  // destination — both flood. The classes split on dst's multicast bit.
  ASSERT_GE(packets.size(), 2u);
  bool saw_bcast_dst = false;
  bool saw_unicast_dst = false;
  for (const auto& p : packets) {
    EXPECT_EQ(p.eth_src, s.config.topology->host(0).mac)
        << "source constrained to the sender";
    (((p.eth_dst >> 40) & 1) != 0 ? saw_bcast_dst : saw_unicast_dst) = true;
  }
  EXPECT_TRUE(saw_bcast_dst);
  EXPECT_TRUE(saw_unicast_dst);
}

TEST(Discover, LearnedMacCreatesNewClass) {
  auto s = apps::pyswitch_bug2();
  Executor ex(s.config, s.properties);
  SystemState st = ex.make_initial();
  DiscoveryStats stats;
  const auto before = discover_packets(s.config, st, 0, stats);

  // Teach the controller where B lives; re-discovery must now contain a
  // class whose representative targets B (the install-rule path).
  auto& app_state = static_cast<apps::PySwitchState&>(*st.ctrl_mut().app);
  const auto& b = s.config.topology->host(1);
  app_state.mactable[0].put(b.mac, 2);

  const auto after = discover_packets(s.config, st, 0, stats);
  EXPECT_GT(after.size(), before.size());
  bool targets_b = false;
  for (const auto& p : after) {
    if (p.eth_dst == b.mac) targets_b = true;
  }
  EXPECT_TRUE(targets_b);
}

TEST(Discover, CacheIsKeyedByControllerState) {
  auto s = apps::pyswitch_bug2();
  Executor ex(s.config, s.properties);
  SystemState st = ex.make_initial();
  DiscoveryCache cache;
  const auto first = cache.packets(s.config, st, 0);
  EXPECT_EQ(cache.packets(s.config, st, 0), first) << "hit: the stored entry";
  EXPECT_EQ(cache.stats().packet_discoveries, 1u);
  (void)cache.packets(s.config, st, 1);
  EXPECT_EQ(cache.stats().packet_discoveries, 2u) << "one entry per host";

  auto& app_state = static_cast<apps::PySwitchState&>(*st.ctrl_mut().app);
  app_state.mactable[0].put(0x42, 1);
  (void)cache.packets(s.config, st, 0);
  EXPECT_EQ(cache.stats().packet_discoveries, 3u)
      << "a new controller state misses";
  const util::MemoCore::Stats t = cache.table_stats();
  EXPECT_EQ(t.hits, 1u);
  EXPECT_EQ(t.misses, 3u);
  EXPECT_EQ(t.entries, 3u);
}

TEST(Discover, SpoofedSourcesWhenUnconstrained) {
  auto s = apps::pyswitch_bug2();
  s.config.constrain_src_to_sender = false;
  Executor ex(s.config, s.properties);
  SystemState st = ex.make_initial();
  DiscoveryStats stats;
  const auto packets = discover_packets(s.config, st, 0, stats);
  // Without the domain constraint the broadcast-source class appears
  // (Figure 3 line 6 not taken).
  bool saw_mcast_src = false;
  for (const auto& p : packets) {
    if (((p.eth_src >> 40) & 1) != 0) saw_mcast_src = true;
  }
  EXPECT_TRUE(saw_mcast_src);
}

TEST(Discover, StatsClassesSplitOnThreshold) {
  auto s = apps::te_scenario(apps::TeScenarioOptions{
      .fix_release_packet = true,
      .fix_handle_intermediate = true,
      .stats_rounds = 1,
  });
  Executor ex(s.config, s.properties);
  SystemState st = ex.make_initial();
  DiscoveryStats stats;
  const auto classes = discover_stats(s.config, st, /*sw=*/0, stats);
  // The TE stats handler branches once on tx_bytes > threshold: two
  // classes, one on each side.
  ASSERT_EQ(classes.size(), 2u);
  const auto& te = static_cast<const apps::RespondTe&>(*s.config.app);
  const std::uint32_t threshold = te.options().threshold;
  bool low = false;
  bool high = false;
  for (const auto& cls : classes) {
    for (const auto& [port, bytes] : cls) {
      if (port == te.options().monitored_port) {
        (bytes > threshold ? high : low) = true;
      }
    }
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

// --- Key completeness ------------------------------------------------------
//
// The cache key must hold every input discovery reads. These tests walk
// every state an exhaustive 1-thread search reaches and compare what the
// cache hands out at each discovery site against a fresh, uncached run,
// and check that states differing in exactly one input never share an
// entry.

/// TE with link, controller-channel and restart faults: the bench/nice
/// te-faults-por scenario, the one with concolic stats discovery.
apps::Scenario te_faults_scenario() {
  apps::TeScenarioOptions o;
  o.fix_release_packet = true;
  o.fix_handle_intermediate = true;
  o.stats_rounds = 2;
  o.check_routing_table = true;
  apps::Scenario s = apps::te_scenario(o);
  s.config.enable_link_faults = true;
  s.config.enable_ctrl_channel_faults = true;
  s.config.enable_switch_restarts = true;
  s.config.max_link_failures = 1;
  s.config.max_channel_losses = 1;
  s.config.max_switch_restarts = 1;
  return s;
}

struct SiteCounts {
  std::uint64_t states{0};
  std::uint64_t packet_sites{0};
  std::uint64_t stats_sites{0};
  /// Distinct non-app inputs seen at the sites: <host, switch, port> for
  /// packets, <switch, tx_bytes seed per port...> for stats.
  std::set<std::vector<std::uint64_t>> packet_contexts;
  std::set<std::vector<std::uint64_t>> stats_contexts;
};

/// DFS over every state the default-strategy search reaches. At each
/// state, the discovered payloads of the enabled set (grouped per host /
/// switch, in enumeration order) must equal a fresh discover_packets /
/// discover_stats on that state.
SiteCounts expect_cached_equals_fresh(const apps::Scenario& s,
                                      DiscoveryCache& cache) {
  const SystemConfig& cfg = s.config;
  const CheckerOptions options;
  const Executor ex(cfg, s.properties);
  std::unordered_set<util::Hash128> seen;
  struct Pending {
    std::shared_ptr<const SystemState> state;
    std::vector<Transition> next;  // strategy-filtered enabled set
  };
  std::vector<Pending> stack;
  SiteCounts n;

  const auto visit = [&](SystemState&& st) {
    if (!seen.insert(st.hash(cfg.canonical_flowtables)).second) return;
    ++n.states;
    auto sp = std::make_shared<const SystemState>(std::move(st));
    std::vector<Transition> ts = ex.enabled(*sp, cache);
    std::map<std::uint32_t, DiscoveryCache::Packets> packets;
    std::map<std::uint32_t, DiscoveryCache::StatsClasses> stats;
    for (const Transition& t : ts) {
      if (t.kind == TKind::kHostSendDiscovered) {
        packets[t.a].push_back(t.fields);
      } else if (t.kind == TKind::kCtrlProcessStats) {
        stats[t.a].push_back(t.stats);
      }
    }
    DiscoveryStats scratch;
    for (const auto& [host, got] : packets) {
      ++n.packet_sites;
      n.packet_contexts.insert({host, sp->host(host).sw, sp->host(host).port});
      ASSERT_EQ(got, discover_packets(cfg, *sp, host, scratch))
          << "host " << host << " at state #" << n.states;
    }
    for (const auto& [sw, got] : stats) {
      ++n.stats_sites;
      std::vector<std::uint64_t> seeds{sw};
      for (const auto& [port, entry] : sp->sw(sw).port_stats()) {
        seeds.push_back(entry.tx_bytes);
      }
      n.stats_contexts.insert(std::move(seeds));
      ASSERT_EQ(got, discover_stats(cfg, *sp, sw, scratch))
          << "switch " << sw << " at state #" << n.states;
    }
    std::vector<Transition> next =
        apply_strategy(options.strategy, cfg, *sp, std::move(ts));
    stack.push_back({std::move(sp), std::move(next)});
  };

  visit(ex.make_initial());
  while (!stack.empty() && !::testing::Test::HasFatalFailure()) {
    const Pending p = std::move(stack.back());
    stack.pop_back();
    for (const Transition& t : p.next) {
      SystemState next = p.state->clone();
      std::vector<Violation> violations;
      ex.apply(next, t, violations);
      if (violations.empty()) visit(std::move(next));
    }
  }
  return n;
}

TEST(DiscoveryKey, CachedEqualsFreshAtEveryReachedStateOfBug1) {
  // Packet discovery with a mobile host: B's location changes the
  // handler's <switch, in_port> context.
  const auto s = apps::pyswitch_bug1();
  DiscoveryCache cache;
  const SiteCounts n = expect_cached_equals_fresh(s, cache);
  EXPECT_GT(n.packet_sites, 0u);
  // B (host 1) discovers at home and after moving, so the location part of
  // the key is exercised, not just present.
  std::set<std::uint64_t> b_ports;
  for (const auto& c : n.packet_contexts) {
    if (c[0] == 1) b_ports.insert(c[2]);
  }
  EXPECT_GE(b_ports.size(), 2u);
  EXPECT_GT(cache.table_stats().hits, 0u) << "the walk must reuse entries";
}

TEST(DiscoveryKey, CachedEqualsFreshAtEveryReachedStateOfTeFaults) {
  // Stats discovery, keyed as the te-faults-por search keys it (collapsed
  // store: interned app-state ids).
  const auto s = te_faults_scenario();
  util::CollapseTable ids;
  DiscoveryCache cache(&ids, 1, DiscoveryCache::kDefaultBudget);
  const SiteCounts n = expect_cached_equals_fresh(s, cache);
  EXPECT_GT(n.stats_sites, 0u);
  // Stats replies arrive with different tx_bytes seeds, so the seed part
  // of the key is exercised, not just present.
  EXPECT_GE(n.stats_contexts.size(), 2u);
  EXPECT_GT(cache.table_stats().hits, 0u) << "the walk must reuse entries";
}

TEST(DiscoveryKey, HostLocationIsInThePacketKey) {
  // Two states that differ only in B's <switch, port> must miss each
  // other's entry, whichever is discovered first.
  const auto s = apps::pyswitch_bug1();
  const Executor ex(s.config, s.properties);
  const SystemState at_home = ex.make_initial();
  SystemState moved = at_home.clone();
  const topo::HostSpec& b = s.config.topology->host(1);
  ASSERT_FALSE(b.alt_locations.empty());
  moved.host_mut(1).sw = b.alt_locations.front().first;
  moved.host_mut(1).port = b.alt_locations.front().second;
  ASSERT_NE(moved.host(1).port, at_home.host(1).port);
  ASSERT_EQ(moved.ctrl_hash(), at_home.ctrl_hash());

  for (const bool home_first : {true, false}) {
    DiscoveryCache cache;
    (void)cache.packets(s.config, home_first ? at_home : moved, 1);
    (void)cache.packets(s.config, home_first ? moved : at_home, 1);
    EXPECT_EQ(cache.stats().packet_discoveries, 2u) << home_first;
    EXPECT_EQ(cache.table_stats().hits, 0u) << home_first;
  }
}

TEST(DiscoveryKey, PortTxBytesAreInTheStatsKey) {
  // Two states that differ only in one port's tx_bytes seed must miss
  // each other's entry, in both key flavors.
  const auto s = te_faults_scenario();
  const Executor ex(s.config, s.properties);
  const SystemState base = ex.make_initial();
  SystemState busier = base.clone();
  const of::PortId port = busier.sw(0).ports().front();
  busier.sw_mut(0).port_stats_mut()[port].tx_bytes += 1000;
  ASSERT_EQ(busier.ctrl_hash(), base.ctrl_hash());

  for (const bool collapsed : {false, true}) {
    for (const bool base_first : {true, false}) {
      util::CollapseTable ids;
      DiscoveryCache cache(collapsed ? &ids : nullptr, 1,
                           DiscoveryCache::kDefaultBudget);
      (void)cache.stats_classes(s.config, base_first ? base : busier, 0);
      (void)cache.stats_classes(s.config, base_first ? busier : base, 0);
      EXPECT_EQ(cache.stats().stats_discoveries, 2u)
          << collapsed << base_first;
      EXPECT_EQ(cache.table_stats().hits, 0u) << collapsed << base_first;
    }
  }
}

}  // namespace
}  // namespace nicemc::mc
