// State identity: two states may share a seen-set key only if they behave
// the same.
//
// * A parked FINE-INTERLEAVING packet_out names a buffer entry of its
//   target switch: states that differ only in which packet it names must
//   get different keys in every store.
// * The merge auditor is an independent behavioural oracle for the keys.
//   It runs its own DFS, keeps one raw representative per key, and on
//   every key hit checks the two raw states at depth 1: the same enabled
//   transitions, pairwise key-equal successors and the same violations.
//   It covers the hash, collapsed and full-state stores; symmetric keys
//   are not audited here.
// * The Switch::serialize_part sections, concatenated in part order, are
//   byte-identical to Switch::serialize, which the symmetry signatures
//   rely on when they redo one section at a time.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "apps/scenarios.h"
#include "fuzz_scenarios.h"
#include "mc/execute.h"
#include "mc/search_core.h"
#include "mc/sym_reduce.h"
#include "util/collapse.h"
#include "util/ser.h"

namespace nicemc::mc {
namespace {

enum class Store { kHash, kCollapsed, kFullState };
constexpr Store kStores[] = {Store::kHash, Store::kCollapsed,
                             Store::kFullState};

const char* store_name(Store store) {
  switch (store) {
    case Store::kHash:
      return "hash";
    case Store::kCollapsed:
      return "collapsed";
    case Store::kFullState:
      return "full-state";
  }
  return "?";
}

/// The key `store` remembers `state` by, as the search builds it.
std::string store_key(const SystemState& state, Store store, bool canonical,
                      util::CollapseTable& table) {
  util::Ser s;
  switch (store) {
    case Store::kHash: {
      const util::Hash128 h = state.hash(canonical);
      s.put_u64(h.lo);
      s.put_u64(h.hi);
      break;
    }
    case Store::kCollapsed:
      return state.collapse_key(table, canonical);
    case Store::kFullState:
      state.serialize(s, canonical);
      break;
  }
  return s.take();
}

/// The auditor's pair check: the first depth-1 behavioural difference
/// between `a` and `b`, or nullopt when they behave the same. `key` names
/// successors.
std::optional<std::string> depth1_difference(
    const Executor& ex, const SystemState& a, const SystemState& b,
    const std::function<std::string(const SystemState&)>& key) {
  DiscoveryCache cache;
  const std::vector<Transition> ta = ex.enabled(a, cache);
  const std::vector<Transition> tb = ex.enabled(b, cache);
  if (ta != tb) return "enabled transitions differ";
  for (const Transition& t : ta) {
    SystemState na = a.clone();
    SystemState nb = b.clone();
    std::vector<Violation> va;
    std::vector<Violation> vb;
    ex.apply(na, t, va);
    ex.apply(nb, t, vb);
    if (violation_keys(va) != violation_keys(vb)) {
      return "violations differ after " + t.label();
    }
    if (key(na) != key(nb)) return "successors differ after " + t.label();
  }
  if (ta.empty()) {
    SystemState qa = a.clone();
    SystemState qb = b.clone();
    std::vector<Violation> va;
    std::vector<Violation> vb;
    ex.at_quiescence(qa, va);
    ex.at_quiescence(qb, vb);
    if (violation_keys(va) != violation_keys(vb)) {
      std::string why = "quiescent violations differ:";
      for (const std::string& k : violation_keys(va)) why += "\n  kept: " + k;
      for (const std::string& k : violation_keys(vb)) why += "\n  new:  " + k;
      return why;
    }
  }
  return std::nullopt;
}

struct AuditReport {
  std::size_t states{0};
  std::size_t key_hits{0};
  std::vector<std::string> witnesses;
};

/// Exhaustive DFS over every enabled transition (no expansion past a
/// violation, at most `max_states` representatives). On every key hit of
/// any store, the successor is checked against that key's first raw
/// representative. The three stores must also agree on which states
/// merge.
AuditReport audit_merges(const apps::Scenario& s, std::size_t max_states) {
  const Executor ex(s.config, s.properties);
  const bool canonical = s.config.canonical_flowtables;
  util::CollapseTable table;
  DiscoveryCache cache;
  std::vector<SystemState> reps;
  std::map<std::string, std::size_t> index[3];
  AuditReport report;

  auto remember = [&](const SystemState& st,
                      const std::string& via) -> std::optional<std::size_t> {
    std::optional<std::size_t> hit[3];
    for (std::size_t i = 0; i < 3; ++i) {
      const auto it = index[i].find(store_key(st, kStores[i], canonical, table));
      if (it != index[i].end()) hit[i] = it->second;
    }
    if (hit[0] != hit[1] || hit[0] != hit[2]) {
      report.witnesses.push_back("stores disagree on a merge after " + via);
      return std::nullopt;
    }
    if (hit[0]) {
      ++report.key_hits;
      for (const Store store : kStores) {
        const auto diff = depth1_difference(
            ex, reps[*hit[0]], st, [&](const SystemState& x) {
              return store_key(x, store, canonical, table);
            });
        if (diff) {
          report.witnesses.push_back(std::string(store_name(store)) +
                                     " key merges states whose " + *diff +
                                     " (reached after " + via + ")");
        }
      }
      return std::nullopt;
    }
    for (std::size_t i = 0; i < 3; ++i) {
      index[i].emplace(store_key(st, kStores[i], canonical, table),
                       reps.size());
    }
    reps.push_back(st.clone());
    return reps.size() - 1;
  };

  std::vector<std::size_t> stack;
  if (const auto first = remember(ex.make_initial(), "the initial state")) {
    stack.push_back(*first);
  }
  while (!stack.empty() && reps.size() < max_states) {
    const SystemState st = reps[stack.back()].clone();
    stack.pop_back();
    for (const Transition& t : ex.enabled(st, cache)) {
      SystemState next = st.clone();
      std::vector<Violation> vs;
      ex.apply(next, t, vs);
      const auto fresh = remember(next, t.label());
      if (fresh && vs.empty()) stack.push_back(*fresh);
    }
  }
  report.states = reps.size();
  return report;
}

// ---- Collision pair (b): a parked packet_out's buffer id -------------------

of::Packet ping(const apps::Scenario& s, std::size_t from, std::size_t to) {
  of::Packet p;
  p.hdr.eth_src = s.config.topology->host(from).mac;
  p.hdr.eth_dst = s.config.topology->host(to).mac;
  p.hdr.eth_type = of::kEthTypeIpv4;
  p.uid = 1;
  p.sender = static_cast<of::HostId>(from);
  return p;
}

/// `base` with switch 0 buffering {1: first, 2: second} and one parked
/// (FINE-INTERLEAVING) flooding packet_out for buffer 1.
SystemState with_parked_release(const SystemState& base,
                                const of::Packet& first,
                                const of::Packet& second) {
  SystemState st = base.clone();
  of::Switch::Buffer& buf = st.sw_mut(0).buffer_mut();
  buf.entries.clear();
  buf.entries.emplace(1, of::BufferedPacket{first, 1});
  buf.entries.emplace(2, of::BufferedPacket{second, 1});
  buf.next_id = 3;
  of::PacketOut po;
  po.buffer_id = 1;
  po.actions = {of::Action::flood()};
  st.ctrl_mut().pending_commands.emplace_back(0, of::ToSwitch{po});
  return st;
}

TEST(StateIdentity, ParkedPacketOutBufferIdIsNamedByItsTargetSwitch) {
  apps::Scenario s = apps::pyswitch_ping_chain(1);
  s.config.fine_interleaving = true;
  const Executor ex(s.config, s.properties);
  const SystemState base = ex.make_initial();
  const of::Packet a = ping(s, 0, 1);
  const of::Packet b = ping(s, 1, 0);
  // The switch's buffer is the same up to its raw ids; the parked
  // packet_out releases A in one state and B in the other.
  const SystemState releases_a = with_parked_release(base, a, b);
  const SystemState releases_b = with_parked_release(base, b, a);

  EXPECT_NE(releases_a.hash(true), releases_b.hash(true));
  util::CollapseTable table;
  EXPECT_NE(releases_a.collapse_key(table, true),
            releases_b.collapse_key(table, true));
  util::Ser bytes_a;
  util::Ser bytes_b;
  releases_a.serialize(bytes_a, true);
  releases_b.serialize(bytes_b, true);
  EXPECT_NE(bytes_a.view(), bytes_b.view());
  const SymContext sym(s.config);
  EXPECT_NE(sym.canonical_key(releases_a, nullptr).key,
            sym.canonical_key(releases_b, nullptr).key);

  // The premise: kCtrlApplyCommand hands the switch packet_outs that
  // release different packets.
  const Transition apply{.kind = TKind::kCtrlApplyCommand};
  SystemState next_a = releases_a.clone();
  SystemState next_b = releases_b.clone();
  std::vector<Violation> vs;
  ex.apply(next_a, apply, vs);
  ex.apply(next_b, apply, vs);
  EXPECT_NE(next_a.hash(true), next_b.hash(true));
  const of::OfOutcome out_a = next_a.sw_mut(0).process_of();
  const of::OfOutcome out_b = next_b.sw_mut(0).process_of();
  ASSERT_TRUE(out_a.packet.has_value());
  ASSERT_TRUE(out_b.packet.has_value());
  EXPECT_EQ(out_a.packet->packet, a);
  EXPECT_EQ(out_b.packet->packet, b);
}

TEST(StateIdentity, PairCheckFlagsBothBufferIdCollisionPairs) {
  apps::Scenario s = apps::pyswitch_ping_chain(1);
  s.config.fine_interleaving = true;
  const Executor ex(s.config, s.properties);
  const SystemState base = ex.make_initial();
  const of::Packet a = ping(s, 0, 1);
  const of::Packet b = ping(s, 1, 0);

  // Pair (a): a stale packet_out id against a live one of the same value.
  auto with_head_release = [&](std::uint32_t live_a_id) {
    SystemState st = base.clone();
    of::Switch& sw = st.sw_mut(0);
    of::Switch::Buffer& buf = sw.buffer_mut();
    buf.entries.clear();
    buf.entries.emplace(live_a_id, of::BufferedPacket{a, 1});
    buf.entries.emplace(3, of::BufferedPacket{b, 1});
    buf.next_id = 4;
    // The initial state drained every OpenFlow message.
    EXPECT_TRUE(sw.of_in().empty());
    of::PacketOut po;
    po.buffer_id = 1;
    po.actions = {of::Action::flood()};
    sw.push_of(of::ToSwitch{po}, 1);
    return st;
  };
  const SystemState stale = with_head_release(2);
  const SystemState live = with_head_release(1);
  // Pair (b): a parked packet_out naming A against one naming B.
  const SystemState parked_a = with_parked_release(base, a, b);
  const SystemState parked_b = with_parked_release(base, b, a);

  util::CollapseTable table;
  for (const Store store : kStores) {
    auto key = [&](const SystemState& x) {
      return store_key(x, store, true, table);
    };
    EXPECT_TRUE(depth1_difference(ex, stale, live, key).has_value())
        << store_name(store);
    EXPECT_TRUE(depth1_difference(ex, parked_a, parked_b, key).has_value())
        << store_name(store);
    // And it passes a state against itself.
    EXPECT_FALSE(depth1_difference(ex, live, live.clone(), key).has_value())
        << store_name(store);
  }
}

// ---- The merge auditor over the corpus -------------------------------------

constexpr std::uint64_t kAuditSeedBase = 1000;  // the fuzz corpus's seeds
constexpr std::uint64_t kAuditSeeds = 120;
// A cap, not a sample: every corpus scenario finishes below it.
constexpr std::size_t kAuditMaxStates = 4000;
// FINE-INTERLEAVING multiplies the state space: a quarter of the corpus,
// each cut at a smaller cap.
constexpr std::uint64_t kFineSeeds = 30;
constexpr std::size_t kFineMaxStates = 1500;

void expect_no_witness(const AuditReport& r, const std::string& name) {
  EXPECT_GT(r.states, 1u) << name;
  for (const std::string& w : r.witnesses) {
    ADD_FAILURE() << name << ": " << w;
  }
}

TEST(MergeAuditor, FuzzCorpusMergesOnlyEquivalentStates) {
  std::size_t hits = 0;
  for (std::uint64_t seed = kAuditSeedBase;
       seed < kAuditSeedBase + kAuditSeeds; ++seed) {
    const AuditReport r =
        audit_merges(apps::fuzz_scenario(seed), kAuditMaxStates);
    expect_no_witness(r, apps::fuzz_scenario_name(seed));
    hits += r.key_hits;
  }
  EXPECT_GT(hits, 0u);
}

TEST(MergeAuditor, FineInterleavingCorpusMergesOnlyEquivalentStates) {
  // The same corpus with every handler command parked first: packet_outs
  // naming a buffer wait in the controller.
  for (std::uint64_t seed = kAuditSeedBase;
       seed < kAuditSeedBase + kFineSeeds; ++seed) {
    apps::Scenario s = apps::fuzz_scenario(seed);
    s.config.fine_interleaving = true;
    expect_no_witness(audit_merges(s, kFineMaxStates),
                      apps::fuzz_scenario_name(seed) + " fine");
  }
}

TEST(MergeAuditor, BundledScenariosMergeOnlyEquivalentStates) {
  auto fine_ping2 = [] {
    apps::Scenario s = apps::pyswitch_ping_chain(2);
    s.config.fine_interleaving = true;
    return s;
  };
  const std::vector<apps::NamedScenario> cases = {
      {"pyswitch-ping2", [] { return apps::pyswitch_ping_chain(2); }},
      {"pyswitch-ping2-fine", fine_ping2},
      {"pyswitch-restart", [] { return apps::pyswitch_restart(); }},
      {"te-linkfail-react", [] { return apps::te_linkfail(true); }},
      {"lb-linkfail-react", [] { return apps::lb_linkfail(true); }},
  };
  for (const apps::NamedScenario& c : cases) {
    const AuditReport r = audit_merges(c.make(), kAuditMaxStates);
    expect_no_witness(r, c.name);
    EXPECT_GT(r.key_hits, 0u) << c.name;
  }
}

// ---- Switch sections -------------------------------------------------------

TEST(SwitchSections, PartsConcatenateToSerialize) {
  // Bounded DFS on two concurrent pings: states with buffered packets and
  // packet_in / packet_out messages in flight.
  const apps::Scenario s = apps::pyswitch_ping_chain(2);
  const Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  std::set<util::Hash128> seen;
  std::vector<SystemState> stack;
  stack.push_back(ex.make_initial());
  std::size_t buffered = 0;
  std::size_t packet_outs = 0;
  std::size_t packet_ins = 0;
  std::size_t visited = 0;
  while (!stack.empty() && visited < 400) {
    const SystemState st = std::move(stack.back());
    stack.pop_back();
    ++visited;
    for (const of::Switch& sw : st.switches()) {
      if (!sw.buffer().empty()) ++buffered;
      for (const of::ToSwitch& m : sw.of_in().items()) {
        if (std::holds_alternative<of::PacketOut>(m)) ++packet_outs;
      }
      for (const of::ToController& m : sw.of_out().items()) {
        if (std::holds_alternative<of::PacketIn>(m)) ++packet_ins;
      }
      for (const bool canonical : {true, false}) {
        util::Ser whole;
        sw.serialize(whole, canonical);
        util::Ser parts;
        for (std::size_t p = 0; p < of::Switch::kSerializeParts; ++p) {
          sw.serialize_part(parts, canonical, p);
        }
        EXPECT_EQ(parts.view(), whole.view())
            << "switch " << sw.id << (canonical ? " canonical" : " raw");
      }
    }
    for (const Transition& t : ex.enabled(st, cache)) {
      SystemState next = st.clone();
      std::vector<Violation> vs;
      ex.apply(next, t, vs);
      if (seen.insert(next.hash(true)).second) {
        stack.push_back(std::move(next));
      }
    }
  }
  EXPECT_GT(buffered, 0u);
  EXPECT_GT(packet_outs, 0u);
  EXPECT_GT(packet_ins, 0u);
}

}  // namespace
}  // namespace nicemc::mc
