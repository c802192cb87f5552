// The symmetry-reduction layer (mc/sym_reduce.h): orbit validation, the
// canonical-key unit contract on hand-built states, the differential
// soundness sweep (symmetry on must report the identical canonicalized
// violation set as symmetry off across stores, reduction knobs and thread
// counts, with no more unique states), the k!-collapse acceptance ratios,
// the uid-draw-order regression (states differing only in uid allocation
// history merge), and checkpoint/resume identity with symmetry on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/checkpoint.h"
#include "mc/strategy.h"
#include "mc/sym_reduce.h"
#include "props/no_forgotten_packets.h"
#include "util/hash.h"
#include "util/rename.h"
#include "util/ser.h"

namespace nicemc::mc {
namespace {

using StoreMode = util::ShardedSeenSet::Mode;

CheckerResult run_opt(const apps::Scenario& s, const CheckerOptions& opt) {
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

CheckerResult run_sym(const apps::Scenario& s, bool symmetry,
                      StoreMode store = StoreMode::kHash,
                      unsigned threads = 1,
                      Reduction reduction = Reduction::kNone) {
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.symmetry = symmetry;
  opt.state_store = store;
  opt.threads = threads;
  opt.reduction = reduction;
  return run_opt(s, opt);
}

/// Violation keys with orbit-member identifiers rewritten to orbit-slot
/// placeholders: the unreduced search reports one message per member, the
/// reduced search one per orbit, so *sets* are compared post-rewrite.
std::set<std::string> sym_violation_set(const CheckerResult& r,
                                        const SymContext& sym) {
  std::vector<Violation> vs;
  vs.reserve(r.violations.size());
  for (const ViolationRecord& rec : r.violations) {
    vs.push_back(Violation{rec.violation.property,
                           sym.canonicalize_violation(rec.violation.message)});
  }
  const std::vector<std::string> keys = violation_keys(vs);
  return {keys.begin(), keys.end()};
}

struct SweepCase {
  std::string name;
  std::function<apps::Scenario()> make;
};

/// The bundled k-client symmetric families at exhaustible sizes.
std::vector<SweepCase> bundled_symmetric_cases() {
  return {
      {"sym-ping3", [] { return apps::sym_ping_scenario(3); }},
      {"lb-sym4", [] { return apps::lb_sym_scenario(4); }},
      {"te-sym2", [] { return apps::te_sym_scenario(2); }},
  };
}

/// Host-send transitions of the initial state, indexed by host id.
std::vector<Transition> initial_sends(const Executor& ex,
                                      const SystemState& initial) {
  DiscoveryCache cache;
  std::vector<Transition> sends;
  for (const Transition& t : ex.enabled(initial, cache)) {
    if (t.kind == TKind::kHostSendScript) sends.push_back(t);
  }
  return sends;
}

// ---- Canonical-key unit contract ------------------------------------------

TEST(SymContext, SingleSendStatesShareOneCanonicalKey) {
  // Three interchangeable clients; after exactly one of them sent its
  // ping, the three successor states are images of each other under the
  // orbit permutation — one canonical key, three raw keys.
  const apps::Scenario s = apps::sym_ping_scenario(3);
  const SymContext sym(s.config);
  EXPECT_EQ(sym.orbit_count(), 1u);
  EXPECT_EQ(sym.orbit_host_count(), 3u);
  EXPECT_FALSE(sym.includes_next_uid());  // scripted senders only

  const Executor ex(s.config, s.properties);
  const SystemState initial = ex.make_initial();
  const std::vector<Transition> sends = initial_sends(ex, initial);
  ASSERT_EQ(sends.size(), 3u);

  std::set<std::string> canonical;
  std::set<std::string> raw;
  for (const Transition& t : sends) {
    SystemState next = initial.clone();
    std::vector<Violation> vs;
    ex.apply(next, t, vs);
    canonical.insert(sym.canonical_key(next, nullptr).key);
    util::Ser ser;
    next.serialize(ser, s.config.canonical_flowtables);
    raw.insert(ser.take());
  }
  EXPECT_EQ(canonical.size(), 1u);  // exactness: one orbit, one key
  EXPECT_EQ(raw.size(), 3u);
  EXPECT_EQ(sym.canonicalizations(), 3u);
}

TEST(SymContext, TwoSendInterleavingsMergeAcrossUidAndRole) {
  // All six ordered pairs (client i sends, then client j) land in three
  // raw two-sent states per unordered pair choice — but a single
  // canonical key: the role permutation maps any sent-pair onto any
  // other, and uid renumbering erases which send drew uid 0.
  const apps::Scenario s = apps::sym_ping_scenario(3);
  const SymContext sym(s.config);
  const Executor ex(s.config, s.properties);
  const SystemState initial = ex.make_initial();
  const std::vector<Transition> sends = initial_sends(ex, initial);
  ASSERT_EQ(sends.size(), 3u);

  std::set<std::string> canonical;
  int pairs = 0;
  for (const Transition& first : sends) {
    for (const Transition& second : sends) {
      if (first.a == second.a) continue;
      SystemState next = initial.clone();
      std::vector<Violation> vs;
      ex.apply(next, first, vs);
      ex.apply(next, second, vs);
      canonical.insert(sym.canonical_key(next, nullptr).key);
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 6);
  EXPECT_EQ(canonical.size(), 1u);
}

TEST(SymContext, UidDrawOrderAloneMergesWithoutAnyOrbit) {
  // The uid-canonicalization bugfix in isolation: no orbits declared, so
  // only the renumbering pass is active. Two interleavings that differ
  // only in which send drew which uid must produce one canonical key
  // while their raw serializations differ.
  apps::Scenario s = apps::sym_ping_scenario(2);
  s.symmetry.clear();
  s.config.symmetry_orbits.clear();
  const SymContext sym(s.config);
  EXPECT_EQ(sym.orbit_count(), 0u);

  const Executor ex(s.config, s.properties);
  const SystemState initial = ex.make_initial();
  const std::vector<Transition> sends = initial_sends(ex, initial);
  ASSERT_EQ(sends.size(), 2u);

  std::vector<std::string> canonical;
  std::set<std::string> raw;
  for (const auto& [first, second] :
       {std::pair{0, 1}, std::pair{1, 0}}) {
    SystemState next = initial.clone();
    std::vector<Violation> vs;
    ex.apply(next, sends[static_cast<std::size_t>(first)], vs);
    ex.apply(next, sends[static_cast<std::size_t>(second)], vs);
    canonical.push_back(sym.canonical_key(next, nullptr).key);
    util::Ser ser;
    next.serialize(ser, s.config.canonical_flowtables);
    raw.insert(ser.take());
  }
  EXPECT_EQ(raw.size(), 2u);  // next_uid draw order leaks into raw keys
  EXPECT_EQ(canonical[0], canonical[1]);
}

// ---- Member signatures: fast path vs per-member reference ----------------

/// An orbit member's renamed identifiers, read straight from the config.
struct RefMember {
  std::uint32_t host{0};
  std::uint64_t mac{0};
  std::uint64_t ip{0};
  of::SwitchId sw{0};
  of::PortId port{0};
  std::vector<std::uint32_t> flows;
};

std::vector<RefMember> ref_orbit(const SystemConfig& cfg, std::size_t o) {
  std::vector<of::HostId> ids = cfg.symmetry_orbits.at(o);
  std::sort(ids.begin(), ids.end());
  std::vector<RefMember> out;
  for (const of::HostId id : ids) {
    const topo::HostSpec& spec = cfg.topology->host(id);
    RefMember m{id, spec.mac, spec.ip, spec.attach_switch, spec.attach_port,
                {}};
    for (const hosts::ScriptEntry& e : cfg.host_behavior[id].script) {
      m.flows.push_back(e.flow_id);
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// Reference signature of `member`: the whole state serialized under one
/// fresh renamer with that member at TAG and the rest of its orbit at
/// BOTTOM, the orbit's hosts as a sorted multiset. This is the
/// per-member serialization SymContext::member_signatures must reproduce
/// byte for byte while re-serializing only what each member touches.
std::string reference_signature(const SystemState& state,
                                const std::vector<RefMember>& orbit,
                                std::size_t member, bool canonical) {
  util::Renamer rn;
  rn.uid_mode = util::Renamer::UidMode::kElide;
  for (std::size_t j = 0; j < orbit.size(); ++j) {
    const RefMember& m = orbit[j];
    const bool tag = (j == member);
    rn.mac.add(m.mac, tag ? sig::kTagMac : sig::kBotMac);
    rn.ip.add(m.ip, tag ? sig::kTagIp : sig::kBotIp);
    rn.host.add(m.host, tag ? sig::kTagHost : sig::kBotHost);
    rn.port.add((static_cast<std::uint64_t>(m.sw) << 32) | m.port,
                tag ? sig::kTagPort : sig::kBotPort);
    for (std::size_t e = 0; e < m.flows.size(); ++e) {
      rn.flow.add(m.flows[e], (tag ? sig::kTagFlowBase : sig::kBotFlowBase) +
                                  static_cast<std::uint32_t>(e));
    }
  }
  const util::Renamer::Scope scope(&rn);
  util::Ser s;
  state.ctrl().serialize(s);
  for (std::size_t i = 0; i < state.switch_count(); ++i) {
    state.sw(i).serialize(s, canonical);
  }
  std::vector<std::string> orbit_blobs;
  for (const RefMember& m : orbit) {
    util::Ser tmp;
    state.host(m.host).serialize(tmp, canonical);
    orbit_blobs.push_back(tmp.take());
  }
  std::sort(orbit_blobs.begin(), orbit_blobs.end());
  std::size_t next = 0;
  for (std::size_t i = 0; i < state.host_count(); ++i) {
    if (next < orbit.size() && orbit[next].host == i) {
      s.append(orbit_blobs[next++]);
    } else {
      state.host(i).serialize(s, canonical);
    }
  }
  for (std::size_t i = 0; i < state.prop_count(); ++i) {
    state.prop(i).serialize(s);
  }
  return s.take();
}

/// Reference canonical key: members ranked by reference signatures, then
/// the whole state serialized twice in full under one renamer (assign
/// pass, then frozen pass). SymContext::canonical_key must produce the same
/// bytes while reusing what it can.
std::string reference_canonical_key(const SystemState& state,
                                    const SystemConfig& cfg,
                                    bool includes_next_uid) {
  const bool canonical = cfg.canonical_flowtables;
  std::vector<std::uint32_t> emit(state.host_count());
  for (std::size_t i = 0; i < emit.size(); ++i) {
    emit[i] = static_cast<std::uint32_t>(i);
  }
  util::Renamer rn;
  for (std::size_t o = 0; o < cfg.symmetry_orbits.size(); ++o) {
    const std::vector<RefMember> orbit = ref_orbit(cfg, o);
    std::vector<std::pair<std::string, std::size_t>> ranked;
    for (std::size_t j = 0; j < orbit.size(); ++j) {
      ranked.emplace_back(reference_signature(state, orbit, j, canonical), j);
    }
    std::stable_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t r = 0; r < orbit.size(); ++r) {
      const RefMember& src = orbit[ranked[r].second];
      const RefMember& dst = orbit[r];
      emit[dst.host] = src.host;
      rn.mac.add(src.mac, dst.mac);
      rn.ip.add(src.ip, dst.ip);
      rn.host.add(src.host, dst.host);
      rn.port.add((static_cast<std::uint64_t>(src.sw) << 32) | src.port,
                  dst.port);
      for (std::size_t e = 0; e < src.flows.size(); ++e) {
        rn.flow.add(src.flows[e], dst.flows[e]);
      }
    }
  }
  auto whole = [&](util::Ser& s) {
    state.ctrl().serialize(s);
    s.put_u32(static_cast<std::uint32_t>(state.switch_count()));
    for (std::size_t i = 0; i < state.switch_count(); ++i) {
      state.sw(i).serialize(s, canonical);
    }
    s.put_u32(static_cast<std::uint32_t>(state.host_count()));
    for (std::size_t i = 0; i < state.host_count(); ++i) {
      state.host(emit[i]).serialize(s, canonical);
    }
    s.put_u32(static_cast<std::uint32_t>(state.prop_count()));
    for (std::size_t i = 0; i < state.prop_count(); ++i) {
      state.prop(i).serialize(s);
    }
    if (includes_next_uid) s.put_u32(state.next_uid);
    state.faults.serialize(s);
    if (!canonical) s.put_u32(state.next_copy);
  };
  const util::Renamer::Scope scope(&rn);
  rn.uid_mode = util::Renamer::UidMode::kAssign;
  util::Ser discard;
  whole(discard);
  rn.finalize_uids();
  rn.uid_mode = util::Renamer::UidMode::kFrozen;
  util::Ser blob;
  whole(blob);
  return blob.take();
}

/// Exhaustive symmetric DFS with the checker's expansion rules (default
/// strategy, states merged by canonical key, no expansion past a
/// violation); calls `visit` on every state it reaches first.
void for_each_reached_state(
    const apps::Scenario& s,
    const std::function<void(const SystemState&)>& visit) {
  const Executor ex(s.config, s.properties);
  const SymContext sym(s.config);
  const Strategy strategy = CheckerOptions{}.strategy;
  DiscoveryCache cache;
  std::set<std::string> seen;
  std::vector<SystemState> stack;
  stack.push_back(ex.make_initial());
  seen.insert(sym.canonical_key(stack.back(), nullptr).key);
  while (!stack.empty()) {
    const SystemState st = std::move(stack.back());
    stack.pop_back();
    visit(st);
    for (const Transition& t :
         apply_strategy(strategy, s.config, st, ex.enabled(st, cache))) {
      SystemState next = st.clone();
      std::vector<Violation> vs;
      ex.apply(next, t, vs);
      if (vs.empty() &&
          seen.insert(sym.canonical_key(next, nullptr).key).second) {
        stack.push_back(std::move(next));
      }
    }
  }
}

TEST(SymSignatures, FastSignaturesMatchPerMemberReference) {
  for (const SweepCase& c : bundled_symmetric_cases()) {
    const apps::Scenario s = c.make();
    const SymContext sym(s.config);
    const bool canonical = s.config.canonical_flowtables;
    std::vector<std::vector<RefMember>> orbits;
    for (std::size_t o = 0; o < sym.orbit_count(); ++o) {
      orbits.push_back(ref_orbit(s.config, o));
    }
    std::size_t states = 0;
    std::size_t mismatches = 0;
    for_each_reached_state(s, [&](const SystemState& st) {
      ++states;
      for (std::size_t o = 0; o < orbits.size(); ++o) {
        const std::vector<std::string> fast = sym.member_signatures(st, o);
        ASSERT_EQ(fast.size(), orbits[o].size()) << c.name;
        for (std::size_t j = 0; j < fast.size(); ++j) {
          if (fast[j] != reference_signature(st, orbits[o], j, canonical)) {
            ++mismatches;
          }
        }
      }
    });
    EXPECT_GT(states, 500u) << c.name;
    EXPECT_EQ(mismatches, 0u) << c.name << " over " << states << " states";
  }
}

TEST(SymSignatures, CanonicalKeysMatchTwoFullPassReference) {
  for (const SweepCase& c : bundled_symmetric_cases()) {
    const apps::Scenario s = c.make();
    const SymContext sym(s.config);
    std::size_t states = 0;
    std::size_t mismatches = 0;
    for_each_reached_state(s, [&](const SystemState& st) {
      ++states;
      if (sym.canonical_key(st, nullptr).key !=
          reference_canonical_key(st, s.config, sym.includes_next_uid())) {
        ++mismatches;
      }
    });
    EXPECT_GT(states, 500u) << c.name;
    EXPECT_EQ(mismatches, 0u) << c.name << " over " << states << " states";
  }
}

// ---- Signature memos on copy-on-write nodes --------------------------------

/// A fresh state, sharing no node (and so no memo) with any other: the
/// first `len` transitions of `path` replayed from the initial state.
SystemState replay(const Executor& ex, const std::vector<Transition>& path,
                   std::size_t len) {
  SystemState st = ex.make_initial();
  std::vector<Violation> vs;
  for (std::size_t i = 0; i < len; ++i) ex.apply(st, path[i], vs);
  return st;
}

/// A seeded random walk under the default strategy. Each state is a clone
/// of the one before with one transition applied, so the sections it did
/// not write share their nodes (and memos) with it, as in the search.
struct Walk {
  std::vector<SystemState> states;  // states[i] follows path[0..i)
  std::vector<Transition> path;
};

Walk shared_walk(const apps::Scenario& s, const Executor& ex,
                 std::uint64_t seed, std::size_t steps) {
  Walk w;
  DiscoveryCache cache;
  util::SplitMix64 rng(seed);
  w.states.push_back(ex.make_initial());
  while (w.path.size() < steps) {
    const SystemState& cur = w.states.back();
    const std::vector<Transition> ts = apply_strategy(
        CheckerOptions{}.strategy, s.config, cur, ex.enabled(cur, cache));
    if (ts.empty()) break;
    const Transition t = ts[rng.next_below(ts.size())];
    SystemState next = cur.clone();
    std::vector<Violation> vs;
    ex.apply(next, t, vs);
    if (!vs.empty()) break;
    w.states.push_back(std::move(next));
    w.path.push_back(t);
  }
  return w;
}

TEST(SymMemo, ComponentWrittenInPlaceAfterItsKeyDropsItsMemo) {
  // Each step writes the state in place: its nodes are its own, so a
  // write reuses the very node the previous key memoized on. Keys and
  // signatures must match a replayed copy that has no memos.
  const apps::Scenario s = apps::lb_sym_scenario(4);
  const SymContext sym(s.config);
  const Executor ex(s.config, s.properties);
  DiscoveryCache cache;
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::SplitMix64 rng(seed);
    SystemState st = ex.make_initial();
    std::vector<Transition> path;
    (void)sym.canonical_key(st, nullptr);
    for (std::size_t step = 0; step < 40; ++step) {
      const std::vector<Transition> ts = apply_strategy(
          CheckerOptions{}.strategy, s.config, st, ex.enabled(st, cache));
      if (ts.empty()) break;
      path.push_back(ts[rng.next_below(ts.size())]);
      std::vector<Violation> vs;
      ex.apply(st, path.back(), vs);
      if (!vs.empty()) break;
      const SystemState fresh = replay(ex, path, path.size());
      EXPECT_EQ(sym.member_signatures(st, 0),
                sym.member_signatures(fresh, 0))
          << "seed " << seed << " step " << step;
      EXPECT_EQ(sym.canonical_key(st, nullptr).key,
                sym.canonical_key(fresh, nullptr).key)
          << "seed " << seed << " step " << step;
      ++checked;
    }
  }
  EXPECT_GT(checked, 120u);
}

TEST(SymMemo, ContextsWithDifferentOrbitsAlternateOverSharedStates) {
  // Two contexts over one state space, one with the whole client orbit
  // and one with two of its members: the same nodes carry both contexts'
  // memos, which must never be read for each other.
  const apps::Scenario s = apps::lb_sym_scenario(4);
  SystemConfig pair_cfg = s.config;
  pair_cfg.symmetry_orbits = {{1, 3}};
  const SymContext full(s.config);
  const SymContext pair(pair_cfg);
  const Executor ex(s.config, s.properties);
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Walk w = shared_walk(s, ex, seed, 40);
    for (std::size_t i = 0; i < w.states.size(); ++i) {
      const SystemState fresh = replay(ex, w.path, i);
      for (int round = 0; round < 2; ++round) {
        // Alternate which context keys the shared state first.
        const bool full_first = (i + round) % 2 == 0;
        for (const SymContext* sym :
             {full_first ? &full : &pair, full_first ? &pair : &full}) {
          EXPECT_EQ(sym->member_signatures(w.states[i], 0),
                    sym->member_signatures(fresh, 0))
              << "seed " << seed << " state " << i;
          EXPECT_EQ(sym->canonical_key(w.states[i], nullptr).key,
                    sym->canonical_key(fresh, nullptr).key)
              << "seed " << seed << " state " << i;
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 120u);
}

TEST(SymMemo, RecreatedContextAtTheSameAddressBuildsItsOwnMemos) {
  // A context destroyed and re-created in the same storage, with another
  // orbit: memos keyed by address would hand the new context the old
  // one's bytes.
  const apps::Scenario s = apps::lb_sym_scenario(4);
  SystemConfig pair_cfg = s.config;
  pair_cfg.symmetry_orbits = {{0, 2}};
  const Executor ex(s.config, s.properties);
  const Walk w = shared_walk(s, ex, 7, 40);
  ASSERT_GE(w.path.size(), 10u);

  std::optional<SymContext> sym;
  sym.emplace(pair_cfg);
  const SymContext* const first = &*sym;
  for (const SystemState& st : w.states) (void)sym->canonical_key(st, nullptr);
  sym.reset();
  sym.emplace(s.config);
  ASSERT_EQ(&*sym, first);
  for (std::size_t i = 0; i < w.states.size(); ++i) {
    const SystemState fresh = replay(ex, w.path, i);
    EXPECT_EQ(sym->member_signatures(w.states[i], 0),
              sym->member_signatures(fresh, 0))
        << "state " << i;
    const std::string key = sym->canonical_key(w.states[i], nullptr).key;
    EXPECT_EQ(key, sym->canonical_key(fresh, nullptr).key) << "state " << i;
    EXPECT_EQ(key, reference_canonical_key(w.states[i], s.config,
                                           sym->includes_next_uid()))
        << "state " << i;
  }
}

/// The number of signature sections of `st`: the controller, each
/// switch part, each host, each property monitor.
std::size_t section_count(const SystemState& st) {
  return 1 + st.switch_count() * of::Switch::kSerializeParts +
         st.host_count() + st.prop_count();
}

TEST(SymMemo, EqualContentSharesOneMemoThatOutlivesItsNodes) {
  // Two states with equal content and no node in common: the second one's
  // sections take the memos built for the first from this thread's cache,
  // and a memo the cache holds outlives a write to one node and the
  // destruction of the other.
  const apps::Scenario s = apps::lb_sym_scenario(4);
  const SymContext sym(s.config);
  const Executor ex(s.config, s.properties);
  const Walk w = shared_walk(s, ex, 3, 12);
  ASSERT_GE(w.path.size(), 6u);
  SystemState a = replay(ex, w.path, w.path.size());
  auto b = std::make_unique<SystemState>(replay(ex, w.path, w.path.size()));
  const std::string key = sym.canonical_key(a, nullptr).key;
  const std::uint64_t reuses = sym.memo_reuses();
  EXPECT_EQ(sym.canonical_key(*b, nullptr).key, key);
  const std::size_t n = section_count(a);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NE(sym.find_section_memo(a, 0, i), nullptr) << "section " << i;
    EXPECT_EQ(sym.find_section_memo(*b, 0, i), sym.find_section_memo(a, 0, i))
        << "section " << i;
  }
  EXPECT_EQ(sym.memo_reuses() - reuses, n);

  const util::SigMemo* ctrl = sym.find_section_memo(a, 0, 0);
  ASSERT_NE(ctrl, nullptr);
  const std::string bottom(ctrl->bottom());
  (void)a.ctrl_mut();  // a's node is its own: the write drops its memos
  EXPECT_EQ(sym.find_section_memo(a, 0, 0), nullptr);
  b.reset();
  const SystemState c = replay(ex, w.path, w.path.size());
  EXPECT_EQ(sym.canonical_key(c, nullptr).key, key);
  EXPECT_EQ(sym.find_section_memo(c, 0, 0), ctrl);
  EXPECT_EQ(ctrl->bottom(), bottom);
}

TEST(SymMemo, EqualContentInAnotherSectionGetsItsOwnMemo) {
  // Stateless monitors all serialize alike, but a memo is filed under its
  // section too: the ingress and port-stats bytes rename ports per
  // switch, so equal plain bytes in two sections need not sign alike.
  // Enough monitors that the cache's entries for sections 16 apart
  // coincide.
  apps::Scenario s = apps::lb_sym_scenario(4);
  while (s.properties.size() < 18) {
    s.properties.push_back(std::make_unique<props::NoForgottenPackets>());
  }
  const SymContext sym(s.config);
  const Executor ex(s.config, s.properties);
  const Walk w = shared_walk(s, ex, 5, 6);
  for (std::size_t i = 0; i < w.states.size(); ++i) {
    // A fresh state each time: every monitor's memo is looked up in the
    // cache, which the last state filled.
    const SystemState st = replay(ex, w.path, i);
    (void)sym.canonical_key(st, nullptr);
    const std::size_t first = section_count(st) - st.prop_count();
    std::set<const util::SigMemo*> memos;
    for (std::size_t p = 0; p < st.prop_count(); ++p) {
      ASSERT_EQ(st.prop_form_hash(p, true), st.prop_form_hash(0, true));
      const util::SigMemo* m = sym.find_section_memo(st, 0, first + p);
      ASSERT_NE(m, nullptr);
      EXPECT_EQ(m->key().section, first + p);
      memos.insert(m);
    }
    EXPECT_EQ(memos.size(), st.prop_count());
  }
}

// ---- Raw revisits -----------------------------------------------------------

/// Exhaustive symmetric DFS with the checker's expansion rules, states
/// merged by a context of its own; calls `arrive` on the root and on
/// every state a transition reaches, revisits included.
void for_each_arrival(const apps::Scenario& s,
                      const std::function<void(const SystemState&)>& arrive) {
  const Executor ex(s.config, s.properties);
  const SymContext sym(s.config);
  const Strategy strategy = CheckerOptions{}.strategy;
  DiscoveryCache cache;
  std::set<std::string> seen;
  std::vector<SystemState> stack;
  stack.push_back(ex.make_initial());
  arrive(stack.back());
  seen.insert(sym.canonical_key(stack.back(), nullptr).key);
  while (!stack.empty()) {
    const SystemState st = std::move(stack.back());
    stack.pop_back();
    for (const Transition& t :
         apply_strategy(strategy, s.config, st, ex.enabled(st, cache))) {
      SystemState next = st.clone();
      std::vector<Violation> vs;
      ex.apply(next, t, vs);
      arrive(next);
      if (vs.empty() &&
          seen.insert(sym.canonical_key(next, nullptr).key).second) {
        stack.push_back(std::move(next));
      }
    }
  }
}

TEST(SymContext, RawRevisitHashesEqualBuiltKeys) {
  // canonical_hash reads a state's key back from this thread's table
  // when its plain hash is there. On every arrival of an exhaustive walk,
  // revisits included, it must equal the hash of the key canonical_key
  // builds: with one context; with two contexts of different orbits
  // taking turns on the table; and with a context destroyed and
  // re-created at the same address with other orbits.
  for (const SweepCase& c : bundled_symmetric_cases()) {
    const apps::Scenario s = c.make();
    SystemConfig bare = s.config;
    bare.symmetry_orbits.clear();
    auto agrees = [](const SymContext& sym, const SystemState& st) {
      return sym.canonical_hash(st) == sym.canonical_key(st, nullptr).hash;
    };

    const SymContext one(s.config);
    std::size_t arrivals = 0;
    std::size_t mismatches = 0;
    for_each_arrival(s, [&](const SystemState& st) {
      ++arrivals;
      if (!agrees(one, st)) ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u) << c.name << " over " << arrivals;
    EXPECT_GT(one.raw_revisits(), 0u) << c.name;
    EXPECT_EQ(one.canonicalizations() + one.raw_revisits(), 2 * arrivals)
        << c.name;  // canonical_key builds every key it is asked for

    const SymContext full(s.config);
    const SymContext none(bare);
    std::size_t i = 0;
    for_each_arrival(s, [&](const SystemState& st) {
      if (!agrees((i++ / 64) % 2 == 0 ? full : none, st)) ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u) << c.name << " taking turns";
    EXPECT_GT(full.raw_revisits(), 0u) << c.name;
    EXPECT_GT(none.raw_revisits(), 0u) << c.name;

    std::optional<SymContext> sym;
    sym.emplace(bare);
    const SymContext* const first = &*sym;
    std::uint64_t first_hits = 0;
    i = 0;
    for_each_arrival(s, [&](const SystemState& st) {
      if (i++ == arrivals / 2) {
        first_hits = sym->raw_revisits();
        sym.reset();
        sym.emplace(s.config);
        ASSERT_EQ(&*sym, first);
      }
      if (!agrees(*sym, st)) ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u) << c.name << " re-created";
    EXPECT_GT(first_hits, 0u) << c.name;
    EXPECT_GT(sym->raw_revisits(), 0u) << c.name;
  }
}

TEST(SymContext, RawRevisitsAndBuiltKeysAddUpToEveryArrival) {
  // A hash-mode search builds a key for each arrival (transitions plus
  // the root: 2746 on lb-sym4) unless its plain hash is in the table;
  // the full-state store builds every one.
  const CheckerResult r = run_sym(apps::lb_sym_scenario(4), true);
  ASSERT_TRUE(r.exhausted);
  EXPECT_EQ(r.transitions + 1, 2746u);
  EXPECT_EQ(r.symmetry.canonicalizations + r.symmetry.raw_revisits, 2746u);
  EXPECT_GT(r.symmetry.raw_revisits, 0u);
  EXPECT_GT(r.symmetry.memo_reuses, 0u);
  const CheckerResult full =
      run_sym(apps::lb_sym_scenario(4), true, StoreMode::kFullState);
  EXPECT_EQ(full.symmetry.canonicalizations, 2746u);
  EXPECT_EQ(full.symmetry.raw_revisits, 0u);
}

// ---- Orbit validation -----------------------------------------------------

TEST(SymContext, RejectsInvalidOrbitDeclarations) {
  {
    // Members attached to different switches are not interchangeable.
    apps::Scenario s = apps::pyswitch_ping_chain(2);
    s.config.symmetry_orbits = {{0, 1}};
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    apps::Scenario s = apps::sym_ping_scenario(2);
    s.config.symmetry_orbits = {{0}};  // singleton orbit
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    apps::Scenario s = apps::sym_ping_scenario(2);
    s.config.symmetry_orbits = {{0, 0}};  // repeated member
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    apps::Scenario s = apps::sym_ping_scenario(2);
    s.config.symmetry_orbits = {{0, 7}};  // out of range
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    apps::Scenario s = apps::sym_ping_scenario(3);
    s.config.symmetry_orbits = {{0, 1}, {1, 2}};  // overlapping orbits
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    // Client and replica have different behaviours and scripts.
    apps::Scenario s = apps::lb_scenario({});
    s.config.symmetry_orbits = {{0, 1}};
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    // Mobile hosts cannot be renamed (alt locations are per-host).
    apps::Scenario s = apps::pyswitch_bug1();
    s.config.symmetry_orbits = {{0, 1}};
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    // A signature memo records the members it hit in one 64-bit mask:
    // 64 identical clients form an orbit, 65 do not.
    const int most = static_cast<int>(SymContext::kMaxOrbitMembers);
    apps::Scenario s = apps::sym_ping_scenario(most + 1);
    ASSERT_EQ(s.symmetry.size(), 1u);
    std::vector<of::HostId> clients = s.symmetry.front();
    ASSERT_EQ(clients.size(), SymContext::kMaxOrbitMembers + 1);
    s.config.symmetry_orbits = {clients};
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
    clients.pop_back();
    s.config.symmetry_orbits = {clients};
    EXPECT_NO_THROW(SymContext{s.config});
  }
}

// ---- Differential soundness sweep -----------------------------------------

std::vector<SweepCase> sweep_cases() {
  return {
      {"sym-ping2", [] { return apps::sym_ping_scenario(2); }},
      {"lb-sym3", [] { return apps::lb_sym_scenario(3); }},
      {"lb-sym3-bugs", [] { return apps::lb_sym_scenario(3, false); }},
      {"te-sym2", [] { return apps::te_sym_scenario(2); }},
  };
}

TEST(SymDifferential, IdenticalViolationSetsAcrossStoresThreadsReductions) {
  for (const SweepCase& c : sweep_cases()) {
    const apps::Scenario ref = c.make();
    const SymContext sym(ref.config);
    const CheckerResult off = run_sym(ref, /*symmetry=*/false);
    ASSERT_TRUE(off.exhausted) << c.name;
    const std::set<std::string> off_vs = sym_violation_set(off, sym);

    for (const StoreMode store :
         {StoreMode::kHash, StoreMode::kFullState, StoreMode::kCollapsed}) {
      for (const unsigned threads : {1u, 4u}) {
        for (const Reduction red : {Reduction::kNone, Reduction::kSleep}) {
          const apps::Scenario s = c.make();
          const CheckerResult on = run_sym(s, true, store, threads, red);
          const std::string tag = c.name + " / store=" +
                                  std::to_string(static_cast<int>(store)) +
                                  " threads=" + std::to_string(threads) +
                                  " red=" + reduction_name(red);
          EXPECT_TRUE(on.exhausted) << tag;
          EXPECT_EQ(sym_violation_set(on, sym), off_vs) << tag;
          EXPECT_LE(on.unique_states, off.unique_states) << tag;
          EXPECT_LE(on.quiescent_states, off.quiescent_states) << tag;
          EXPECT_TRUE(on.symmetry.enabled) << tag;
          EXPECT_EQ(on.symmetry.orbits, 1u) << tag;
          EXPECT_GT(on.symmetry.canonicalizations, 0u) << tag;
          // Symmetry forces partial-order reduction off: symmetric merges
          // break the sleep-set label contract. Footprints are computed
          // only by the reduced search, so none may be looked up.
          EXPECT_EQ(on.memo.footprint_hits + on.memo.footprint_misses, 0u)
              << tag;
        }
      }
    }
  }
}

TEST(SymDifferential, FactorialCollapseOnBundledFamilies) {
  // The acceptance ratio: on a k-client symmetric scenario the reduced
  // search explores at most 1/(k-1)! of the unreduced unique states.
  {
    const apps::Scenario off_s = apps::lb_sym_scenario(4);  // k = 4
    const CheckerResult off = run_sym(off_s, false);
    const CheckerResult on = run_sym(apps::lb_sym_scenario(4), true);
    ASSERT_TRUE(off.exhausted);
    ASSERT_TRUE(on.exhausted);
    EXPECT_LE(on.unique_states * 6, off.unique_states);  // 1/(4-1)!
  }
  {
    const CheckerResult off = run_sym(apps::sym_ping_scenario(3), false);
    const CheckerResult on = run_sym(apps::sym_ping_scenario(3), true);
    ASSERT_TRUE(off.exhausted);
    ASSERT_TRUE(on.exhausted);
    EXPECT_LE(on.unique_states * 2, off.unique_states);  // 1/(3-1)!
  }
}

TEST(SymDifferential, CountsArePinnedOnBundledSymmetricScenarios) {
  // The representative ranking decides which states merge, so a change to
  // how signatures are built that alters a ranking shows up here as a
  // count change, not only as a looser bound. Values are the counts of
  // the per-member-serialization implementation at 1 thread.
  struct Pin {
    std::uint64_t transitions, unique, quiescent;
  };
  // Identical under kHash and kCollapsed.
  const std::map<std::string, Pin> pins = {
      {"sym-ping3", {20937, 5650, 3}},
      {"lb-sym4", {2745, 976, 5}},
      {"te-sym2", {2420, 951, 3}},
  };
  for (const SweepCase& c : bundled_symmetric_cases()) {
    const Pin& p = pins.at(c.name);
    for (const StoreMode store : {StoreMode::kHash, StoreMode::kCollapsed}) {
      const std::string tag =
          c.name + " / store=" + std::to_string(static_cast<int>(store));
      const CheckerResult r = run_sym(c.make(), true, store);
      EXPECT_TRUE(r.exhausted) << tag;
      EXPECT_EQ(r.transitions, p.transitions) << tag;
      EXPECT_EQ(r.unique_states, p.unique) << tag;
      EXPECT_EQ(r.quiescent_states, p.quiescent) << tag;
    }
  }
}

TEST(SymContext, SignaturesReserializeOnlyWhatAMemberTouches) {
  // Per-member signatures used to serialize every component once per
  // member, plus the assign and frozen passes: (k + 2) runs per component
  // per key. Signature bytes are now memoized per section on the
  // copy-on-write nodes, so a key pays for the sections its transition
  // wrote: the assign pass (one run per component) is the floor, and the
  // signature and frozen passes together must cost less than another.
  const apps::Scenario s = apps::lb_sym_scenario(4);
  const CheckerResult r = run_sym(s, true);
  ASSERT_TRUE(r.exhausted);
  const Executor ex(s.config, s.properties);
  const SystemState initial = ex.make_initial();
  const std::uint64_t components = 1 + initial.switch_count() +
                                   initial.host_count() +
                                   initial.prop_count();
  const std::uint64_t assign_pass =
      components * r.symmetry.canonicalizations;
  EXPECT_GE(r.symmetry.component_serializations, assign_pass);
  EXPECT_LT(r.symmetry.component_serializations, 2 * assign_pass);
}

// ---- Fault accounting: duplicate SYN spends the packet-fault budget -------

TEST(SymFaults, DupSynSpendsPacketFaultBudget) {
  apps::LbScenarioOptions o;
  o.fix_release_packet = true;
  o.fix_install_before_delete = true;
  o.client_can_dup_syn = true;
  o.data_segments = 2;
  o.check_flow_affinity = true;

  // Default packet-fault budget (2): the duplicate SYN fires and BUG-VII
  // (flow affinity broken across the dup) is found.
  const CheckerResult with_budget = run_sym(apps::lb_scenario(o), false);
  ASSERT_TRUE(with_budget.exhausted);
  ASSERT_FALSE(with_budget.violations.empty());
  EXPECT_EQ(with_budget.violations.front().violation.property,
            "FlowAffinity");

  // Budget 0: the dup is a packet-class fault and must be disabled — the
  // bug becomes unreachable and the state space shrinks.
  apps::Scenario s = apps::lb_scenario(o);
  s.config.max_packet_faults = 0;
  const CheckerResult no_budget = run_sym(s, false);
  ASSERT_TRUE(no_budget.exhausted);
  EXPECT_TRUE(no_budget.violations.empty());
  EXPECT_LT(no_budget.unique_states, with_budget.unique_states);
}

// ---- Checkpoint / resume --------------------------------------------------

std::string sym_ckpt_path(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "nicemc_sym_" + tag;
  std::remove(checkpoint_slot_a(path).c_str());
  std::remove(checkpoint_slot_b(path).c_str());
  return path;
}

void drop_sym_slots(const std::string& path) {
  std::remove(checkpoint_slot_a(path).c_str());
  std::remove(checkpoint_slot_b(path).c_str());
}

TEST(SymResume, InterruptedPlusResumedEqualsUninterrupted) {
  for (const StoreMode store :
       {StoreMode::kHash, StoreMode::kFullState, StoreMode::kCollapsed}) {
    SCOPED_TRACE(static_cast<int>(store));
    CheckerOptions base;
    base.stop_at_first_violation = false;
    base.symmetry = true;
    base.state_store = store;

    const CheckerResult full = run_opt(apps::sym_ping_scenario(3), base);
    ASSERT_TRUE(full.exhausted);

    const std::string path =
        sym_ckpt_path("resume_" + std::to_string(static_cast<int>(store)));
    CheckerOptions opt = base;
    opt.checkpoint_path = path;
    opt.checkpoint_interval_seconds = 0;
    opt.max_transitions = full.transitions / 2 + 1;
    const CheckerResult part = run_opt(apps::sym_ping_scenario(3), opt);
    ASSERT_GE(part.durability.checkpoints_written, 1u);

    opt.max_transitions = ~0ULL;
    opt.resume = true;
    const CheckerResult resumed = run_opt(apps::sym_ping_scenario(3), opt);
    EXPECT_TRUE(resumed.exhausted);
    if (part.hit_limit == LimitReason::kTransitions) {
      EXPECT_TRUE(resumed.durability.resumed);
    }
    EXPECT_EQ(resumed.unique_states, full.unique_states);
    EXPECT_EQ(resumed.quiescent_states, full.quiescent_states);
    EXPECT_EQ(resumed.transitions, full.transitions);
    EXPECT_EQ(violation_key_set(resumed), violation_key_set(full));
    drop_sym_slots(path);
  }
}

TEST(SymResume, SymmetryKnobIsPartOfTheConfigFingerprint) {
  // A checkpoint written without symmetry must not be resumed into a
  // symmetric search (and vice versa): the stored keys mean different
  // things. The mismatch falls back to a fresh run.
  const std::string path = sym_ckpt_path("fingerprint");
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  const CheckerResult off = run_opt(apps::sym_ping_scenario(2), opt);
  ASSERT_TRUE(off.exhausted);
  ASSERT_GE(off.durability.checkpoints_written, 1u);

  opt.symmetry = true;
  opt.resume = true;
  const CheckerResult on = run_opt(apps::sym_ping_scenario(2), opt);
  EXPECT_TRUE(on.exhausted);
  EXPECT_FALSE(on.durability.resumed);
  drop_sym_slots(path);
}

}  // namespace
}  // namespace nicemc::mc
