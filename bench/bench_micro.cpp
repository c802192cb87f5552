// Micro-benchmarks of the building blocks (google-benchmark): constraint
// solving, concolic discovery, flow-table operations, state hashing and
// cloning, and a small end-to-end model-checking run.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/discover.h"
#include "mc/strategy.h"
#include "mc/sym_reduce.h"
#include "of/switch.h"
#include "sym/concolic.h"
#include "sym/solver.h"
#include "util/hash.h"

using namespace nicemc;

namespace {

void BM_SolverMacEquality(benchmark::State& state) {
  sym::ExprArena a;
  const sym::ExprRef mac = a.var(0, 48);
  const std::uint64_t macs[] = {0x00aa0000000aULL, 0x00aa0000000bULL,
                                0xffffffffffffULL, 0x00feed000001ULL};
  const sym::ExprRef dom = a.any_of(mac, macs);
  const sym::ExprRef ne =
      a.cmp(sym::Op::kNe, mac, a.constant(0x00aa0000000aULL, 48));
  for (auto _ : state) {
    sym::Solver solver(a);
    const std::vector<sym::ExprRef> q = {dom, ne};
    benchmark::DoNotOptimize(solver.solve(q));
  }
}
BENCHMARK(BM_SolverMacEquality);

void BM_ConcolicTableScan(benchmark::State& state) {
  const auto entries = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sym::Concolic engine;
    const sym::VarHandle key = engine.add_var("key", 16, 0);
    const auto results = engine.explore([&](const sym::Inputs& in) {
      const sym::Value k = in[key];
      for (std::uint64_t e = 0; e < entries; ++e) {
        if (k == sym::Value(e * 3 + 1, 16)) return;
      }
    });
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_ConcolicTableScan)->Arg(2)->Arg(4)->Arg(8);

void BM_DiscoverPacketsPySwitch(benchmark::State& state) {
  auto s = apps::pyswitch_bug2();
  mc::Executor ex(s.config, s.properties);
  const mc::SystemState st = ex.make_initial();
  for (auto _ : state) {
    mc::DiscoveryStats stats;
    benchmark::DoNotOptimize(
        mc::discover_packets(s.config, st, /*host=*/0, stats));
  }
}
BENCHMARK(BM_DiscoverPacketsPySwitch);

void BM_FlowTableLookup(benchmark::State& state) {
  of::FlowTable table;
  const auto rules = static_cast<int>(state.range(0));
  for (int i = 0; i < rules; ++i) {
    of::Rule r;
    r.match.fields = static_cast<std::uint16_t>(of::MatchField::kEthDst);
    r.match.eth_dst = 0x1000 + static_cast<std::uint64_t>(i);
    r.actions = {of::Action::output(1)};
    table.add(r);
  }
  sym::PacketFields h;
  h.eth_dst = 0x1000 + static_cast<std::uint64_t>(rules - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1, h));
  }
}
BENCHMARK(BM_FlowTableLookup)->Arg(4)->Arg(16)->Arg(64);

void BM_FlowTableCanonicalSerialize(benchmark::State& state) {
  of::FlowTable table;
  for (int i = 0; i < 16; ++i) {
    of::Rule r;
    r.match.fields = static_cast<std::uint16_t>(of::MatchField::kEthDst);
    r.match.eth_dst = 0x1000 + static_cast<std::uint64_t>(i);
    r.priority = static_cast<std::uint16_t>(100 + (i % 3));
    r.actions = {of::Action::output(1)};
    table.add(r);
  }
  for (auto _ : state) {
    util::Ser s;
    table.serialize(s, true);
    benchmark::DoNotOptimize(s.hash());
  }
}
BENCHMARK(BM_FlowTableCanonicalSerialize);

// hash128 alone: 400 B is about one changed switch's serialization.
void BM_Hash128(benchmark::State& state) {
  std::vector<std::byte> bytes(static_cast<std::size_t>(state.range(0)));
  util::SplitMix64 rng(static_cast<std::uint64_t>(state.range(0)));
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bytes.data());
    benchmark::DoNotOptimize(util::hash128(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Hash128)->Arg(64)->Arg(400)->Arg(1500);

void BM_SystemStateHash(benchmark::State& state) {
  auto s = apps::pyswitch_ping_chain(2);
  mc::Executor ex(s.config, s.properties);
  const mc::SystemState st = ex.make_initial();
  for (auto _ : state) {
    benchmark::DoNotOptimize(st.hash(true));
  }
}
BENCHMARK(BM_SystemStateHash);

void BM_SystemStateClone(benchmark::State& state) {
  auto s = apps::pyswitch_ping_chain(2);
  mc::Executor ex(s.config, s.properties);
  const mc::SystemState st = ex.make_initial();
  for (auto _ : state) {
    mc::SystemState c = st.clone();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SystemStateClone);

// One switch transition's state layer on a pyswitch-ping4 state a few
// steps into the search: clone the state, run one process_pkt on a switch
// with a queued packet, hash the child, destroy it. The parent is hashed
// first, as the search has always hashed a state before expanding it.
void BM_SwitchMutateHash(benchmark::State& state) {
  auto s = apps::pyswitch_ping_chain(4);
  mc::Executor ex(s.config, s.properties);
  mc::DiscoveryCache cache;
  mc::SystemState st = ex.make_initial();
  std::vector<mc::Violation> vs;
  // Ten steps of the first enabled transition (a ping's packet_in has
  // been handled, its packet_out is queued), then host sends until some
  // switch has a packet queued beside a buffered one.
  auto ready = [&]() -> std::ptrdiff_t {
    for (std::size_t i = 0; i < st.switch_count(); ++i) {
      if (st.sw(i).can_process_pkt() && st.sw(i).forgotten_packets() > 0) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return -1;
  };
  std::ptrdiff_t sw = -1;
  for (int depth = 0; depth < 16 && (depth < 10 || (sw = ready()) < 0);
       ++depth) {
    const std::vector<mc::Transition> enabled = ex.enabled(st, cache);
    const mc::Transition* pick = enabled.empty() ? nullptr : &enabled.front();
    for (const mc::Transition& t : enabled) {
      if (depth >= 10 && t.kind == mc::TKind::kHostSendScript) pick = &t;
    }
    if (pick == nullptr) break;
    ex.apply(st, *pick, vs);
  }
  if (sw < 0) {
    state.SkipWithError("no switch with a queued and a buffered packet");
    return;
  }
  benchmark::DoNotOptimize(st.hash(true));
  const auto i = static_cast<std::size_t>(sw);
  for (auto _ : state) {
    mc::SystemState child = st.clone();
    benchmark::DoNotOptimize(child.sw_mut(i).process_pkt());
    benchmark::DoNotOptimize(child.hash(true));
  }
}
BENCHMARK(BM_SwitchMutateHash);

// A write to one OpenFlow channel of a switch that holds a buffered
// packet: copy the switch, let the controller receive the packet_in
// (pop_of_out), hash the copy. The part this unshares holds the buffer
// too, so this is the write that copies most for what it changes.
void BM_SwitchPopOfOutHash(benchmark::State& state) {
  of::Switch sw(0, {1, 2});
  of::Packet p;
  p.hdr.eth_src = 0x0a;
  p.hdr.eth_dst = 0x0b;
  p.uid = 1;
  sw.enqueue_packet(1, p);
  sw.process_pkt();  // a miss: buffers the packet and queues its packet_in
  benchmark::DoNotOptimize(sw.hash(true));
  for (auto _ : state) {
    of::Switch child = sw;
    benchmark::DoNotOptimize(child.pop_of_out());
    benchmark::DoNotOptimize(child.hash(true));
  }
}
BENCHMARK(BM_SwitchPopOfOutHash);

// One symmetric canonical key on lb-sym7 (7 interchangeable clients) for
// a child state six transitions in. Arg 0, cold: a replayed child, whose
// sections carry no signature memo. Arg 1, warm, as the search keys a new
// state: a clone of a keyed parent with one transition applied. Both use
// a context made for the iteration, so nothing an earlier one cached is
// reused. Arg 2, raw revisit: the warm child keyed again by one context,
// which its raw-revisit table answers. Arg 3, content cache: the cold
// child keyed by one context through canonical_key, which skips that
// table, so every section shares the memo cached for equal content.
// Building the states and contexts is not timed.
void BM_SymCanonicalKey(benchmark::State& state) {
  const std::int64_t mode = state.range(0);
  auto s = apps::lb_sym_scenario(7);
  mc::Executor ex(s.config, s.properties);
  std::optional<mc::SymContext> sym;
  sym.emplace(s.config);
  mc::DiscoveryCache cache;
  std::vector<mc::Violation> vs;
  // The path: the first enabled transition of the default strategy at
  // each step; the last one leads from the parent to the child.
  std::vector<mc::Transition> path;
  {
    mc::SystemState st = ex.make_initial();
    for (int depth = 0; depth < 6; ++depth) {
      const std::vector<mc::Transition> ts =
          mc::apply_strategy(mc::CheckerOptions{}.strategy, s.config, st,
                             ex.enabled(st, cache));
      if (ts.empty()) break;
      path.push_back(ts.front());
      ex.apply(st, path.back(), vs);
    }
  }
  if (path.empty()) {
    state.SkipWithError("no enabled transition");
    return;
  }
  auto replay = [&](std::size_t len) {
    mc::SystemState st = ex.make_initial();
    for (std::size_t i = 0; i < len; ++i) ex.apply(st, path[i], vs);
    return st;
  };
  const std::size_t last = path.size() - 1;
  mc::SystemState parent = replay(last);
  benchmark::DoNotOptimize(sym->canonical_hash(parent));
  mc::SystemState child;
  for (auto _ : state) {
    state.PauseTiming();
    if (mode <= 1) sym.emplace(s.config);
    if (mode == 1) {
      parent = replay(last);
      benchmark::DoNotOptimize(sym->canonical_hash(parent));
    }
    // Assigning frees the last child, also untimed.
    child = mode == 1 || mode == 2 ? parent.clone() : replay(last);
    ex.apply(child, path.back(), vs);
    state.ResumeTiming();
    if (mode == 3) {
      benchmark::DoNotOptimize(sym->canonical_key(child, nullptr));
    } else {
      benchmark::DoNotOptimize(sym->canonical_hash(child));
    }
  }
}
BENCHMARK(BM_SymCanonicalKey)->ArgName("mode")->DenseRange(0, 3);

void BM_CheckerPingExhaustive(benchmark::State& state) {
  const int pings = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto s = apps::pyswitch_ping_chain(pings);
    mc::Checker checker(s.config, mc::CheckerOptions{}, s.properties);
    benchmark::DoNotOptimize(checker.run());
  }
}
BENCHMARK(BM_CheckerPingExhaustive)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);

void BM_CheckerFindBug2(benchmark::State& state) {
  for (auto _ : state) {
    auto s = apps::pyswitch_bug2();
    mc::Checker checker(s.config, mc::CheckerOptions{}, s.properties);
    benchmark::DoNotOptimize(checker.run());
  }
}
BENCHMARK(BM_CheckerFindBug2)->Unit(benchmark::kMillisecond);

}  // namespace
