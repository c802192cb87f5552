// Golden state keys: the exact hash values and key bytes of every bundled
// scenario's initial state and of every state along a fixed seeded random
// walk through it, folded into one digest per scenario.
//
// Every seen-set key, every checkpoint and bench_nice's fingerprint hang
// on these bytes, so a change to any serializer, to the flow-table order,
// to the buffer naming or to the uid renumbering fails here directly
// rather than only when a merge count happens to move. At each state the
// digest folds in:
//   * SystemState::hash(true) and hash(false) — the hash-mode keys;
//   * the serialization in the scenario's form (the full-state key);
//   * the collapse_key bytes (the COLLAPSE key, against one table that
//     interns along the walk, so its ids are pinned too);
//   * for scenarios that declare symmetry orbits, the symmetric canonical
//     key's bytes and hash.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/scenarios.h"
#include "mc/execute.h"
#include "mc/sym_reduce.h"
#include "util/collapse.h"
#include "util/hash.h"
#include "util/ser.h"

namespace nicemc::mc {
namespace {

constexpr std::size_t kWalkSteps = 200;
constexpr std::uint64_t kWalkSeed = 0x5eed5eedULL;

util::Hash128 bytes_hash(std::string_view b) {
  return util::hash128({reinterpret_cast<const std::byte*>(b.data()),
                        b.size()});
}

struct Digest {
  util::Hash128 value{0x676f6c64656e2d6bULL, 0x6579732d64696721ULL};
  std::size_t states{0};

  void fold(const util::Hash128& h) { value = util::hash128_combine(value, h); }
};

void fold_state(Digest& d, const SystemState& st, bool canonical,
                util::CollapseTable& table, const SymContext* sym) {
  d.fold(st.hash(true));
  d.fold(st.hash(false));
  util::Ser full;
  st.serialize(full, canonical);
  d.fold(full.hash());
  d.fold(bytes_hash(st.collapse_key(table, canonical)));
  if (sym != nullptr) {
    const SymKey k = sym->canonical_key(st, nullptr);
    d.fold(k.hash);
    d.fold(bytes_hash(k.key));
  }
  ++d.states;
}

/// The initial state, then kWalkSteps seeded random steps; a quiescent
/// state restarts the walk from the initial state.
Digest walk_digest(const apps::Scenario& s) {
  const Executor ex(s.config, s.properties);
  const bool canonical = s.config.canonical_flowtables;
  std::unique_ptr<SymContext> sym;
  if (!s.config.symmetry_orbits.empty()) {
    sym = std::make_unique<SymContext>(s.config);
  }
  util::CollapseTable table;
  DiscoveryCache cache;
  util::SplitMix64 rng(kWalkSeed);
  Digest d;

  const SystemState initial = ex.make_initial();
  fold_state(d, initial, canonical, table, sym.get());
  SystemState st = initial.clone();
  for (std::size_t step = 0; step < kWalkSteps; ++step) {
    const std::vector<Transition> ts = ex.enabled(st, cache);
    if (ts.empty()) {
      st = initial.clone();
      continue;
    }
    SystemState next = st.clone();
    std::vector<Violation> vs;
    ex.apply(next, ts[rng.next_below(ts.size())], vs);
    fold_state(d, next, canonical, table, sym.get());
    st = std::move(next);
  }
  return d;
}

struct Pin {
  std::size_t states;
  std::uint64_t lo;
  std::uint64_t hi;
};

// Measured with the string-append serializer, the per-call flow-table
// sort and the per-packet buffer naming, before they were reworked.
const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> p = {
      {"pyswitch-ping1", {191, 0xd56dc438798a8c30ULL, 0xb33d68132d82bc6aULL}},
      {"pyswitch-ping2", {196, 0x3e0b18d0643c12b4ULL, 0x021067473f7ba04bULL}},
      {"pyswitch-ping2-raw",
       {196, 0x80b2f67f2b7cc22bULL, 0x354245cb3f72d071ULL}},
      {"pyswitch-bug1", {192, 0x04caf598dfc87c6aULL, 0xb00fc36940b04e3dULL}},
      {"pyswitch-bug2", {191, 0x0942a2cc1c833525ULL, 0xf4228552315c7da6ULL}},
      {"pyswitch-bug3", {201, 0x2566bc5db55f8d6aULL, 0x54dbb2bf8a1df066ULL}},
      {"lb-fixed", {193, 0xdadf36dedeb20408ULL, 0xcdbacae7e65a9a6cULL}},
      {"lb-bugs", {186, 0x95387907731e4c21ULL, 0xdced893631421f0dULL}},
      {"lb-affinity", {193, 0x56e37f145d4098e6ULL, 0xe77f597775154a46ULL}},
      {"te", {168, 0xe0919a0b30383e21ULL, 0x9adcdb07254d99faULL}},
      {"te-routing", {186, 0xf437646514264e41ULL, 0x2e827a62a7b1a754ULL}},
      {"pyswitch-linkfail",
       {193, 0x43fd59f0c32c0916ULL, 0xbe06fe9afd70e8f7ULL}},
      {"pyswitch-linkfail-react",
       {193, 0x43fd59f0c32c0916ULL, 0xbe06fe9afd70e8f7ULL}},
      {"pyswitch-ctrlloss",
       {190, 0xb163ad517a7f2168ULL, 0xd5ca8a7f01470f57ULL}},
      {"pyswitch-restart", {190, 0x16c856f4b3cc8884ULL, 0xb56fe6068f3542a1ULL}},
      {"lb-linkfail", {182, 0x8c3c977301737464ULL, 0x221701314b7c99d0ULL}},
      {"lb-linkfail-react",
       {185, 0x1fdb764ef1cc8df6ULL, 0xbdc3181ad6988779ULL}},
      {"te-linkfail", {184, 0x8ceaddb323cf614dULL, 0x269fd926c1e5b208ULL}},
      {"te-linkfail-react",
       {186, 0x313eb7e5c474c15bULL, 0xd76e1dca6c417255ULL}},
      {"sym-ping3", {196, 0xa3e168ef7c002abdULL, 0x337ff5cdd2cfa66eULL}},
      {"lb-sym4", {192, 0xcd64275b32385eb6ULL, 0x4f903f974eaeba1cULL}},
      {"te-sym2", {192, 0xf5d113417375e952ULL, 0x8b170ff9ad5a1bc8ULL}},
  };
  return p;
}

TEST(StateKeys, BundledScenarioWalksMatchGoldenDigests) {
  std::string report;
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const apps::Scenario s = ns.make();
    const Digest d = walk_digest(s);
    char line[160];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", {%zu, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL}},\n",
                  ns.name.c_str(), d.states, d.value.lo, d.value.hi);
    const auto it = pins().find(ns.name);
    if (it == pins().end() || it->second.states != d.states ||
        it->second.lo != d.value.lo || it->second.hi != d.value.hi) {
      report += line;
    }
  }
  EXPECT_TRUE(report.empty()) << "state-key digests differ from the pins "
                                 "(actual values):\n"
                              << report;
  EXPECT_EQ(pins().size(), apps::bundled_scenarios().size());
}

}  // namespace
}  // namespace nicemc::mc
