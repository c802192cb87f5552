// Golden state keys: the exact hash values and key bytes of every bundled
// scenario's initial state and of every state along a fixed seeded random
// walk through it, folded into one digest per scenario.
//
// Every seen-set key, every checkpoint and bench_nice's fingerprint hang
// on these bytes, so a change to any serializer, to the flow-table order,
// to the buffer naming or to the uid renumbering fails here directly
// rather than only when a merge count happens to move. At each state the
// key digest folds in:
//   * SystemState::hash(true) and hash(false) — the hash-mode keys;
//   * the serialization in the scenario's form (the full-state key);
//   * for scenarios that declare symmetry orbits, the symmetric canonical
//     key's bytes and hash.
// A second digest folds in the collapse_key bytes (the COLLAPSE key,
// against one table that interns along the walk, so its ids are pinned
// too). It is kept apart because it pins what the table interns, not only
// the serialized bytes: a change to the interning granularity moves it
// and must leave the key digest alone.
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
  util::Hash128 keys{0x676f6c64656e2d6bULL, 0x6579732d64696721ULL};
  util::Hash128 collapse{0x676f6c64656e2d6bULL, 0x6579732d64696721ULL};
  std::size_t states{0};
};

void fold(util::Hash128& d, const util::Hash128& h) {
  d = util::hash128_combine(d, h);
}

void fold_state(Digest& d, const SystemState& st, bool canonical,
                util::CollapseTable& table, const SymContext* sym) {
  fold(d.keys, st.hash(true));
  fold(d.keys, st.hash(false));
  util::Ser full;
  st.serialize(full, canonical);
  fold(d.keys, full.hash());
  if (sym != nullptr) {
    const SymKey k = sym->canonical_key(st, nullptr);
    fold(d.keys, k.hash);
    fold(d.keys, bytes_hash(k.key));
  }
  fold(d.collapse, bytes_hash(st.collapse_key(table, canonical)));
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
  util::Hash128 keys;
  util::Hash128 collapse;
};

// The key digests were measured while switches and hosts were still
// interned section by section, and interning them whole must not move
// them; the collapse digests were measured after.
const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> p = {
      {"pyswitch-ping1",
       {191,
        {0x6a83daeadfe25d64ULL, 0xaea394b1e80d678cULL},
        {0xa9502ab1720f745eULL, 0x1b2a1d1932275499ULL}}},
      {"pyswitch-ping2",
       {196,
        {0x5db8438ae172129eULL, 0xb44330cb6f58e3e6ULL},
        {0xcf8cd274fba163f8ULL, 0xd1eb250e0d8a432dULL}}},
      {"pyswitch-ping2-raw",
       {196,
        {0x6c6951ba4df8f784ULL, 0x8a3080fe1a3093f2ULL},
        {0x37aee7612872716cULL, 0x770a633023448450ULL}}},
      {"pyswitch-bug1",
       {192,
        {0xae1f2bd849585d4bULL, 0xf0312a23f751c52eULL},
        {0x420026e61f65fb61ULL, 0x142f5363004b8575ULL}}},
      {"pyswitch-bug2",
       {191,
        {0xdca8429f4a5084aeULL, 0x848b388ca88f4886ULL},
        {0x972a7e7f0f08d5afULL, 0xa8ed6a3e9614fd36ULL}}},
      {"pyswitch-bug3",
       {201,
        {0xc461e691ee136630ULL, 0x8a1ffe9388a04bd3ULL},
        {0xe269bff4063efbd9ULL, 0xb175abfcc2d9e24bULL}}},
      {"lb-fixed",
       {193,
        {0x394196a52af333c7ULL, 0xdd4292cd8b000a97ULL},
        {0xe78feb223aba9fc3ULL, 0xb7128b000c08e0a5ULL}}},
      {"lb-bugs",
       {186,
        {0x1b1f0508ffc165cfULL, 0x311623c69a605727ULL},
        {0xd8798d5e08bb022aULL, 0x0cfbd56d34b17c5dULL}}},
      {"lb-affinity",
       {193,
        {0x8f844de6f9fe44d4ULL, 0xaddf8de4cadfd4d2ULL},
        {0xaf39642ba0c8ba7fULL, 0xb0522d0f7de8a287ULL}}},
      {"te",
       {168,
        {0x76a496b0bc280ae6ULL, 0x738344136faa0befULL},
        {0xadc4870566318b94ULL, 0x55c57a60983907b3ULL}}},
      {"te-routing",
       {186,
        {0x39ad99e1e66dee8fULL, 0x887bd3eddb62eb53ULL},
        {0x8e5d1a01b4ea4e8fULL, 0xc86735c251b19674ULL}}},
      {"pyswitch-linkfail",
       {193,
        {0x9cb0bc42b4723294ULL, 0x8ee15e1baeca73cdULL},
        {0x6636bf1c0e15866bULL, 0xa851b9c513742163ULL}}},
      {"pyswitch-linkfail-react",
       {193,
        {0x9cb0bc42b4723294ULL, 0x8ee15e1baeca73cdULL},
        {0x6636bf1c0e15866bULL, 0xa851b9c513742163ULL}}},
      {"pyswitch-ctrlloss",
       {190,
        {0xd875f7010834da36ULL, 0x83a766e7516c52ccULL},
        {0xbf207b5198815c1cULL, 0x5c0ffd2cbd82fb07ULL}}},
      {"pyswitch-restart",
       {190,
        {0x009b50ff7264c0cbULL, 0x5945b5b5e113386bULL},
        {0xbc937508d0011ee6ULL, 0xa963a5ad5f59af7bULL}}},
      {"lb-linkfail",
       {182,
        {0x64d5ccaa8da452f9ULL, 0x8d3d60aba2ce1b08ULL},
        {0xf6c7fdd9c791911dULL, 0x33161d3da1743d79ULL}}},
      {"lb-linkfail-react",
       {185,
        {0x0d51c690c7503c29ULL, 0xd22b0b005ff77385ULL},
        {0x0f0640644b2f72fcULL, 0x3b2cb2664792e448ULL}}},
      {"te-linkfail",
       {184,
        {0x08f05335b54a7067ULL, 0x78e3dd21ebd773c0ULL},
        {0x12cf4d8c2a5c3911ULL, 0x76a28d44020401baULL}}},
      {"te-linkfail-react",
       {186,
        {0x7f492f9b1bfbacb8ULL, 0x1ad125ff7bc53066ULL},
        {0xbd303baf5b9d007aULL, 0x4888ed5e7956b9f9ULL}}},
      {"sym-ping3",
       {196,
        {0x5ba76d8e6be1fb76ULL, 0x8861c90a0b4a643fULL},
        {0x52cfc84c412ddd3cULL, 0x54071b5865d89377ULL}}},
      {"lb-sym4",
       {192,
        {0x5f5bc60aca0a8f9bULL, 0x9518571e67f7e09eULL},
        {0x870ae099a1ed9300ULL, 0xa69272445a78f46dULL}}},
      {"te-sym2",
       {192,
        {0xb23af9e3b165e45cULL, 0xdad7a3a295df65e8ULL},
        {0x04da2d533beb401eULL, 0xb1b57544308b4e12ULL}}},
  };
  return p;
}

std::string pin_line(const std::string& name, const Digest& d) {
  char line[256];
  std::snprintf(line, sizeof line,
                "      {\"%s\",\n       {%zu,\n        {0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL},\n        {0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL}}},\n",
                name.c_str(), d.states, d.keys.lo, d.keys.hi, d.collapse.lo,
                d.collapse.hi);
  return line;
}

TEST(StateKeys, BundledScenarioWalksMatchGoldenDigests) {
  std::string keys_report;
  std::string collapse_report;
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const apps::Scenario s = ns.make();
    const Digest d = walk_digest(s);
    const auto it = pins().find(ns.name);
    if (it == pins().end() || it->second.states != d.states ||
        it->second.keys != d.keys) {
      keys_report += pin_line(ns.name, d);
    }
    if (it == pins().end() || it->second.collapse != d.collapse) {
      collapse_report += pin_line(ns.name, d);
    }
  }
  EXPECT_TRUE(keys_report.empty()) << "state-key digests differ from the "
                                      "pins (actual values):\n"
                                   << keys_report;
  EXPECT_TRUE(collapse_report.empty())
      << "collapse-key digests differ from the pins (actual values):\n"
      << collapse_report;
  EXPECT_EQ(pins().size(), apps::bundled_scenarios().size());
}

}  // namespace
}  // namespace nicemc::mc
