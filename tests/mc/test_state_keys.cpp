// Golden state keys: the exact key bytes and hash values of every bundled
// scenario's initial state and of every state along a fixed seeded random
// walk through it, folded into three digests per scenario.
//
// Every seen-set key, every checkpoint and bench_nice's fingerprint hang
// on these values, so a change to any serializer, to the flow-table order,
// to the buffer naming or to the uid renumbering fails here directly
// rather than only when a merge count happens to move. At each state:
//   * the bytes digest folds in the serialization in the scenario's form
//     (the full-state key) and, for scenarios that declare symmetry
//     orbits, the symmetric canonical key's bytes;
//   * the collapse digest folds in the collapse_key bytes (the COLLAPSE
//     key, against one table that interns along the walk, so its ids are
//     pinned too); a change to the interning granularity moves it and
//     must leave the bytes digest alone;
//   * the hashes digest folds in SystemState::hash(true) and hash(false)
//     (the hash-mode keys) and the symmetric key's hash.
// The first two digest key bytes through a frozen reference hash, not
// util::hash128, so a change to the hash function moves only the third.
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

/// The frozen reference byte digest: two FNV-1a lanes with distinct
/// offset bases, one multiply per byte. It is slow and its lanes share
/// bit 0, which is fine for a test digest; what matters is that it never
/// changes, so the bytes and collapse pins move only when key bytes do.
util::Hash128 bytes_hash(std::string_view b) {
  std::uint64_t lo = 0xcbf29ce484222325ULL;
  std::uint64_t hi = 0x9ae16a3b2f90404fULL;
  for (const unsigned char c : b) {
    lo = (lo ^ c) * 0x00000100000001b3ULL;
    hi = (hi ^ c) * 0x00000100000001b3ULL;
  }
  return util::Hash128{lo, hi};
}

struct Digest {
  util::Hash128 bytes{0x676f6c64656e2d6bULL, 0x6579732d64696721ULL};
  util::Hash128 collapse{0x676f6c64656e2d6bULL, 0x6579732d64696721ULL};
  util::Hash128 hashes{0x676f6c64656e2d6bULL, 0x6579732d64696721ULL};
  std::size_t states{0};
};

void fold(util::Hash128& d, const util::Hash128& h) {
  d = util::hash128_combine(d, h);
}

void fold_state(Digest& d, const SystemState& st, bool canonical,
                util::CollapseTable& table, const SymContext* sym) {
  util::Ser full;
  st.serialize(full, canonical);
  fold(d.bytes, bytes_hash(full.view()));
  fold(d.hashes, st.hash(true));
  fold(d.hashes, st.hash(false));
  if (sym != nullptr) {
    const SymKey k = sym->canonical_key(st, nullptr);
    fold(d.bytes, bytes_hash(k.key));
    fold(d.hashes, k.hash);
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
  util::Hash128 bytes;
  util::Hash128 collapse;
  util::Hash128 hashes;
};

const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> p = {
      {"pyswitch-ping1",
       {191,
        {0xf73989312b796bbbULL, 0xe96a829e339c2a1cULL},
        {0xa9502ab1720f745eULL, 0x1b2a1d1932275499ULL},
        {0xf97e96057147c037ULL, 0x1b93808e907565d9ULL}}},
      {"pyswitch-ping2",
       {196,
        {0x61524d8f67c8fa02ULL, 0x33d6054a432ddaefULL},
        {0xcf8cd274fba163f8ULL, 0xd1eb250e0d8a432dULL},
        {0x45e7be47c01fbebcULL, 0xef015b964208f461ULL}}},
      {"pyswitch-ping2-raw",
       {196,
        {0xc77b0b3a2cc03908ULL, 0xb764367b433d45ccULL},
        {0x37aee7612872716cULL, 0x770a633023448450ULL},
        {0x45e7be47c01fbebcULL, 0xef015b964208f461ULL}}},
      {"pyswitch-bug1",
       {192,
        {0xf2908695dc54b2cfULL, 0xddec9fe5d6a7ef32ULL},
        {0x420026e61f65fb61ULL, 0x142f5363004b8575ULL},
        {0x9a060c620c97f364ULL, 0x85157def67f169a3ULL}}},
      {"pyswitch-bug2",
       {191,
        {0x4acaea2f9ae55943ULL, 0x2cfefec8c3f812ddULL},
        {0x972a7e7f0f08d5afULL, 0xa8ed6a3e9614fd36ULL},
        {0x414280c180d97fd2ULL, 0x21306c12603e394fULL}}},
      {"pyswitch-bug3",
       {201,
        {0x0dfda31472bd7772ULL, 0x2c88a4e42db6922bULL},
        {0xe269bff4063efbd9ULL, 0xb175abfcc2d9e24bULL},
        {0x9dd0d7cf54f17a5cULL, 0x85525ba957325516ULL}}},
      {"lb-fixed",
       {193,
        {0x51a7367d400483b7ULL, 0x514e3070c7c075d2ULL},
        {0xe78feb223aba9fc3ULL, 0xb7128b000c08e0a5ULL},
        {0x6c28f8ce869f4056ULL, 0x587a044a53eb3660ULL}}},
      {"lb-bugs",
       {186,
        {0xd03781ea6cacd23fULL, 0x53cdd54f80c23470ULL},
        {0xd8798d5e08bb022aULL, 0x0cfbd56d34b17c5dULL},
        {0xcf3a8a91ee7d90a0ULL, 0xc49d7d78a6fc25deULL}}},
      {"lb-affinity",
       {193,
        {0xdc7d8a21e4b6cc59ULL, 0xfe9253c307326564ULL},
        {0xaf39642ba0c8ba7fULL, 0xb0522d0f7de8a287ULL},
        {0x4e24d20f8729e86bULL, 0x05e437aba63d1140ULL}}},
      {"te",
       {168,
        {0x0669488c538ecc42ULL, 0xe78c18ad6b30c7efULL},
        {0xadc4870566318b94ULL, 0x55c57a60983907b3ULL},
        {0xc12cdf3b81c1c975ULL, 0x19ce04792e7e2e07ULL}}},
      {"te-routing",
       {186,
        {0x023e59ecdb3d19f4ULL, 0x91b7482151554633ULL},
        {0x8e5d1a01b4ea4e8fULL, 0xc86735c251b19674ULL},
        {0x64cf620dcf9f6c11ULL, 0x6ea264702478fe2eULL}}},
      {"pyswitch-linkfail",
       {193,
        {0xac2bddbd13d0045cULL, 0xf80e919a0f24d846ULL},
        {0x6636bf1c0e15866bULL, 0xa851b9c513742163ULL},
        {0xc54d8d2af6c67165ULL, 0x79d5db581fa10354ULL}}},
      {"pyswitch-linkfail-react",
       {193,
        {0xac2bddbd13d0045cULL, 0xf80e919a0f24d846ULL},
        {0x6636bf1c0e15866bULL, 0xa851b9c513742163ULL},
        {0xc54d8d2af6c67165ULL, 0x79d5db581fa10354ULL}}},
      {"pyswitch-ctrlloss",
       {190,
        {0x96cf39db1ae2aebdULL, 0xd93987a6bff185d1ULL},
        {0xbf207b5198815c1cULL, 0x5c0ffd2cbd82fb07ULL},
        {0xf292c607737d0cb4ULL, 0xb390699ef7018a20ULL}}},
      {"pyswitch-restart",
       {190,
        {0xb06f891a97d3e14cULL, 0x1aa5a65c7375cd6aULL},
        {0xbc937508d0011ee6ULL, 0xa963a5ad5f59af7bULL},
        {0x97e83270f0bece47ULL, 0xa923c383d0d79401ULL}}},
      {"lb-linkfail",
       {182,
        {0xc2f7e3bd6b9b3d9bULL, 0x3edf24e9371f445eULL},
        {0xf6c7fdd9c791911dULL, 0x33161d3da1743d79ULL},
        {0xc8da1d1cbad5e45aULL, 0x55ef2927e887f0f0ULL}}},
      {"lb-linkfail-react",
       {185,
        {0x27cb253afd30ea3cULL, 0xa947740a382d0027ULL},
        {0x0f0640644b2f72fcULL, 0x3b2cb2664792e448ULL},
        {0x2622cd3ac657423dULL, 0xb3e85d23c0cb4d7bULL}}},
      {"te-linkfail",
       {184,
        {0xeb55985586b1cc72ULL, 0xddcc4a3096ead053ULL},
        {0x12cf4d8c2a5c3911ULL, 0x76a28d44020401baULL},
        {0xc29dc64ffff2e6a3ULL, 0x80a4ed3861786ea6ULL}}},
      {"te-linkfail-react",
       {186,
        {0x1b509e9c3fc6eb0eULL, 0x3d21887463eb40c1ULL},
        {0xbd303baf5b9d007aULL, 0x4888ed5e7956b9f9ULL},
        {0x09867c571c95febbULL, 0x5c0f5587eafed06eULL}}},
      {"sym-ping3",
       {196,
        {0x81d56e2c7f7e529fULL, 0x1fcc523f5a6c92a0ULL},
        {0x52cfc84c412ddd3cULL, 0x54071b5865d89377ULL},
        {0x5f7e9eaa1b7d3546ULL, 0x4bb4dac73abb6b8bULL}}},
      {"lb-sym4",
       {192,
        {0x38798b78c2eab79eULL, 0x97d48f856e3eab37ULL},
        {0x870ae099a1ed9300ULL, 0xa69272445a78f46dULL},
        {0x55a8d1d5898c9b01ULL, 0x44b172864986a9f0ULL}}},
      {"te-sym2",
       {192,
        {0xcd3cf767bafa76ddULL, 0x4a800009041fd130ULL},
        {0x04da2d533beb401eULL, 0xb1b57544308b4e12ULL},
        {0x83c3a48d9ace8e91ULL, 0xa95e97dcf3cf19e5ULL}}},
  };
  return p;
}

std::string pin_line(const std::string& name, const Digest& d) {
  char line[320];
  std::snprintf(line, sizeof line,
                "      {\"%s\",\n       {%zu,\n        {0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL},\n        {0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL},\n        {0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL}}},\n",
                name.c_str(), d.states, d.bytes.lo, d.bytes.hi, d.collapse.lo,
                d.collapse.hi, d.hashes.lo, d.hashes.hi);
  return line;
}

TEST(StateKeys, BundledScenarioWalksMatchGoldenDigests) {
  std::string bytes_report;
  std::string collapse_report;
  std::string hashes_report;
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const apps::Scenario s = ns.make();
    const Digest d = walk_digest(s);
    const auto it = pins().find(ns.name);
    if (it == pins().end() || it->second.states != d.states ||
        it->second.bytes != d.bytes) {
      bytes_report += pin_line(ns.name, d);
    }
    if (it == pins().end() || it->second.collapse != d.collapse) {
      collapse_report += pin_line(ns.name, d);
    }
    if (it == pins().end() || it->second.hashes != d.hashes) {
      hashes_report += pin_line(ns.name, d);
    }
  }
  EXPECT_TRUE(bytes_report.empty())
      << "key-byte digests differ from the pins (actual values):\n"
      << bytes_report;
  EXPECT_TRUE(collapse_report.empty())
      << "collapse-key digests differ from the pins (actual values):\n"
      << collapse_report;
  EXPECT_TRUE(hashes_report.empty())
      << "key-hash digests differ from the pins (actual values):\n"
      << hashes_report;
  EXPECT_EQ(pins().size(), apps::bundled_scenarios().size());
}

}  // namespace
}  // namespace nicemc::mc
