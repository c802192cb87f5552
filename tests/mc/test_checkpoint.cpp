// The durability layer (mc/checkpoint.h): A/B slot crash safety and
// corruption diagnostics, the interrupted-then-resumed differential gate
// (resumed totals must be exactly the uninterrupted run's) across
// reductions × frontiers × store modes × thread counts, cooperative
// interrupts, and the memory-budget watchdog.
#include "mc/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "util/seen_set.h"
#include "util/ser.h"

namespace nicemc::mc {
namespace {

using StoreMode = util::ShardedSeenSet::Mode;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A fresh checkpoint path under the gtest temp dir with no stale slots.
std::string fresh_ckpt_path(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "nicemc_ckpt_" + tag;
  std::remove(checkpoint_slot_a(path).c_str());
  std::remove(checkpoint_slot_b(path).c_str());
  return path;
}

void drop_slots(const std::string& path) {
  std::remove(checkpoint_slot_a(path).c_str());
  std::remove(checkpoint_slot_b(path).c_str());
}

// ---- Slot file layer ------------------------------------------------------

TEST(CheckpointSlot, RoundTrip) {
  const std::string path = fresh_ckpt_path("roundtrip");
  const std::string slot = checkpoint_slot_a(path);
  const std::string payload = "the quick brown packet jumps the flowtable";
  std::string error;
  ASSERT_TRUE(write_checkpoint_slot(slot, 7, payload, error)) << error;
  const SlotInfo info = read_checkpoint_slot(slot);
  EXPECT_TRUE(info.valid) << info.error;
  EXPECT_EQ(info.sequence, 7u);
  EXPECT_EQ(info.payload, payload);
  EXPECT_TRUE(info.error.empty());
  drop_slots(path);
}

TEST(CheckpointSlot, MissingFileRejectedCleanly) {
  const SlotInfo info =
      read_checkpoint_slot(::testing::TempDir() + "nicemc_no_such_slot");
  EXPECT_FALSE(info.valid);
  EXPECT_FALSE(info.error.empty());
}

TEST(CheckpointSlot, TruncatedHeaderRejected) {
  const std::string path = fresh_ckpt_path("trunc_header");
  const std::string slot = checkpoint_slot_a(path);
  std::string error;
  ASSERT_TRUE(write_checkpoint_slot(slot, 1, "payload-bytes", error));
  spit(slot, slurp(slot).substr(0, 10));
  const SlotInfo info = read_checkpoint_slot(slot);
  EXPECT_FALSE(info.valid);
  EXPECT_NE(info.error.find("truncated"), std::string::npos) << info.error;
  drop_slots(path);
}

TEST(CheckpointSlot, TruncatedPayloadRejected) {
  const std::string path = fresh_ckpt_path("trunc_payload");
  const std::string slot = checkpoint_slot_a(path);
  std::string error;
  ASSERT_TRUE(write_checkpoint_slot(slot, 1, "0123456789abcdef", error));
  const std::string bytes = slurp(slot);
  spit(slot, bytes.substr(0, bytes.size() - 5));  // SIGKILL mid-write
  const SlotInfo info = read_checkpoint_slot(slot);
  EXPECT_FALSE(info.valid);
  EXPECT_NE(info.error.find("truncated"), std::string::npos) << info.error;
  drop_slots(path);
}

TEST(CheckpointSlot, BitFlipRejected) {
  const std::string path = fresh_ckpt_path("bitflip");
  const std::string slot = checkpoint_slot_a(path);
  std::string error;
  ASSERT_TRUE(write_checkpoint_slot(slot, 1, "0123456789abcdef", error));
  std::string bytes = slurp(slot);
  bytes[bytes.size() - 3] ^= 0x20;  // one flipped bit in the payload
  spit(slot, bytes);
  const SlotInfo info = read_checkpoint_slot(slot);
  EXPECT_FALSE(info.valid);
  EXPECT_NE(info.error.find("checksum"), std::string::npos) << info.error;
  drop_slots(path);
}

TEST(CheckpointSlot, VersionMismatchRejected) {
  const std::string path = fresh_ckpt_path("version");
  const std::string slot = checkpoint_slot_a(path);
  std::string error;
  ASSERT_TRUE(write_checkpoint_slot(slot, 1, "payload", error));
  std::string bytes = slurp(slot);
  // Header layout: magic u64, then version u32 (big-endian) at offset 8.
  bytes[8] = 0x7f;
  spit(slot, bytes);
  const SlotInfo info = read_checkpoint_slot(slot);
  EXPECT_FALSE(info.valid);
  EXPECT_NE(info.error.find("version mismatch"), std::string::npos)
      << info.error;
  drop_slots(path);
}

TEST(CheckpointSlot, BadMagicRejected) {
  const std::string path = fresh_ckpt_path("magic");
  const std::string slot = checkpoint_slot_a(path);
  std::string error;
  ASSERT_TRUE(write_checkpoint_slot(slot, 1, "payload", error));
  std::string bytes = slurp(slot);
  bytes[0] ^= 0x01;
  spit(slot, bytes);
  const SlotInfo info = read_checkpoint_slot(slot);
  EXPECT_FALSE(info.valid);
  EXPECT_NE(info.error.find("magic"), std::string::npos) << info.error;
  drop_slots(path);
}

// ---- Interrupted + resumed ≡ uninterrupted --------------------------------

CheckerResult run_once(const apps::Scenario& s, const CheckerOptions& opt) {
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

/// Totals of an uninterrupted search: transitions, unique, quiescent and
/// revisits, and violations_digest() of its violation key set.
struct RefTotals {
  std::uint64_t transitions;
  std::uint64_t unique_states;
  std::uint64_t quiescent_states;
  std::uint64_t revisits;
  std::uint64_t violations;
};

std::uint64_t violations_digest(const std::vector<std::string>& keys) {
  util::Ser s;
  for (const std::string& k : keys) s.put_str(k);
  return s.hash().lo;
}

RefTotals totals(const CheckerResult& r) {
  return {r.transitions, r.unique_states, r.quiescent_states, r.revisits,
          violations_digest(violation_key_set(r))};
}

/// The one-worker kHash reference searches of the resume sweeps, keyed
/// "<frontier>_<reduction>/<scenario>": pinned instead of re-run per case,
/// so a count drift fails here too. The 4-worker, kCollapsed and
/// kFullState cases use the DFS pins: they are count-equivalent to the
/// one-worker kHash DFS.
const std::map<std::string, RefTotals>& reference_pins() {
  static const std::map<std::string, RefTotals> pins = {
      {"dfs_none/pyswitch-ping1", {18, 19, 1, 0, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/pyswitch-ping1", {18, 19, 1, 0, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/pyswitch-ping2", {677, 411, 7, 267, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/pyswitch-ping2", {501, 411, 7, 91, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/pyswitch-ping2-raw", {1302, 767, 7, 536, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/pyswitch-ping2-raw", {952, 767, 7, 186, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/pyswitch-bug1", {22792, 8688, 0, 8953, 0x2c3758d67929bf15ULL}},
      {"dfs_sleep/pyswitch-bug1", {19084, 8688, 0, 5527, 0x2c3758d67929bf15ULL}},
      {"dfs_none/pyswitch-bug2", {5407, 2983, 17, 2326, 0x3a3e1ee7374a1392ULL}},
      {"dfs_sleep/pyswitch-bug2", {5171, 2983, 17, 2098, 0x3a3e1ee7374a1392ULL}},
      {"dfs_none/pyswitch-bug3", {27308, 8068, 0, 12937, 0x0a2eff1205ae0ba8ULL}},
      {"dfs_sleep/pyswitch-bug3", {13649, 8068, 0, 3266, 0x0a2eff1205ae0ba8ULL}},
      {"dfs_none/lb-fixed", {2868, 1163, 4, 1706, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/lb-fixed", {1613, 1163, 4, 451, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/lb-bugs", {286, 156, 7, 131, 0x772268cbb69e8630ULL}},
      {"dfs_sleep/lb-bugs", {175, 156, 7, 20, 0x772268cbb69e8630ULL}},
      {"dfs_none/lb-affinity", {7595, 3235, 13, 4176, 0x62968eb992f62135ULL}},
      {"dfs_sleep/lb-affinity", {7336, 3235, 13, 3917, 0x62968eb992f62135ULL}},
      {"dfs_none/te", {7, 7, 1, 1, 0x7ffe250ce28b76a3ULL}},
      {"dfs_sleep/te", {6, 7, 1, 0, 0x7ffe250ce28b76a3ULL}},
      {"dfs_none/te-routing", {204, 104, 4, 100, 0x076aeb6a8902cd24ULL}},
      {"dfs_sleep/te-routing", {114, 104, 4, 10, 0x076aeb6a8902cd24ULL}},
      {"dfs_none/pyswitch-linkfail", {699, 310, 1, 382, 0x0e989003530f46ebULL}},
      {"dfs_sleep/pyswitch-linkfail", {457, 310, 1, 140, 0x0e989003530f46ebULL}},
      {"dfs_none/pyswitch-linkfail-react", {973, 449, 4, 513, 0x0e989003530f46ebULL}},
      {"dfs_sleep/pyswitch-linkfail-react", {634, 449, 4, 174, 0x0e989003530f46ebULL}},
      {"dfs_none/pyswitch-ctrlloss", {171, 123, 15, 49, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/pyswitch-ctrlloss", {134, 123, 15, 12, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/pyswitch-restart", {103, 75, 9, 29, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/pyswitch-restart", {88, 75, 9, 14, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/lb-linkfail", {370, 159, 4, 212, 0xe1315900faff983aULL}},
      {"dfs_sleep/lb-linkfail", {202, 159, 4, 44, 0xe1315900faff983aULL}},
      {"dfs_none/lb-linkfail-react", {650, 279, 7, 372, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/lb-linkfail-react", {338, 279, 7, 60, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/te-linkfail", {552, 254, 7, 299, 0xe66a9f0d3dcebef8ULL}},
      {"dfs_sleep/te-linkfail", {390, 254, 7, 137, 0xe66a9f0d3dcebef8ULL}},
      {"dfs_none/te-linkfail-react", {1812, 712, 11, 1101, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/te-linkfail-react", {883, 712, 11, 172, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/sym-ping3", {536517, 139796, 7, 396722, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/sym-ping3", {378801, 139796, 7, 239006, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/lb-sym4", {78632, 31230, 16, 47403, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/lb-sym4", {43239, 31230, 16, 12010, 0xec7f2e7e68e5289dULL}},
      {"dfs_none/te-sym2", {6808, 2672, 4, 4137, 0xec7f2e7e68e5289dULL}},
      {"dfs_sleep/te-sym2", {3660, 2672, 4, 989, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/pyswitch-ping1", {18, 19, 1, 0, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/pyswitch-ping1", {18, 19, 1, 0, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/pyswitch-ping2", {677, 411, 7, 267, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/pyswitch-ping2", {490, 411, 7, 80, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/pyswitch-ping2-raw", {1302, 767, 7, 536, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/pyswitch-ping2-raw", {951, 767, 7, 185, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/pyswitch-bug2", {5407, 2983, 17, 2326, 0x3a3e1ee7374a1392ULL}},
      {"bfs_sleep/pyswitch-bug2", {5171, 2983, 17, 2098, 0x3a3e1ee7374a1392ULL}},
      {"bfs_none/lb-fixed", {2868, 1163, 4, 1706, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/lb-fixed", {1613, 1163, 4, 451, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/lb-bugs", {286, 156, 7, 131, 0x772268cbb69e8630ULL}},
      {"bfs_sleep/lb-bugs", {175, 156, 7, 20, 0x772268cbb69e8630ULL}},
      {"bfs_none/lb-affinity", {7595, 3235, 13, 4176, 0x62968eb992f62135ULL}},
      {"bfs_sleep/lb-affinity", {7144, 3235, 13, 3725, 0x62968eb992f62135ULL}},
      {"bfs_none/te", {7, 7, 1, 1, 0x7ffe250ce28b76a3ULL}},
      {"bfs_sleep/te", {6, 7, 1, 0, 0x7ffe250ce28b76a3ULL}},
      {"bfs_none/te-routing", {204, 104, 4, 100, 0x076aeb6a8902cd24ULL}},
      {"bfs_sleep/te-routing", {114, 104, 4, 10, 0x076aeb6a8902cd24ULL}},
      {"bfs_none/pyswitch-linkfail", {699, 310, 1, 382, 0x0e989003530f46ebULL}},
      {"bfs_sleep/pyswitch-linkfail", {457, 310, 1, 140, 0x0e989003530f46ebULL}},
      {"bfs_none/pyswitch-linkfail-react", {973, 449, 4, 513, 0x0e989003530f46ebULL}},
      {"bfs_sleep/pyswitch-linkfail-react", {628, 449, 4, 168, 0x0e989003530f46ebULL}},
      {"bfs_none/pyswitch-ctrlloss", {171, 123, 15, 49, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/pyswitch-ctrlloss", {134, 123, 15, 12, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/pyswitch-restart", {103, 75, 9, 29, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/pyswitch-restart", {88, 75, 9, 14, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/lb-linkfail", {370, 159, 4, 212, 0xe1315900faff983aULL}},
      {"bfs_sleep/lb-linkfail", {202, 159, 4, 44, 0xe1315900faff983aULL}},
      {"bfs_none/lb-linkfail-react", {650, 279, 7, 372, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/lb-linkfail-react", {338, 279, 7, 60, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/te-linkfail", {552, 254, 7, 299, 0xe66a9f0d3dcebef8ULL}},
      {"bfs_sleep/te-linkfail", {389, 254, 7, 136, 0xe66a9f0d3dcebef8ULL}},
      {"bfs_none/te-linkfail-react", {1812, 712, 11, 1101, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/te-linkfail-react", {869, 712, 11, 158, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/sym-ping3", {536517, 139796, 7, 396722, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/sym-ping3", {358136, 139796, 7, 218341, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/lb-sym4", {78632, 31230, 16, 47403, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/lb-sym4", {43239, 31230, 16, 12010, 0xec7f2e7e68e5289dULL}},
      {"bfs_none/te-sym2", {6808, 2672, 4, 4137, 0xec7f2e7e68e5289dULL}},
      {"bfs_sleep/te-sym2", {3568, 2672, 4, 897, 0xec7f2e7e68e5289dULL}},
      {"rand_none/pyswitch-ping1", {18, 19, 1, 0, 0xec7f2e7e68e5289dULL}},
      {"rand_none/pyswitch-ping2", {677, 411, 7, 267, 0xec7f2e7e68e5289dULL}},
      {"rand_none/pyswitch-ping2-raw", {1302, 767, 7, 536, 0xec7f2e7e68e5289dULL}},
      {"rand_none/pyswitch-bug2", {5407, 2983, 17, 2326, 0x3a3e1ee7374a1392ULL}},
      {"rand_none/lb-fixed", {2868, 1163, 4, 1706, 0xec7f2e7e68e5289dULL}},
      {"rand_none/lb-bugs", {286, 156, 7, 131, 0x772268cbb69e8630ULL}},
      {"rand_none/lb-affinity", {7595, 3235, 13, 4176, 0x62968eb992f62135ULL}},
      {"rand_none/te", {7, 7, 1, 1, 0x7ffe250ce28b76a3ULL}},
      {"rand_none/te-routing", {204, 104, 4, 100, 0x076aeb6a8902cd24ULL}},
      {"rand_none/pyswitch-linkfail", {699, 310, 1, 382, 0x0e989003530f46ebULL}},
      {"rand_none/pyswitch-linkfail-react", {973, 449, 4, 513, 0x0e989003530f46ebULL}},
      {"rand_none/pyswitch-ctrlloss", {171, 123, 15, 49, 0xec7f2e7e68e5289dULL}},
      {"rand_none/pyswitch-restart", {103, 75, 9, 29, 0xec7f2e7e68e5289dULL}},
      {"rand_none/lb-linkfail", {370, 159, 4, 212, 0xe1315900faff983aULL}},
      {"rand_none/lb-linkfail-react", {650, 279, 7, 372, 0xec7f2e7e68e5289dULL}},
      {"rand_none/te-linkfail", {552, 254, 7, 299, 0xe66a9f0d3dcebef8ULL}},
      {"rand_none/te-linkfail-react", {1812, 712, 11, 1101, 0xec7f2e7e68e5289dULL}},
      {"rand_none/sym-ping3", {536517, 139796, 7, 396722, 0xec7f2e7e68e5289dULL}},
      {"rand_none/lb-sym4", {78632, 31230, 16, 47403, 0xec7f2e7e68e5289dULL}},
      {"rand_none/te-sym2", {6808, 2672, 4, 4137, 0xec7f2e7e68e5289dULL}},
  };
  return pins;
}

/// The differential gate: a run capped mid-way (the halt checkpoints),
/// then resumed without the cap, must report totals identical to the
/// uninterrupted search, read from reference_pins(). Transition counts are
/// order-dependent under a reduction with threads > 1; everything else
/// must match exactly always.
void expect_resume_identity(const apps::NamedScenario& ns, Reduction red,
                            FrontierKind frontier, unsigned threads,
                            StoreMode store, const std::string& tag) {
  SCOPED_TRACE(ns.name + " / " + tag);
  CheckerOptions base;
  base.stop_at_first_violation = false;
  base.reduction = red;
  base.frontier = frontier;
  base.threads = threads;
  base.state_store = store;

  const char* order = frontier == FrontierKind::kDfs   ? "dfs"
                      : frontier == FrontierKind::kBfs ? "bfs"
                                                       : "rand";
  const auto it = reference_pins().find(
      std::string(order) + (red == Reduction::kNone ? "_none/" : "_sleep/") +
      ns.name);
  ASSERT_NE(it, reference_pins().end()) << "no pinned reference";
  const RefTotals& full = it->second;

  const std::string path = fresh_ckpt_path(tag + "_" + ns.name);
  CheckerOptions opt = base;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;  // at-halt checkpoint only
  opt.max_transitions = full.transitions / 2 + 1;
  const apps::Scenario s1 = ns.make();
  const CheckerResult part = run_once(s1, opt);
  ASSERT_GE(part.durability.checkpoints_written, 1u);
  ASSERT_GT(part.durability.checkpoint_bytes, 0u);

  opt.max_transitions = ~0ULL;
  opt.resume = true;
  const apps::Scenario s2 = ns.make();
  const CheckerResult resumed = run_once(s2, opt);
  const RefTotals got = totals(resumed);
  EXPECT_TRUE(resumed.exhausted);
  if (part.hit_limit == LimitReason::kTransitions) {
    EXPECT_TRUE(resumed.durability.resumed);
  }
  EXPECT_EQ(got.unique_states, full.unique_states);
  EXPECT_EQ(got.quiescent_states, full.quiescent_states);
  EXPECT_EQ(got.violations, full.violations);
  if (threads == 1 || red == Reduction::kNone) {
    EXPECT_EQ(got.transitions, full.transitions);
    EXPECT_EQ(got.revisits, full.revisits);
  }
  drop_slots(path);
}

/// The smaller bundled presets — every family is represented, the two
/// largest pyswitch bug hunts are left to the sequential sweep so the
/// matrix axes stay fast.
std::vector<apps::NamedScenario> small_scenarios() {
  std::vector<apps::NamedScenario> out;
  for (apps::NamedScenario& ns : apps::bundled_scenarios()) {
    if (ns.name == "pyswitch-bug1" || ns.name == "pyswitch-bug3") continue;
    out.push_back(std::move(ns));
  }
  return out;
}

TEST(CheckpointResume, SequentialDfsAllBundled) {
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    expect_resume_identity(ns, Reduction::kNone, FrontierKind::kDfs, 1,
                           StoreMode::kHash, "dfs_none");
    expect_resume_identity(ns, Reduction::kSleep, FrontierKind::kDfs, 1,
                           StoreMode::kHash, "dfs_sleep");
  }
}

TEST(CheckpointResume, SequentialBfs) {
  for (const apps::NamedScenario& ns : small_scenarios()) {
    expect_resume_identity(ns, Reduction::kNone, FrontierKind::kBfs, 1,
                           StoreMode::kHash, "bfs_none");
    expect_resume_identity(ns, Reduction::kSleep, FrontierKind::kBfs, 1,
                           StoreMode::kHash, "bfs_sleep");
  }
}

TEST(CheckpointResume, SequentialRandomFrontierRestoresRngState) {
  // The random frontier's pop order is driven by its RNG; identity across
  // an interrupt requires the checkpoint to carry the RNG state.
  for (const apps::NamedScenario& ns : small_scenarios()) {
    expect_resume_identity(ns, Reduction::kNone, FrontierKind::kRandom, 1,
                           StoreMode::kHash, "rand_none");
  }
}

TEST(CheckpointResume, ParallelFourThreads) {
  for (const apps::NamedScenario& ns : small_scenarios()) {
    expect_resume_identity(ns, Reduction::kNone, FrontierKind::kDfs, 4,
                           StoreMode::kHash, "par_none");
    expect_resume_identity(ns, Reduction::kSleep, FrontierKind::kDfs, 4,
                           StoreMode::kHash, "par_sleep");
  }
}

TEST(CheckpointResume, CollapsedStoreRestoresInternTable) {
  // kCollapsed keys states by interned component-id tuples; restore must
  // re-intern blobs in dense id order for the stored tuples (and their
  // slept records) to stay valid.
  for (const apps::NamedScenario& ns : small_scenarios()) {
    expect_resume_identity(ns, Reduction::kSleep, FrontierKind::kDfs, 1,
                           StoreMode::kCollapsed, "collapsed_sleep");
  }
}

TEST(CheckpointResume, FullStateStore) {
  expect_resume_identity(small_scenarios().front(), Reduction::kNone,
                         FrontierKind::kDfs, 1, StoreMode::kFullState,
                         "full_none");
}

TEST(CheckpointResume, WrongScenarioCheckpointIsRejected) {
  // A checkpoint from a different scenario (mismatching config
  // fingerprint) must not be resumed into: the run falls back to a fresh
  // search and still reports the correct totals.
  const auto scenarios = apps::bundled_scenarios();
  const apps::Scenario ping = scenarios.front().make();

  const std::string path = fresh_ckpt_path("wrong_scenario");
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  const CheckerResult ping_full = run_once(ping, opt);
  ASSERT_GE(ping_full.durability.checkpoints_written, 1u);

  const apps::Scenario other = scenarios.back().make();
  CheckerOptions fresh;
  fresh.stop_at_first_violation = false;
  const CheckerResult other_full = run_once(other, fresh);

  opt.resume = true;
  const CheckerResult other_resumed = run_once(other, opt);
  EXPECT_FALSE(other_resumed.durability.resumed);
  EXPECT_NE(other_resumed.durability.resume_error.find("fingerprint"),
            std::string::npos)
      << other_resumed.durability.resume_error;
  EXPECT_EQ(other_resumed.transitions, other_full.transitions);
  EXPECT_EQ(other_resumed.unique_states, other_full.unique_states);
  drop_slots(path);
}

TEST(CheckpointResume, SleepCheckpointRefusedWithoutReduction) {
  // The reduction mode is part of the config fingerprint: a kSleep
  // checkpoint (whose seen-set section carries slept records) must not be
  // resumed by a kNone search.
  const apps::NamedScenario ns = apps::bundled_scenarios()[1];  // ping2
  CheckerOptions base;
  base.stop_at_first_violation = false;
  const CheckerResult full = run_once(ns.make(), base);

  const std::string path = fresh_ckpt_path("reduction_mismatch");
  CheckerOptions opt = base;
  opt.reduction = Reduction::kSleep;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  opt.max_transitions = full.transitions / 4;
  ASSERT_GE(run_once(ns.make(), opt).durability.checkpoints_written, 1u);

  opt.reduction = Reduction::kNone;
  opt.max_transitions = ~0ULL;
  opt.resume = true;
  const CheckerResult r = run_once(ns.make(), opt);
  EXPECT_FALSE(r.durability.resumed);
  EXPECT_NE(r.durability.resume_error.find("fingerprint"), std::string::npos)
      << r.durability.resume_error;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.transitions, full.transitions);
  EXPECT_EQ(r.unique_states, full.unique_states);
  drop_slots(path);
}

TEST(CheckpointResume, MalformedSleptRecordsAreRefused) {
  // A real kSleep slot, re-framed (valid checksum) with one slept record
  // of its seen-set section corrupted three ways: the run must refuse the
  // section, clear the half-restored stores, and fall back to a fresh
  // search with the exact totals.
  const apps::NamedScenario ns = apps::bundled_scenarios()[1];  // ping2
  CheckerOptions base;
  base.stop_at_first_violation = false;
  base.reduction = Reduction::kSleep;
  const CheckerResult full = run_once(ns.make(), base);

  const std::string path = fresh_ckpt_path("slept_records");
  CheckerOptions opt = base;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;  // one slot: the at-halt snapshot
  opt.max_transitions = full.transitions / 2;
  const CheckerResult part = run_once(ns.make(), opt);
  ASSERT_EQ(part.durability.checkpoints_written, 1u);
  // A fresh run's first snapshot goes to slot A — so does the at-halt
  // snapshot of each fresh fallback run below, hence the rewrite per case.
  const std::string slot_path = checkpoint_slot_a(path);
  const SlotInfo slot = read_checkpoint_slot(slot_path);
  ASSERT_TRUE(slot.valid) << slot.error;

  const auto u64 = [](std::uint64_t v) {
    util::Ser s;
    s.put_u64(v);
    return s.take();
  };
  // The seen-set section: tag, kHash mode byte, entry count, 16-byte
  // entries, record count, then records of (hash, count, hashes).
  const std::string head =
      std::string("S") + '\0' + u64(part.unique_states);
  const std::size_t at = slot.payload.find(head);
  ASSERT_NE(at, std::string::npos);
  const auto u64_at = [&slot](std::size_t offset) {
    util::Des d(std::string_view(slot.payload).substr(offset));
    return d.get_u64();
  };
  const std::size_t records_at = at + head.size() + 16 * part.unique_states;
  const std::uint64_t records = u64_at(records_at);
  ASSERT_GT(records, 0u);
  const std::size_t rec = records_at + 8;  // the first record
  const std::uint64_t n = u64_at(rec + 16);
  ASSERT_GT(n, 0u);
  const std::size_t rec_len = 16 + 8 + 8 * n;

  std::string absent = slot.payload;
  absent[rec] ^= 0x01;
  std::string empty = slot.payload;
  empty.replace(rec + 16, 8 + 8 * n, u64(0));
  std::string duplicate = slot.payload;
  duplicate.insert(rec + rec_len, slot.payload.substr(rec, rec_len));
  duplicate.replace(records_at, 8, u64(records + 1));

  opt.max_transitions = ~0ULL;
  opt.resume = true;
  for (const std::string& payload : {absent, empty, duplicate}) {
    std::string error;
    ASSERT_TRUE(write_checkpoint_slot(slot_path, slot.sequence, payload,
                                      error))
        << error;
    const CheckerResult r = run_once(ns.make(), opt);
    EXPECT_FALSE(r.durability.resumed);
    EXPECT_NE(r.durability.resume_error.find("malformed seen-set section"),
              std::string::npos)
        << r.durability.resume_error;
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.unique_states, full.unique_states);
    EXPECT_EQ(r.transitions, full.transitions);
  }
  drop_slots(path);
}

/// A slot written by an older checkpoint format (its payload layout or its
/// state keys differ) must not be parsed: the run starts fresh, reports
/// the exact totals, and says why in CheckerResult::durability.resume_error.
void expect_old_version_falls_back(StoreMode store, std::uint8_t version,
                                   const std::string& tag) {
  const apps::NamedScenario ns = apps::bundled_scenarios()[1];  // ping2
  CheckerOptions base;
  base.stop_at_first_violation = false;
  base.state_store = store;
  const CheckerResult full = run_once(ns.make(), base);

  const std::string path = fresh_ckpt_path(tag);
  CheckerOptions opt = base;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  opt.max_transitions = full.transitions / 2;
  (void)run_once(ns.make(), opt);
  const std::string slot = checkpoint_slot_a(path);
  ASSERT_TRUE(read_checkpoint_slot(slot).valid);
  std::string bytes = slurp(slot);
  // Header layout: magic u64, then version u32 (big-endian) at offset 8.
  bytes[8] = 0;
  bytes[9] = 0;
  bytes[10] = 0;
  bytes[11] = static_cast<char>(version);
  spit(slot, bytes);

  opt.max_transitions = ~0ULL;
  opt.resume = true;
  const CheckerResult r = run_once(ns.make(), opt);
  EXPECT_FALSE(r.durability.resumed);
  EXPECT_NE(r.durability.resume_error.find("version mismatch (file v" +
                                           std::to_string(version)),
            std::string::npos)
      << r.durability.resume_error;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.transitions, full.transitions);
  EXPECT_EQ(r.unique_states, full.unique_states);
  drop_slots(path);
}

TEST(CheckpointResume, OlderFormatVersionFallsBackWithReason) {
  expect_old_version_falls_back(StoreMode::kHash, 1, "old_version");
}

TEST(CheckpointResume, VersionFourCollapsedSlotFallsBack) {
  // Version 4 interned switches and hosts section by section, so its
  // kCollapsed component ids name other blobs than today's: resuming one
  // would silently miscount.
  expect_old_version_falls_back(StoreMode::kCollapsed, 4, "v4_collapsed");
}

TEST(CheckpointResume, VersionFiveHashSlotFallsBack) {
  // Version 5 stored kHash keys and slept-transition hashes of the
  // byte-serial hash128 that came before; no key of today's hash would
  // match them, so resuming one would silently overcount.
  expect_old_version_falls_back(StoreMode::kHash, 5, "v5_hash");
}

TEST(CheckpointResume, VersionSixHashSlotFallsBack) {
  // Version 6 stored kHash keys whose switch components hashed the whole
  // switch serialization; a switch's hash now combines its section
  // hashes, so no key of today's would match them.
  expect_old_version_falls_back(StoreMode::kHash, 6, "v6_hash");
}

TEST(CheckpointResume, VersionSevenHashSlotFallsBack) {
  // Version 7 stored kHash keys whose switch components combined six
  // section hashes; a switch now has four sections, so no key of today's
  // would match them.
  expect_old_version_falls_back(StoreMode::kHash, 7, "v7_hash");
}

TEST(CheckpointResume, MissingCheckpointFallsBackToFreshRun) {
  const apps::NamedScenario ns = apps::bundled_scenarios().front();
  const apps::Scenario s = ns.make();
  CheckerOptions base;
  base.stop_at_first_violation = false;
  const CheckerResult full = run_once(s, base);

  CheckerOptions opt = base;
  opt.checkpoint_path = fresh_ckpt_path("missing");
  opt.resume = true;
  const CheckerResult r = run_once(s, opt);
  EXPECT_FALSE(r.durability.resumed);
  EXPECT_NE(r.durability.resume_error.find("cannot open"), std::string::npos)
      << r.durability.resume_error;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.transitions, full.transitions);
  drop_slots(opt.checkpoint_path);
}

TEST(CheckpointResume, FallsBackToOlderSlotWhenNewestCorrupt) {
  // Two interrupted runs populate both A/B slots (sequences 1 and 2);
  // flipping a bit in the newest forces the loader onto the older slot,
  // from which the resumed search must still reach the exact totals.
  const apps::NamedScenario ns = apps::bundled_scenarios()[1];  // ping2
  CheckerOptions base;
  base.stop_at_first_violation = false;

  const CheckerResult full = run_once(ns.make(), base);
  ASSERT_GT(full.transitions, 100u);

  const std::string path = fresh_ckpt_path("ab_fallback");
  CheckerOptions opt = base;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  opt.max_transitions = full.transitions / 3;
  (void)run_once(ns.make(), opt);
  opt.resume = true;
  opt.max_transitions = (2 * full.transitions) / 3;
  const CheckerResult mid = run_once(ns.make(), opt);
  ASSERT_TRUE(mid.durability.resumed);

  const SlotInfo a = read_checkpoint_slot(checkpoint_slot_a(path));
  const SlotInfo b = read_checkpoint_slot(checkpoint_slot_b(path));
  ASSERT_TRUE(a.valid) << a.error;
  ASSERT_TRUE(b.valid) << b.error;
  const std::string newest = a.sequence > b.sequence
                                 ? checkpoint_slot_a(path)
                                 : checkpoint_slot_b(path);
  std::string bytes = slurp(newest);
  bytes[bytes.size() / 2] ^= 0x04;
  spit(newest, bytes);
  ASSERT_FALSE(read_checkpoint_slot(newest).valid);

  opt.max_transitions = ~0ULL;
  const CheckerResult resumed = run_once(ns.make(), opt);
  EXPECT_TRUE(resumed.durability.resumed);
  EXPECT_TRUE(resumed.exhausted);
  EXPECT_EQ(resumed.transitions, full.transitions);
  EXPECT_EQ(resumed.unique_states, full.unique_states);
  EXPECT_EQ(violation_key_set(resumed), violation_key_set(full));
  drop_slots(path);
}

// ---- Cooperative interrupts ----------------------------------------------

TEST(CheckpointInterrupt, RequestAndClearFlag) {
  clear_interrupt();
  EXPECT_FALSE(interrupt_requested());
  request_interrupt();
  EXPECT_TRUE(interrupt_requested());
  clear_interrupt();
  EXPECT_FALSE(interrupt_requested());
}

TEST(CheckpointInterrupt, InterruptCheckpointsAndResumes) {
  const apps::NamedScenario ns = apps::bundled_scenarios()[3];  // bug1
  CheckerOptions base;
  base.stop_at_first_violation = false;
  const CheckerResult full = run_once(ns.make(), base);

  const std::string path = fresh_ckpt_path("interrupt");
  CheckerOptions opt = base;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  request_interrupt();
  const CheckerResult part = run_once(ns.make(), opt);
  EXPECT_EQ(part.hit_limit, LimitReason::kInterrupted);
  EXPECT_FALSE(part.exhausted);
  EXPECT_LT(part.transitions, full.transitions);
  EXPECT_GE(part.durability.checkpoints_written, 1u);
  EXPECT_FALSE(interrupt_requested()) << "honoring the interrupt clears it";

  opt.resume = true;
  const CheckerResult resumed = run_once(ns.make(), opt);
  EXPECT_TRUE(resumed.durability.resumed);
  EXPECT_TRUE(resumed.exhausted);
  EXPECT_EQ(resumed.transitions, full.transitions);
  EXPECT_EQ(resumed.unique_states, full.unique_states);
  EXPECT_EQ(violation_key_set(resumed), violation_key_set(full));
  drop_slots(path);
}

TEST(CheckpointInterrupt, ParallelInterruptCheckpointsAndResumes) {
  const apps::NamedScenario ns = apps::bundled_scenarios()[3];  // bug1
  CheckerOptions base;
  base.stop_at_first_violation = false;
  const CheckerResult full = run_once(ns.make(), base);

  const std::string path = fresh_ckpt_path("par_interrupt");
  CheckerOptions opt = base;
  opt.threads = 4;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  request_interrupt();
  const CheckerResult part = run_once(ns.make(), opt);
  clear_interrupt();  // in case the run finished before the first poll
  EXPECT_GE(part.durability.checkpoints_written, 1u);

  opt.resume = true;
  opt.threads = 4;
  const CheckerResult resumed = run_once(ns.make(), opt);
  EXPECT_TRUE(resumed.exhausted);
  EXPECT_EQ(resumed.transitions, full.transitions);
  EXPECT_EQ(resumed.unique_states, full.unique_states);
  EXPECT_EQ(resumed.quiescent_states, full.quiescent_states);
  EXPECT_EQ(violation_key_set(resumed), violation_key_set(full));
  drop_slots(path);
}

// ---- Memory-budget watchdog ----------------------------------------------

TEST(MemoryWatchdog, ImpossibleBudgetHaltsGracefullyWithCheckpoint) {
  // A budget below any working set: the eviction ladder empties the memo
  // tables, then the search checkpoints and halts with kMemory instead of
  // OOM-aborting — and the checkpoint is resumable to the exact totals.
  const apps::NamedScenario ns = apps::bundled_scenarios()[3];  // bug1
  CheckerOptions base;
  base.stop_at_first_violation = false;
  const CheckerResult full = run_once(ns.make(), base);

  const std::string path = fresh_ckpt_path("watchdog");
  CheckerOptions opt = base;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  opt.memory_budget_bytes = 1;
  const CheckerResult part = run_once(ns.make(), opt);
  EXPECT_EQ(part.hit_limit, LimitReason::kMemory);
  EXPECT_FALSE(part.exhausted);
  EXPECT_EQ(part.memo.bytes, 0u) << "ladder must shrink memos before halting";
  EXPECT_GT(part.durability.watchdog_bytes, opt.memory_budget_bytes);
  EXPECT_GE(part.durability.checkpoints_written, 1u);

  opt.memory_budget_bytes = 0;
  opt.resume = true;
  const CheckerResult resumed = run_once(ns.make(), opt);
  EXPECT_TRUE(resumed.durability.resumed);
  EXPECT_TRUE(resumed.exhausted);
  EXPECT_EQ(resumed.transitions, full.transitions);
  EXPECT_EQ(resumed.unique_states, full.unique_states);
  EXPECT_EQ(violation_key_set(resumed), violation_key_set(full));
  drop_slots(path);
}

TEST(MemoryWatchdog, GenerousBudgetRunsToCompletion) {
  const apps::NamedScenario ns = apps::bundled_scenarios()[1];  // ping2
  CheckerOptions base;
  base.stop_at_first_violation = false;
  const CheckerResult full = run_once(ns.make(), base);

  CheckerOptions opt = base;
  opt.memory_budget_bytes = 1ull << 30;
  const CheckerResult r = run_once(ns.make(), opt);
  EXPECT_EQ(r.hit_limit, LimitReason::kNone);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.transitions, full.transitions);
  EXPECT_EQ(r.unique_states, full.unique_states);
  EXPECT_GT(r.durability.watchdog_bytes, 0u);
}

TEST(MemoryWatchdog, ParallelBudgetHaltIsResumable) {
  const apps::NamedScenario ns = apps::bundled_scenarios()[3];  // bug1
  CheckerOptions base;
  base.stop_at_first_violation = false;
  const CheckerResult full = run_once(ns.make(), base);

  const std::string path = fresh_ckpt_path("par_watchdog");
  CheckerOptions opt = base;
  opt.threads = 4;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  opt.memory_budget_bytes = 1;
  const CheckerResult part = run_once(ns.make(), opt);
  EXPECT_EQ(part.hit_limit, LimitReason::kMemory);
  EXPECT_GE(part.durability.checkpoints_written, 1u);

  opt.memory_budget_bytes = 0;
  const CheckerResult resumed = [&] {
    CheckerOptions o = opt;
    o.resume = true;
    return run_once(ns.make(), o);
  }();
  EXPECT_TRUE(resumed.exhausted);
  EXPECT_EQ(resumed.transitions, full.transitions);
  EXPECT_EQ(resumed.unique_states, full.unique_states);
  EXPECT_EQ(violation_key_set(resumed), violation_key_set(full));
  drop_slots(path);
}

// ---- Periodic checkpointing ----------------------------------------------

TEST(CheckpointPeriodic, TinyIntervalWritesMoreThanTheHaltSnapshot) {
  const apps::NamedScenario ns = apps::bundled_scenarios()[1];  // ping2
  const std::string path = fresh_ckpt_path("periodic");
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 1e-9;  // due at every poll
  const CheckerResult r = run_once(ns.make(), opt);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.durability.checkpoints_written, 1u);
  // Both slots end up populated and the loader picks the newest.
  const SlotInfo a = read_checkpoint_slot(checkpoint_slot_a(path));
  const SlotInfo b = read_checkpoint_slot(checkpoint_slot_b(path));
  EXPECT_TRUE(a.valid) << a.error;
  EXPECT_TRUE(b.valid) << b.error;
  EXPECT_NE(a.sequence, b.sequence);
  drop_slots(path);

  // A periodic barrier must not reorder pops: cut at half the exhaustive
  // count (677), BFS and seeded-random runs that checkpoint at every poll
  // stop on the same counts as the same runs without checkpointing.
  for (const FrontierKind kind : {FrontierKind::kBfs, FrontierKind::kRandom}) {
    SCOPED_TRACE(frontier_name(kind));
    CheckerOptions plain;
    plain.stop_at_first_violation = false;
    plain.frontier = kind;
    plain.frontier_seed = 7;
    plain.max_transitions = 677 / 2;
    const CheckerResult ref = run_once(ns.make(), plain);
    CheckerOptions periodic = plain;
    periodic.checkpoint_path = path;
    periodic.checkpoint_interval_seconds = 1e-9;
    const CheckerResult cut = run_once(ns.make(), periodic);
    EXPECT_EQ(cut.hit_limit, LimitReason::kTransitions);
    EXPECT_GT(cut.durability.checkpoints_written, 1u);
    EXPECT_EQ(cut.transitions, ref.transitions);
    EXPECT_EQ(cut.unique_states, ref.unique_states);
    EXPECT_EQ(cut.revisits, ref.revisits);
    EXPECT_EQ(cut.quiescent_states, ref.quiescent_states);
    drop_slots(path);
  }
}

}  // namespace
}  // namespace nicemc::mc
