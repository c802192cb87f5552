// Integration tests for search telemetry (CheckerOptions::telemetry):
// observation must not perturb the search, phase accounting must be
// exhaustive, the flight recorder must capture truncating halts, and a
// killed-and-resumed run must emit one continuous monotone NDJSON
// progress stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/checkpoint.h"
#include "util/telemetry.h"

namespace nicemc::mc {
namespace {

CheckerResult run_bug2(bool telemetry, unsigned threads = 1) {
  auto s = apps::pyswitch_bug2();
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.telemetry = telemetry;
  opt.threads = threads;
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

TEST(Progress, TelemetryKnobIsCountInvisible) {
  const CheckerResult off = run_bug2(false);
  const CheckerResult on = run_bug2(true);
  EXPECT_EQ(on.transitions, off.transitions);
  EXPECT_EQ(on.unique_states, off.unique_states);
  EXPECT_EQ(on.quiescent_states, off.quiescent_states);
  EXPECT_EQ(violation_key_set(on), violation_key_set(off));
  EXPECT_FALSE(off.telemetry.enabled);
  EXPECT_TRUE(on.telemetry.enabled);
}

TEST(Progress, TelemetryKnobIsCountInvisibleParallel) {
  const CheckerResult off = run_bug2(false, 4);
  const CheckerResult on = run_bug2(true, 4);
  EXPECT_EQ(on.unique_states, off.unique_states);
  EXPECT_EQ(on.quiescent_states, off.quiescent_states);
  EXPECT_EQ(violation_key_set(on), violation_key_set(off));
  EXPECT_EQ(on.telemetry.workers, 4u);
}

TEST(Progress, PhaseTotalsSumToWallTime) {
  const CheckerResult r = run_bug2(true);
  ASSERT_TRUE(r.telemetry.enabled);
  EXPECT_EQ(r.telemetry.workers, 1u);
  EXPECT_GT(r.telemetry.wall_ns, 0u);
  std::uint64_t sum = 0;
  std::uint64_t slices = 0;
  for (const util::PhaseStat& p : r.telemetry.phases) {
    sum += p.total_ns;
    slices += p.count;
  }
  EXPECT_GT(slices, 0u);
  // Exhaustive attribution, up to TSC-calibration error: the phase sum
  // tracks the bound wall time within a few percent plus a small
  // absolute slack for very short searches.
  const std::uint64_t wall = r.telemetry.wall_ns;
  const std::uint64_t slack = wall / 10 + 2000000;
  EXPECT_LE(sum, wall + slack);
  EXPECT_GE(sum + slack, wall);
  // The search did real work in the instrumented phases.
  const auto ns_of = [&](util::Phase p) {
    return r.telemetry.phases[static_cast<std::size_t>(p)].total_ns;
  };
  EXPECT_GT(ns_of(util::Phase::kApply), 0u);
  EXPECT_GT(ns_of(util::Phase::kEnabled), 0u);
  EXPECT_GT(ns_of(util::Phase::kRemember), 0u);
}

TEST(Progress, CleanFinishLeavesNoFlightDump) {
  const CheckerResult r = run_bug2(true);
  EXPECT_EQ(r.hit_limit, LimitReason::kNone);
  EXPECT_TRUE(r.telemetry.flight.empty());
}

TEST(Progress, TruncatedRunDumpsFlightRecorder) {
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto s = apps::pyswitch_bug2();
    CheckerOptions opt;
    opt.stop_at_first_violation = false;
    opt.telemetry = true;
    opt.max_transitions = 50;
    opt.threads = threads;
    Checker checker(s.config, opt, s.properties);
    const CheckerResult r = checker.run();
    ASSERT_EQ(r.hit_limit, LimitReason::kTransitions);
    ASSERT_FALSE(r.telemetry.flight.empty());
    // The dump holds the limit event, recorded once at any thread
    // count, and the expanded transitions before it.
    int limits = 0;
    bool saw_expand = false;
    for (const std::string& line : r.telemetry.flight) {
      if (line.find("halt transitions") != std::string::npos) ++limits;
      saw_expand = saw_expand || line.find("expand") != std::string::npos;
    }
    EXPECT_EQ(limits, 1);
    EXPECT_TRUE(saw_expand);
  }
}

TEST(Progress, TelemetryOffCostsNothingInTheResult) {
  const CheckerResult r = run_bug2(false);
  EXPECT_FALSE(r.telemetry.enabled);
  EXPECT_EQ(r.telemetry.wall_ns, 0u);
  EXPECT_EQ(r.telemetry.progress_snapshots, 0u);
  for (const util::PhaseStat& p : r.telemetry.phases) {
    EXPECT_EQ(p.count, 0u);
    EXPECT_EQ(p.total_ns, 0u);
  }
}

TEST(Progress, KillAndResumeYieldsOneMonotoneStream) {
  // The stream contract for crash recovery: cap a checkpointed search
  // mid-way, resume it with --progress pointing at the same file, and
  // the concatenated NDJSON must read as ONE run — sequence numbers
  // strictly increasing, cumulative transitions nondecreasing across the
  // process boundary (the resumed run seeds its counters from the
  // checkpoint), exactly one final "halt" line.
  const std::string ckpt = ::testing::TempDir() + "nicemc_prog_ckpt";
  const std::string stream =
      ::testing::TempDir() + "nicemc_prog_stream.ndjson";
  std::remove(checkpoint_slot_a(ckpt).c_str());
  std::remove(checkpoint_slot_b(ckpt).c_str());
  std::remove(stream.c_str());

  const CheckerResult full = run_bug2(false);

  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.telemetry = true;
  opt.progress_path = stream;
  opt.progress_interval_seconds = 0.002;
  opt.checkpoint_path = ckpt;
  opt.checkpoint_interval_seconds = 0;  // at-halt checkpoint only
  opt.max_transitions = full.transitions / 2 + 1;
  {
    auto s = apps::pyswitch_bug2();
    Checker first(s.config, opt, s.properties);
    const CheckerResult r = first.run();
    EXPECT_EQ(r.hit_limit, LimitReason::kTransitions);
  }

  opt.max_transitions = ~0ULL;
  opt.resume = true;
  auto s = apps::pyswitch_bug2();
  Checker second(s.config, opt, s.properties);
  const CheckerResult resumed = second.run();
  EXPECT_TRUE(resumed.exhausted);
  EXPECT_EQ(resumed.transitions, full.transitions);
  EXPECT_EQ(resumed.unique_states, full.unique_states);

  std::ifstream in(stream);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t lines = 0;
  std::uint64_t halts = 0;
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_transitions = 0;
  util::ProgressSnapshot last;
  while (std::getline(in, line)) {
    util::ProgressSnapshot snap;
    ASSERT_TRUE(util::ProgressSnapshot::parse(line + "\n", snap)) << line;
    if (lines > 0) {
      EXPECT_GT(snap.seq, prev_seq) << "line " << lines;
      EXPECT_GE(snap.transitions, prev_transitions) << "line " << lines;
    }
    prev_seq = snap.seq;
    prev_transitions = snap.transitions;
    if (snap.event == "halt") ++halts;
    last = snap;
    ++lines;
  }
  // One halt per process: the capped run's and the resumed run's final
  // line. The stream stays monotone across both.
  EXPECT_GE(lines, 2u);
  EXPECT_EQ(halts, 2u);
  EXPECT_EQ(last.event, "halt");
  EXPECT_EQ(last.reason, "none");
  EXPECT_EQ(last.transitions, full.transitions);

  std::remove(checkpoint_slot_a(ckpt).c_str());
  std::remove(checkpoint_slot_b(ckpt).c_str());
  std::remove(stream.c_str());
}

TEST(Progress, RandomWalkPublishesTelemetry) {
  auto s = apps::pyswitch_bug2();
  CheckerOptions opt;
  opt.telemetry = true;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.random_walk(/*seed=*/7, /*walks=*/20,
                                              /*max_steps=*/50);
  EXPECT_TRUE(r.telemetry.enabled);
  EXPECT_GT(r.transitions, 0u);
  std::uint64_t slices = 0;
  for (const util::PhaseStat& p : r.telemetry.phases) slices += p.count;
  EXPECT_GT(slices, 0u);
}

}  // namespace
}  // namespace nicemc::mc
