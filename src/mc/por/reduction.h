// The partial-order-reduction mode every layer keys on
// (CheckerOptions::reduction).
//
// One reduction, whose per-state records live in the seen-set
// (util::ShardedSeenSet::arrive):
//
//   * kSleep — sleep sets: per-node sets of sibling transitions whose
//              exploration would only re-derive states a commuted order
//              already produces, plus the Godefroid/Holzmann/Pirottin
//              stateful revisit rule (re-expand exactly what every earlier
//              arrival slept).
//
// It visits the identical state set and reports the identical violation
// set as an unreduced search, pruning only redundant transitions; the
// enforced ordering is kSleep ≤ kNone in transitions (tests/mc/test_por.cpp,
// whose Por.DifferentialSoundnessSweepAllBundledScenarios covers every
// bundled scenario, and the fuzz sweep in tests/mc/test_fuzz_scenarios.cpp).
// ARCHITECTURE.md ("Reduction layer") gives the
// measurements behind keeping sleep sets as the only reduction.
#ifndef NICE_MC_POR_REDUCTION_H
#define NICE_MC_POR_REDUCTION_H

#include <cstdint>
#include <string>

namespace nicemc::mc {

/// Partial-order-reduction mode (CheckerOptions::reduction).
enum class Reduction : std::uint8_t {
  kNone,   // expand every strategy-filtered enabled transition
  kSleep,  // sleep sets (sound; prunes commuted re-derivations)
};

std::string reduction_name(Reduction r);

}  // namespace nicemc::mc

#endif  // NICE_MC_POR_REDUCTION_H
