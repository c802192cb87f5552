// Sound dynamic partial-order reduction over SearchCore: sleep sets. The
// mode enum lives in mc/por/reduction.h; this header is the per-node set.
//
// A sleep set rides on each SearchNode: the sibling transitions explored
// before it (and inherited entries) that are independent of everything
// executed since — re-exploring them would only re-derive a state the
// search already produces through the commuted order. At each state the
// engine expands `filtered_enabled \ sleep` instead of all of
// `filtered_enabled`.
//
// Stateful searches need one extra piece (Godefroid/Holzmann/Pirottin):
// the seen-set collapses commuting paths into one state, but different
// arrivals can carry different sleep sets. The seen-set entry of each
// state therefore keeps a slept record — the transitions slept at
// *every* arrival so far (util::ShardedSeenSet::arrive). A later arrival
// whose sleep set no longer covers a recorded transition re-expands
// exactly the difference (the classic "visited state revisited with a
// smaller sleep set" rule). This preserves the full reachable state set —
// only redundant transitions are pruned — which is the contract the
// differential test enforces: identical violation sets, identical
// unique-state counts, fewer (or equal) transitions.
#ifndef NICE_MC_POR_SLEEP_H
#define NICE_MC_POR_SLEEP_H

#include <cstdint>
#include <vector>

#include "mc/por/footprint.h"

namespace nicemc::mc::por {

/// One slept transition: its identity hash plus the footprint computed at
/// the state where it entered the sleep set. The footprint stays valid
/// down the path because every step it survives is independent of it (its
/// inputs are untouched).
struct SleepEntry {
  std::uint64_t thash{0};
  Footprint fp;
};

using SleepSet = std::vector<SleepEntry>;

}  // namespace nicemc::mc::por

#endif  // NICE_MC_POR_SLEEP_H
