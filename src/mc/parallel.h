// Multi-threaded exploration drivers built on SearchCore.
//
// run_parallel: each of N workers runs DFS from a private LIFO stack of
// SearchNodes, expanding them through the shared SearchCore (lock-striped
// seen-set and discovery cache) and publishing progress through atomic
// counters. One shared deque is the handoff structure: a worker whose
// stack runs dry claims a node from it, and a busy worker moves the
// oldest half of its stack there only when a peer is parked and the
// deque is empty. Pending work is every node — the deque plus every
// private stack — so the frontier gauge and the memory watchdog count
// the stacks too, and a checkpoint barrier has every worker move its
// stack onto the deque before the snapshot. On exhaustive runs the result is
// count-equivalent to the single-threaded search: same unique states, same
// transitions/revisits/quiescent counts, same violation set modulo
// path-dependent packet copy-ids in the messages (when several
// interleavings reach the same canonical state, the thread that wins the
// seen-set insert reports its own path's packet uids) — and the order of
// violations differs. Under CheckerOptions::reduction the driver keeps
// the soundness contract (same unique states, same violation set, ≤
// transitions of the unreduced run); exact transition counts become
// schedule-dependent because which arrival claims a sleep re-expansion
// races (see mc/por/sleep.h). Sleep sets ride on SearchNode and the
// per-state slept records live in the lock-striped seen-set, so the
// driver needs no other shared reduction state.
//
// run_random_walks: the simulator mode. On more than one thread it is a
// portfolio — each worker runs an independent share of the walks with its
// own seeded RNG, all publishing into the shared seen-set; on one thread
// the same per-walk loop runs on the caller's thread.
#ifndef NICE_MC_PARALLEL_H
#define NICE_MC_PARALLEL_H

#include <cstdint>

#include "mc/search_core.h"

namespace nicemc::mc {

/// Exhaustive (bounded) search with `threads` workers. `threads` is
/// clamped to at least 1; with 1 it still spawns one worker thread
/// (Checker::run uses SearchCore::run_sequential for 1 thread).
/// `dur` (optional) enables the durability layer: resume seeding, periodic
/// checkpoints behind a quiesce barrier (workers drain before the snapshot
/// is taken), a final at-halt checkpoint, the memory watchdog, and
/// cooperative interrupts.
CheckerResult run_parallel(const SearchCore& core, unsigned threads,
                           Durability* dur = nullptr);

/// `walks` random walks split across `threads` workers; worker w takes
/// walks w, w+threads, ... and draws from its own SplitMix64 stream
/// derived from `seed`, so a given (seed, threads) pair is reproducible.
/// With `threads` ≤ 1 every walk runs on the caller's thread from a
/// SplitMix64 seeded with `seed` itself.
CheckerResult run_random_walks(const SearchCore& core, unsigned threads,
                               std::uint64_t seed, int walks, int max_steps);

}  // namespace nicemc::mc

#endif  // NICE_MC_PARALLEL_H
