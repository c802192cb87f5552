// The model checker: the state-space search of Figure 5.
//
// Checker is the user-facing façade over the search-engine subsystem:
//   * mc/search_core.h — options/result types and the per-transition
//     expand step (clone → apply → check → remember → enumerate);
//   * mc/frontier.h    — pluggable exploration orders (DFS / BFS / random),
//     each search worker's private container;
//   * mc/parallel.h    — the exhaustive driver (one worker on the caller's
//     thread, or N work-handoff workers) and the random-walk driver;
//   * util/seen_set.h  — the lock-striped explored-state store.
//
// With default options (1 thread, DFS frontier) the search is bit-for-bit
// the original depth-first checker. Also provides the random-walk
// "simulator" mode mentioned in Section 1.3.
#ifndef NICE_MC_CHECKER_H
#define NICE_MC_CHECKER_H

#include <cstdint>
#include <memory>

#include "mc/discover.h"
#include "mc/por/reduction.h"
#include "mc/execute.h"
#include "mc/frontier.h"
#include "mc/parallel.h"
#include "mc/property.h"
#include "mc/search_core.h"
#include "mc/strategy.h"
#include "mc/system.h"
#include "mc/trace.h"
#include "util/collapse.h"
#include "util/seen_set.h"

namespace nicemc::mc {

class Checker {
 public:
  Checker(const SystemConfig& cfg, CheckerOptions options,
          const PropertyList& props)
      : cfg_(cfg),
        options_(options),
        props_(props),
        executor_(cfg, props),
        seen_(options.state_store, shard_count(options.threads)),
        collapse_(options.state_store ==
                          util::ShardedSeenSet::Mode::kCollapsed
                      ? std::make_unique<util::CollapseTable>(
                            shard_count(options.threads))
                      : nullptr),
        // The memo layer keys on component identities that the seen-set's
        // own bookkeeping already computes: interned ids in kCollapsed
        // mode (collapse_key warms the Snap::form_id memos as a side
        // effect), memoized component form hashes otherwise.
        fp_memo_(options.memo
                     ? std::make_unique<por::FootprintMemo>(
                           cfg_, collapse_.get(),
                           shard_count(options.threads),
                           options.memo_budget_bytes / 2)
                     : nullptr),
        // Discovery is cached whatever `memo` says: every revisit of a
        // controller state would otherwise re-run the concolic engine. It
        // takes the other half of the memo budget.
        discovery_(collapse_.get(), shard_count(options.threads),
                   options.memo_budget_bytes - options.memo_budget_bytes / 2),
        telem_(options.telemetry
                   ? std::make_unique<util::Telemetry>(
                         options.threads > 1 ? options.threads : 1)
                   : nullptr),
        // Built even when the scenario declares no orbits: the symmetry
        // canonicalizer also renumbers uids (and drops next_uid where it
        // is pure allocation history), which merges states on its own.
        // Throws std::invalid_argument on an invalid orbit declaration.
        sym_(options.symmetry ? std::make_unique<SymContext>(cfg)
                              : nullptr),
        core_(cfg_, options_, executor_, seen_, discovery_,
              packet_keyed(props), collapse_.get(), fp_memo_.get(),
              telem_.get(), sym_.get()) {}

  // core_ holds references into this object's own members, so moving or
  // copying a Checker would leave it pointing at the source.
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;
  Checker(Checker&&) = delete;
  Checker& operator=(Checker&&) = delete;

  /// Exhaustive search (bounded by the options) through run_search: one
  /// worker over the configured frontier, or N DFS workers when
  /// threads > 1.
  CheckerResult run();

  /// Random walks from the initial state (simulator mode): each walk picks
  /// uniformly among strategy-filtered enabled transitions until
  /// quiescence or `max_steps`. With threads > 1, walks are split across
  /// a portfolio of workers with per-worker RNG streams (run_random_walks).
  CheckerResult random_walk(std::uint64_t seed, int walks, int max_steps);

  [[nodiscard]] const Executor& executor() const noexcept {
    return executor_;
  }
  [[nodiscard]] const util::ShardedSeenSet& seen() const noexcept {
    return seen_;
  }

 private:
  /// Start the progress reporter when configured (telemetry on and a
  /// stream path or TTY requested); returns nullptr otherwise.
  std::unique_ptr<util::ProgressReporter> make_reporter() const;
  /// Emit the final halt line and fold the stream counters into `result`.
  static void finish_reporter(util::ProgressReporter* reporter,
                              CheckerResult& result);

  /// Shards of every lock-striped table: 1 single-threaded, 4× threads
  /// when parallel.
  static std::size_t shard_count(unsigned threads) {
    return threads <= 1 ? 1 : 4 * static_cast<std::size_t>(threads);
  }

  const SystemConfig& cfg_;
  CheckerOptions options_;
  const PropertyList& props_;
  Executor executor_;
  util::ShardedSeenSet seen_;
  std::unique_ptr<util::CollapseTable> collapse_;
  std::unique_ptr<por::FootprintMemo> fp_memo_;
  DiscoveryCache discovery_;
  // Constructed before core_, which captures the raw pointer.
  std::unique_ptr<util::Telemetry> telem_;
  std::unique_ptr<SymContext> sym_;
  SearchCore core_;
};

}  // namespace nicemc::mc

#endif  // NICE_MC_CHECKER_H
