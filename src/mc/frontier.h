// Pluggable search frontiers: the order in which pending (state,
// transition) pairs are expanded.
//
//   * kDfs    — LIFO stack; exactly the seed checker's depth-first order,
//               so 1-thread DFS search is bit-for-bit deterministic;
//   * kBfs    — FIFO queue; shortest counterexamples first;
//   * kRandom — pop a uniformly random pending entry (seeded, so a given
//               seed reproduces the same exploration order).
//
// Frontiers are NOT thread-safe; the parallel driver owns its own shared
// work deque and uses frontiers only in single-threaded mode.
#ifndef NICE_MC_FRONTIER_H
#define NICE_MC_FRONTIER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mc/por/sleep.h"
#include "mc/system.h"
#include "mc/trace.h"
#include "mc/transition.h"

namespace nicemc::mc {

/// One pending unit of search work: apply `transition` to `*state`.
/// `state` is shared between all siblings enumerated from it; `path` is
/// the shared-parent trace chain used to reconstruct counterexamples.
/// `sleep` is the partial-order-reduction sleep set the resulting state
/// arrives with (always empty under Reduction::kNone); it is per-node, so
/// the parallel driver needs no shared reduction state beyond the
/// seen-set's slept records.
struct SearchNode {
  std::shared_ptr<const SystemState> state;
  Transition transition;
  std::shared_ptr<const PathNode> path;
  std::size_t depth{0};
  por::SleepSet sleep;
};

enum class FrontierKind : std::uint8_t { kDfs, kBfs, kRandom };

std::string frontier_name(FrontierKind kind);

class Frontier {
 public:
  virtual ~Frontier() = default;

  virtual void push(SearchNode node) = 0;
  /// Remove the next node per this frontier's policy. Returns false when
  /// the frontier is empty.
  virtual bool pop(SearchNode& out) = 0;
  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Visit every pending node in *reconstruction order*: pushing the
  /// visited nodes into a fresh frontier of the same kind, in visit
  /// order, reproduces this frontier's future pop sequence exactly (for
  /// the random frontier, together with rng_state()). The checkpoint
  /// writer snapshots frontiers through this.
  virtual void for_each(
      const std::function<void(const SearchNode&)>& fn) const = 0;

  /// Pop-policy RNG state (random frontier only; 0 elsewhere). Restoring
  /// it via set_rng_state() resumes the exact pop sequence.
  [[nodiscard]] virtual std::uint64_t rng_state() const { return 0; }
  virtual void set_rng_state(std::uint64_t /*state*/) {}
};

/// `seed` is only used by the random-priority frontier.
std::unique_ptr<Frontier> make_frontier(FrontierKind kind,
                                        std::uint64_t seed);

}  // namespace nicemc::mc

#endif  // NICE_MC_FRONTIER_H
