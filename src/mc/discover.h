// The discover_packets and discover_stats transitions of Figure 5.
//
// discover_packets(client): symbolically execute the packet_in handler from
// the *current concrete controller state* and the client's location
// context; each feasible handler path yields one equivalence class of
// packets, from which one representative is instantiated. Results are memo-
// ized in one DiscoveryCache per search — the paper's
// `client.packets[state(ctrl)]` map — so revisiting the same controller
// state never re-runs symbolic execution.
//
// discover_stats(switch): same idea for the statistics handler, with one
// symbolic integer per port (Section 3.3).
#ifndef NICE_MC_DISCOVER_H
#define NICE_MC_DISCOVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mc/system.h"
#include "sym/sympacket.h"
#include "util/collapse.h"
#include "util/memo.h"

namespace nicemc::mc {

/// Representative per-port tx_bytes values for one stats-handler path.
using StatsValues = std::vector<std::pair<of::PortId, std::uint64_t>>;

struct DiscoveryStats {
  std::uint64_t packet_discoveries{0};
  std::uint64_t stats_discoveries{0};
  std::uint64_t handler_runs{0};
  std::uint64_t solver_queries{0};
  std::uint64_t packets_found{0};
};

/// Accumulate `from` into `into` — the drivers add the cache's counters to
/// the ones a resumed checkpoint carried over.
inline void add_discovery_stats(DiscoveryStats& into,
                                const DiscoveryStats& from) {
  into.packet_discoveries += from.packet_discoveries;
  into.stats_discoveries += from.stats_discoveries;
  into.handler_runs += from.handler_runs;
  into.solver_queries += from.solver_queries;
  into.packets_found += from.packets_found;
}

/// The search's one table of discovery results, shared by every worker —
/// the paper's `client.packets[state(ctrl)]` map (Figure 5).
///
/// discover_packets is a pure function of (the client's <switch, port>
/// location, the controller *application* state, the fixed config),
/// discover_stats of (the switch's per-port tx_bytes seeds, the
/// application state, the config). The key holds exactly those inputs: the
/// location or the seeds by their exact bytes, and the application state
/// by its interned projection id in kCollapsed mode
/// (SystemState::app_state_id — id equality ⇔ app-bytes equality,
/// collision-proof) or by its memoized projection hash otherwise
/// (SystemState::ctrl_hash, at the hash store's own negligible collision
/// risk). An under-keyed entry would alias distinct states and make the
/// discovered transitions depend on visit order, which breaks
/// checkpoint/resume count-identity.
///
/// Entries live in one lock-striped util::MemoCore whose LRU eviction keeps
/// the resident bytes within the budget. Evicting only costs a re-run of
/// the pure discovery, so search counts never depend on the budget.
class DiscoveryCache {
 public:
  using Packets = std::vector<sym::PacketFields>;
  using StatsClasses = std::vector<StatsValues>;

  /// The discovery share of the default CheckerOptions::memo_budget_bytes.
  static constexpr std::uint64_t kDefaultBudget = 32ull << 20;

  /// Hash keys, one shard, the default budget.
  DiscoveryCache() : DiscoveryCache(nullptr, 1, kDefaultBudget) {}
  /// `ids` is the seen-set's interning table in kCollapsed mode, nullptr
  /// otherwise (memoized-hash keys).
  DiscoveryCache(util::CollapseTable* ids, std::size_t shards,
                 std::uint64_t byte_budget)
      : ids_(ids), table_(shards, byte_budget) {}

  /// discover_packets for `host` at its current location in `state`: the
  /// stored result, or a fresh symbolic run that is then stored.
  [[nodiscard]] std::shared_ptr<const Packets> packets(
      const SystemConfig& cfg, const SystemState& state, of::HostId host);
  /// discover_stats for `sw` in `state`, cached the same way.
  [[nodiscard]] std::shared_ptr<const StatsClasses> stats_classes(
      const SystemConfig& cfg, const SystemState& state, of::SwitchId sw);

  /// Snapshot of the discovery counters (the symbolic runs on misses).
  [[nodiscard]] DiscoveryStats stats() const;
  /// Lookups, evictions and resident bytes of the table.
  [[nodiscard]] util::MemoCore::Stats table_stats() const {
    return table_.stats();
  }

  /// Memory-watchdog hook: lower the byte budget and evict to fit.
  void shrink_to(std::uint64_t new_budget) { table_.shrink_to(new_budget); }
  [[nodiscard]] std::uint64_t byte_budget() const noexcept {
    return table_.byte_budget();
  }

 private:
  void packets_key(util::Ser& key, const SystemState& state,
                   of::HostId host) const;
  void stats_key(util::Ser& key, const SystemState& state,
                 of::SwitchId sw) const;
  void count(const DiscoveryStats& run);

  util::CollapseTable* ids_;
  util::MemoCore table_;
  std::atomic<std::uint64_t> packet_discoveries_{0};
  std::atomic<std::uint64_t> stats_discoveries_{0};
  std::atomic<std::uint64_t> handler_runs_{0};
  std::atomic<std::uint64_t> solver_queries_{0};
  std::atomic<std::uint64_t> packets_found_{0};
};

/// Run symbolic execution of packet_in for `host` at its current location.
/// Returns one concrete representative packet per feasible handler path.
std::vector<sym::PacketFields> discover_packets(const SystemConfig& cfg,
                                                const SystemState& state,
                                                of::HostId host,
                                                DiscoveryStats& stats);

/// Run symbolic execution of the stats handler for `sw`.
std::vector<StatsValues> discover_stats(const SystemConfig& cfg,
                                        const SystemState& state,
                                        of::SwitchId sw,
                                        DiscoveryStats& stats);

}  // namespace nicemc::mc

#endif  // NICE_MC_DISCOVER_H
