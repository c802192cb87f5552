// Flow table with the canonical representation of paper Section 2.2.2.
//
// Rules are stored in insertion order (what a naive model would hash), but
// lookups and the default serialization use a canonical order: descending
// priority, then ascending rule key bytes (Rule::serialize_key). Two tables
// holding the same rule set in different insertion orders therefore hash
// identically — this is the "merging equivalent flow tables" optimization
// whose effect Table 1 quantifies (the NO-SWITCH-REDUCTION baseline
// serializes insertion order).
//
// The table keeps that canonical permutation up to date as it changes
// (add, remove, erase_at; counters are not part of the key, so count_hit
// leaves it alone), so a canonical serialization or a lookup walks a
// ready order instead of sorting per call. Keys are distinct: add()
// replaces a rule with the same match and priority, and the key bytes
// encode both. Only under an identifier renaming (the symmetry layer) do
// the key bytes differ from the stored order's, and serialize() then
// sorts by the renamed keys in per-thread buffers.
#ifndef NICE_OF_FLOWTABLE_H
#define NICE_OF_FLOWTABLE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "of/rule.h"
#include "util/ser.h"

namespace nicemc::of {

class FlowTable {
 public:
  /// flow_mod ADD semantics: a rule with the same match and priority as an
  /// existing rule replaces it (counters reset); otherwise append.
  void add(Rule r);

  /// flow_mod DELETE: remove all rules whose match equals `m` (strict) or
  /// is subsumed-equal (we implement strict equality on the pattern, which
  /// is what the Section 8 applications need). If `priority` is given, only
  /// rules with that priority are removed. Returns the number removed.
  std::size_t remove(const Match& m, std::optional<std::uint16_t> priority);

  /// The first matching rule in canonical order (highest priority, ties
  /// broken by key bytes), so lookup semantics are independent of
  /// insertion order. Returns index into rules() or nullopt.
  [[nodiscard]] std::optional<std::size_t> lookup(
      PortId port, const sym::PacketFields& h) const;

  /// Update counters of the rule at `idx` for one matched packet.
  void count_hit(std::size_t idx, std::uint32_t bytes);

  /// Remove the rule at insertion index `idx`.
  void erase_at(std::size_t idx);

  [[nodiscard]] const std::vector<Rule>& rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }

  /// Canonical serialization (default) or raw insertion-order serialization
  /// (the NO-SWITCH-REDUCTION baseline of Table 1).
  void serialize(util::Ser& s, bool canonical = true) const;

 private:
  /// Insert insertion index `idx` into order_ at its canonical position.
  void place(std::uint32_t idx);

  std::vector<Rule> rules_;  // insertion order
  /// Indices into rules_ in canonical order.
  std::vector<std::uint32_t> order_;
};

}  // namespace nicemc::of

#endif  // NICE_OF_FLOWTABLE_H
