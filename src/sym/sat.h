// A small DPLL SAT solver with two-watched-literal propagation.
//
// This is the decision procedure underneath the bit-vector solver (our
// substitute for STP; see ARCHITECTURE.md, "Layer map"). Queries produced
// by NICE's concolic engine are tiny — a path condition over a handful of
// packet header fields plus disjunctive domain constraints — typically a few
// hundred variables and a few thousand clauses, so chronological DPLL with
// watched literals and a static occurrence-count decision heuristic is more
// than sufficient, and is simple enough to be verified by the test suite.
#ifndef NICE_SYM_SAT_H
#define NICE_SYM_SAT_H

#include <cstdint>
#include <vector>

namespace nicemc::sym {

/// SAT variable index, 0-based.
using SatVar = std::uint32_t;

/// Literal encoding: lit = 2*var + (negated ? 1 : 0).
using Lit = std::uint32_t;

constexpr Lit make_lit(SatVar v, bool negated) noexcept {
  return (v << 1) | (negated ? 1u : 0u);
}
constexpr SatVar lit_var(Lit l) noexcept { return l >> 1; }
constexpr bool lit_sign(Lit l) noexcept { return (l & 1) != 0; }
constexpr Lit lit_neg(Lit l) noexcept { return l ^ 1u; }

enum class SatResult : std::uint8_t { kSat, kUnsat };

class SatSolver {
 public:
  SatVar new_var();

  /// Number of variables created so far.
  [[nodiscard]] std::size_t num_vars() const noexcept { return value_.size(); }
  [[nodiscard]] std::size_t num_clauses() const noexcept {
    return clauses_.size();
  }

  /// Add a clause (disjunction of literals). Tautologies are dropped and
  /// duplicate literals removed. An empty clause makes the instance
  /// trivially unsatisfiable.
  void add_clause(std::vector<Lit> lits);

  // Convenience for the bit-blaster's Tseitin gates.
  void add_unit(Lit a) { add_clause({a}); }
  void add_binary(Lit a, Lit b) { add_clause({a, b}); }
  void add_ternary(Lit a, Lit b, Lit c) { add_clause({a, b, c}); }

  /// Solve the current clause set from scratch.
  SatResult solve();

  /// Value of a variable in the model found by the last solve() that
  /// returned kSat. Unconstrained variables default to false.
  [[nodiscard]] bool model_value(SatVar v) const;

  /// Statistics (for the micro-benchmarks).
  [[nodiscard]] std::uint64_t num_decisions() const noexcept {
    return decisions_;
  }
  [[nodiscard]] std::uint64_t num_propagations() const noexcept {
    return propagations_;
  }

 private:
  // lbool values: -1 unassigned, 0 false, 1 true.
  using LBool = std::int8_t;
  static constexpr LBool kUndef = -1;

  [[nodiscard]] LBool value_of(Lit l) const {
    const LBool v = value_[lit_var(l)];
    if (v == kUndef) return kUndef;
    return lit_sign(l) ? static_cast<LBool>(1 - v) : v;
  }

  bool enqueue(Lit l);                  // false on immediate conflict
  bool propagate();                     // false on conflict
  [[nodiscard]] SatVar pick_branch_var() const;  // num_vars() if all assigned
  void unwind_to(std::size_t trail_mark);

  struct Frame {
    Lit decision;
    bool flipped;
    std::size_t trail_mark;
  };

  std::vector<std::vector<Lit>> clauses_;
  // watches_[lit] = indices of clauses currently watching `lit`.
  std::vector<std::vector<std::uint32_t>> watches_;
  std::vector<LBool> value_;
  std::vector<Lit> trail_;
  std::size_t propagate_head_{0};
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> occurrence_;  // static heuristic scores
  bool trivially_unsat_{false};
  std::uint64_t decisions_{0};
  std::uint64_t propagations_{0};
};

}  // namespace nicemc::sym

#endif  // NICE_SYM_SAT_H
