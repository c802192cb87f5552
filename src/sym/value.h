// Concolic values: the C++ analogue of NICE's instrumented Python execution.
//
// A sym::Value carries a concrete fixed-width unsigned integer and,
// optionally, a symbolic expression describing it in terms of the symbolic
// inputs of the current discovery session. Comparisons yield sym::Bool; when
// a Bool is used in a branch (its operator bool), the ambient Tracer — if
// one is active — records the branch constraint together with the direction
// actually taken. This reproduces the paper's concolic execution
// (Section 6): concrete runs that collect path constraints as a side effect.
//
// Controller applications are written once against these types. Inside the
// model checker no tracer is active and all values are plain concrete
// integers; inside a discover_packets/discover_stats transition the tracer
// is active and the same handler code records its path condition.
#ifndef NICE_SYM_VALUE_H
#define NICE_SYM_VALUE_H

#include <cassert>
#include <cstdint>
#include <vector>

#include "sym/expr.h"

namespace nicemc::sym {

/// One recorded branch: the condition expression and the direction the
/// concrete execution took.
struct BranchRecord {
  ExprRef cond{kNilExpr};
  bool taken{false};

  friend bool operator==(const BranchRecord&, const BranchRecord&) = default;
};

/// Ambient branch recorder. At most one Tracer is active per thread;
/// activation is scoped (RAII). The concolic engine activates a tracer
/// around each handler run.
class Tracer {
 public:
  explicit Tracer(ExprArena& arena) : arena_(arena) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII activation of a tracer as the thread-ambient one.
  class Activation {
   public:
    explicit Activation(Tracer& t) : prev_(current_) { current_ = &t; }
    ~Activation() { current_ = prev_; }
    Activation(const Activation&) = delete;
    Activation& operator=(const Activation&) = delete;

   private:
    Tracer* prev_;
  };

  static Tracer* current() noexcept { return current_; }

  void record_branch(ExprRef cond, bool taken) {
    path_.push_back(BranchRecord{cond, taken});
  }

  [[nodiscard]] ExprArena& arena() noexcept { return arena_; }
  [[nodiscard]] const std::vector<BranchRecord>& path() const noexcept {
    return path_;
  }
  void clear_path() noexcept { path_.clear(); }

 private:
  static inline thread_local Tracer* current_ = nullptr;

  ExprArena& arena_;
  std::vector<BranchRecord> path_;
};

/// Boolean result of a concolic comparison. Implicit conversion to bool
/// *records the branch* with the ambient tracer — this is the hook that
/// turns ordinary `if` statements in app code into path constraints.
class Bool {
 public:
  Bool(bool concrete) : concrete_(concrete) {}  // NOLINT: implicit by design
  Bool(bool concrete, ExprRef expr) : concrete_(concrete), expr_(expr) {}

  operator bool() const {  // NOLINT: implicit by design
    if (expr_ != kNilExpr) {
      if (Tracer* t = Tracer::current()) t->record_branch(expr_, concrete_);
    }
    return concrete_;
  }

  /// Negation without recording a branch.
  Bool operator!() const {
    if (expr_ == kNilExpr) return Bool(!concrete_);
    Tracer* t = Tracer::current();
    assert(t != nullptr && "symbolic Bool outside a tracer session");
    return Bool(!concrete_, t->arena().not_of(expr_));
  }

  [[nodiscard]] bool concrete() const noexcept { return concrete_; }
  [[nodiscard]] ExprRef expr() const noexcept { return expr_; }
  [[nodiscard]] bool symbolic() const noexcept { return expr_ != kNilExpr; }

 private:
  bool concrete_;
  ExprRef expr_{kNilExpr};
};

/// Concolic fixed-width unsigned integer.
class Value {
 public:
  /// Default: concrete zero of width 64.
  Value() : Value(0, 64) {}

  Value(std::uint64_t concrete, unsigned width)
      : concrete_(concrete & width_mask(width)),
        width_(static_cast<std::uint8_t>(width)) {
    assert(width >= 1 && width <= 64);
  }

  Value(std::uint64_t concrete, unsigned width, ExprRef expr)
      : Value(concrete, width) {
    expr_ = expr;
  }

  /// A symbolic input variable bound to a concrete value for this run.
  /// Requires an active tracer (needs its arena).
  static Value input(VarId id, unsigned width, std::uint64_t concrete);

  [[nodiscard]] std::uint64_t concrete() const noexcept { return concrete_; }
  [[nodiscard]] unsigned width() const noexcept { return width_; }
  [[nodiscard]] ExprRef expr() const noexcept { return expr_; }
  [[nodiscard]] bool symbolic() const noexcept { return expr_ != kNilExpr; }

  // --- arithmetic / bitwise (width-preserving) ---
  friend Value operator&(const Value& a, const Value& b);
  friend Value operator|(const Value& a, const Value& b);
  friend Value operator^(const Value& a, const Value& b);
  friend Value operator+(const Value& a, const Value& b);
  friend Value operator-(const Value& a, const Value& b);
  Value operator~() const;
  [[nodiscard]] Value shl(unsigned k) const;
  [[nodiscard]] Value lshr(unsigned k) const;
  [[nodiscard]] Value extract(unsigned low, unsigned width) const;
  [[nodiscard]] Value zext(unsigned width) const;

  // Mixed with plain integers: the integer adopts this value's width.
  friend Value operator&(const Value& a, std::uint64_t b) {
    return a & Value(b, a.width());
  }
  friend Value operator|(const Value& a, std::uint64_t b) {
    return a | Value(b, a.width());
  }

  // --- comparisons (produce Bool) ---
  friend Bool operator==(const Value& a, const Value& b);
  friend Bool operator!=(const Value& a, const Value& b);
  friend Bool operator<(const Value& a, const Value& b);
  friend Bool operator<=(const Value& a, const Value& b);
  friend Bool operator>(const Value& a, const Value& b) { return b < a; }
  friend Bool operator>=(const Value& a, const Value& b) { return b <= a; }

  friend Bool operator==(const Value& a, std::uint64_t b) {
    return a == Value(b, a.width());
  }
  friend Bool operator!=(const Value& a, std::uint64_t b) {
    return a != Value(b, a.width());
  }
  friend Bool operator<(const Value& a, std::uint64_t b) {
    return a < Value(b, a.width());
  }
  friend Bool operator<=(const Value& a, std::uint64_t b) {
    return a <= Value(b, a.width());
  }
  friend Bool operator>(const Value& a, std::uint64_t b) {
    return a > Value(b, a.width());
  }
  friend Bool operator>=(const Value& a, std::uint64_t b) {
    return a >= Value(b, a.width());
  }

 private:
  std::uint64_t concrete_;
  std::uint8_t width_;
  ExprRef expr_{kNilExpr};
};

}  // namespace nicemc::sym

#endif  // NICE_SYM_VALUE_H
