#include "sym/value.h"

namespace nicemc::sym {

namespace {

/// Expression for an operand, materializing a constant node when the
/// operand is concrete. Only called when a tracer is active.
ExprRef expr_of(const Value& v, ExprArena& arena) {
  if (v.symbolic()) return v.expr();
  return arena.constant(v.concrete(), v.width());
}

/// True when a symbolic expression should be produced: at least one operand
/// symbolic and a tracer (hence arena) available.
bool want_symbolic(const Value& a, const Value& b) {
  return (a.symbolic() || b.symbolic()) && Tracer::current() != nullptr;
}

Value make_bin(Op op, const Value& a, const Value& b) {
  assert(a.width() == b.width() && "operand width mismatch");
  const unsigned w = a.width();
  std::uint64_t c = 0;
  switch (op) {
    case Op::kAnd: c = a.concrete() & b.concrete(); break;
    case Op::kOr: c = a.concrete() | b.concrete(); break;
    case Op::kXor: c = a.concrete() ^ b.concrete(); break;
    case Op::kAdd: c = a.concrete() + b.concrete(); break;
    case Op::kSub: c = a.concrete() - b.concrete(); break;
    default: assert(false);
  }
  if (!want_symbolic(a, b)) return Value(c, w);
  ExprArena& ar = Tracer::current()->arena();
  return Value(c, w, ar.bin(op, expr_of(a, ar), expr_of(b, ar)));
}

Bool make_cmp(Op op, const Value& a, const Value& b) {
  assert(a.width() == b.width() && "operand width mismatch");
  bool c = false;
  switch (op) {
    case Op::kEq: c = a.concrete() == b.concrete(); break;
    case Op::kNe: c = a.concrete() != b.concrete(); break;
    case Op::kUlt: c = a.concrete() < b.concrete(); break;
    case Op::kUle: c = a.concrete() <= b.concrete(); break;
    default: assert(false);
  }
  if (!want_symbolic(a, b)) return Bool(c);
  ExprArena& ar = Tracer::current()->arena();
  return Bool(c, ar.cmp(op, expr_of(a, ar), expr_of(b, ar)));
}

}  // namespace

Value Value::input(VarId id, unsigned width, std::uint64_t concrete) {
  Tracer* t = Tracer::current();
  assert(t != nullptr && "symbolic inputs require an active tracer");
  return Value(concrete, width, t->arena().var(id, width));
}

Value operator&(const Value& a, const Value& b) {
  return make_bin(Op::kAnd, a, b);
}
Value operator|(const Value& a, const Value& b) {
  return make_bin(Op::kOr, a, b);
}
Value operator^(const Value& a, const Value& b) {
  return make_bin(Op::kXor, a, b);
}
Value operator+(const Value& a, const Value& b) {
  return make_bin(Op::kAdd, a, b);
}
Value operator-(const Value& a, const Value& b) {
  return make_bin(Op::kSub, a, b);
}

Value Value::operator~() const {
  const std::uint64_t c = ~concrete_ & width_mask(width_);
  if (!symbolic() || Tracer::current() == nullptr) return Value(c, width_);
  return Value(c, width_, Tracer::current()->arena().not_of(expr_));
}

Value Value::shl(unsigned k) const {
  const std::uint64_t c =
      k >= width_ ? 0 : (concrete_ << k) & width_mask(width_);
  if (!symbolic() || Tracer::current() == nullptr) return Value(c, width_);
  return Value(c, width_, Tracer::current()->arena().shl(expr_, k));
}

Value Value::lshr(unsigned k) const {
  const std::uint64_t c = k >= width_ ? 0 : concrete_ >> k;
  if (!symbolic() || Tracer::current() == nullptr) return Value(c, width_);
  return Value(c, width_, Tracer::current()->arena().lshr(expr_, k));
}

Value Value::extract(unsigned low, unsigned width) const {
  assert(low + width <= width_);
  const std::uint64_t c = (concrete_ >> low) & width_mask(width);
  if (!symbolic() || Tracer::current() == nullptr) return Value(c, width);
  return Value(c, width,
               Tracer::current()->arena().extract(expr_, low, width));
}

Value Value::zext(unsigned width) const {
  assert(width >= width_);
  if (!symbolic() || Tracer::current() == nullptr) {
    return Value(concrete_, width);
  }
  return Value(concrete_, width, Tracer::current()->arena().zext(expr_, width));
}

Bool operator==(const Value& a, const Value& b) {
  return make_cmp(Op::kEq, a, b);
}
Bool operator!=(const Value& a, const Value& b) {
  return make_cmp(Op::kNe, a, b);
}
Bool operator<(const Value& a, const Value& b) {
  return make_cmp(Op::kUlt, a, b);
}
Bool operator<=(const Value& a, const Value& b) {
  return make_cmp(Op::kUle, a, b);
}

}  // namespace nicemc::sym
