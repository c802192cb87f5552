// Identifier naming for state keys: every serializer writes each
// identifier through an rn_* helper below, which applies the thread's
// active Renamer, so two states share a key only if they differ in names
// that do not change behaviour:
//   * copy ids are elided in canonical forms (the raw NO-SWITCH-REDUCTION
//     form keeps them);
//   * buffer ids are per-switch names, keyed like ports: a canonical form
//     writes a live id as its packet's content rank and every other id as
//     kStaleBuffer (ids are never reused, so all stale ids behave alike);
//     the one switch section that writes buffer ids also holds the buffer,
//     so a memoized section hash depends on its own part alone;
//   * uids, MACs, IPs, host ids, attach ports and flow ids pass through,
//     except under symmetry.
// A component serializer opens a FormScope(switch, canonical). Outside
// symmetry a canonical form activates the thread's plain renamer, whose
// identifier classes are empty, and a raw form none, so raw bytes never
// change.
//
// The symmetry layer (mc/sym_reduce.h) activates its own Renamer with
// Scope: identifiers of interchangeable hosts map onto canonical orbit
// slots and uids are renumbered. Its member-signature passes tag one orbit
// member at a time (entries it owns rename to their `tag` identity) and
// record, per serialized section, which members' identifiers a lookup
// hit: only sections that hit member j are redone with j tagged. Buffer
// names depend on members only through the content ranks, whose own
// lookups record the hits.
//
// Uid renumbering is two-pass (see sym_reduce.cpp): a kAssign pass walks
// the serialization order once, handing out dense uids at first
// appearance; containers *keyed* on uids cannot know their sorted
// position until the map is complete, so they register their keys with
// note_uid() and emit in raw order during the assign pass. finalize_uids()
// then maps any still-unseen registered uids, and a kFrozen pass produces
// the final byte form with uid-keyed containers sorted by renamed uid.
// Those containers are the only serializers whose bytes differ between
// the passes, and they emit through for_each_by_uid, which asks
// Renamer::assigning(); the renamer counts its true answers, and every
// component that never got one keeps its assign-pass bytes.
#ifndef NICE_UTIL_RENAME_H
#define NICE_UTIL_RENAME_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <utility>
#include <vector>

namespace nicemc::util {

/// Owner of a renaming entry outside signature passes.
inline constexpr std::uint32_t kNoMember = 0xffffffffu;

/// OpenFlow's "no buffer" id (of::kNoBuffer), which every naming keeps,
/// and the one name of all stale buffer ids (never a content rank).
inline constexpr std::uint32_t kNoBuffer = 0xffffffffu;
inline constexpr std::uint32_t kStaleBuffer = 0xfffffffeu;

/// One identifier class's renaming table: a sorted flat array. Orbits are
/// small and the tables are rebuilt per canonicalization, so contiguous
/// entries with a binary search beat node-based maps on both counts.
template <typename K, typename V>
class IdMap {
 public:
  struct Entry {
    K from;
    V to;
    V tag;  // the replacement while `owner` is the renamer's tagged member
    std::uint32_t owner;
  };

  /// Map `from` to `to` unless `from` is already mapped: the first
  /// mapping wins, like std::map::emplace.
  void add(K from, V to) { add(from, to, to, kNoMember); }
  void add(K from, V to, V tag, std::uint32_t owner) {
    const auto it = lower(from);
    if (it != entries_.end() && it->from == from) return;
    entries_.insert(it, Entry{from, to, tag, owner});
  }

  [[nodiscard]] const Entry* find(K from) const {
    if (entries_.empty()) return nullptr;
    const auto it = lower(from);
    return it != entries_.end() && it->from == from ? &*it : nullptr;
  }

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept { entries_.clear(); }

 private:
  [[nodiscard]] auto lower(K from) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), from,
        [](const Entry& e, K k) { return e.from < k; });
  }

  std::vector<Entry> entries_;
};

class Renamer {
 public:
  enum class UidMode : std::uint8_t {
    kKeep,    // uids pass through unchanged
    kElide,   // uids serialize as 0 (signature passes: allocation-neutral)
    kAssign,  // dense renumbering, assigned at first appearance
    kFrozen,  // dense renumbering, map complete — misses pass through
  };

  IdMap<std::uint64_t, std::uint64_t> mac;
  IdMap<std::uint64_t, std::uint64_t> ip;
  IdMap<std::uint32_t, std::uint32_t> host;
  IdMap<std::uint32_t, std::uint32_t> flow;
  /// Ports are per-switch names: keyed sw_key(switch, port).
  IdMap<std::uint64_t, std::uint32_t> port;
  /// Buffer ids too, keyed sw_key(switch, id) and mapped to content rank;
  /// only the switch being serialized has entries.
  IdMap<std::uint64_t, std::uint32_t> buffer;

  UidMode uid_mode{UidMode::kKeep};

  /// The switch whose ports and buffer ids unqualified names refer to, and
  /// whether the form is canonical (both set by FormScope).
  std::uint32_t cur_sw{0xffffffffu};
  bool canonical{false};

  [[nodiscard]] static std::uint64_t sw_key(std::uint32_t sw,
                                            std::uint32_t id) {
    return (static_cast<std::uint64_t>(sw) << 32) | id;
  }

  /// Signature passes: entries owned by this member rename to their `tag`
  /// identity, every other entry to `to`.
  std::uint32_t tagged{kNoMember};

  /// Signature passes: when set, every lookup that finds an entry sets
  /// hits[owner], recording which members the output depends on. Every
  /// entry must then carry an owner.
  std::uint8_t* hits{nullptr};

  [[nodiscard]] std::uint64_t r_mac(std::uint64_t m) const {
    return rename(mac, m, m);
  }
  [[nodiscard]] std::uint64_t r_ip(std::uint64_t i) const {
    return rename(ip, i, i);
  }
  [[nodiscard]] std::uint32_t r_host(std::uint32_t h) const {
    return rename(host, h, h);
  }
  [[nodiscard]] std::uint32_t r_flow(std::uint32_t f) const {
    return rename(flow, f, f);
  }
  [[nodiscard]] std::uint32_t r_port(std::uint32_t sw, std::uint32_t p) const {
    return rename(port, sw_key(sw, p), p);
  }
  [[nodiscard]] std::uint32_t r_buffer(std::uint32_t sw,
                                       std::uint32_t b) const {
    if (!canonical || b == kNoBuffer) return b;
    const auto* e = buffer.find(sw_key(sw, b));
    return e == nullptr ? kStaleBuffer : e->to;
  }

  /// Renamed uid under the active mode. kAssign allocates on first sight;
  /// uid 0 ("no uid") is always preserved.
  [[nodiscard]] std::uint32_t r_uid(std::uint32_t u) const {
    switch (uid_mode) {
      case UidMode::kKeep:
        return u;
      case UidMode::kElide:
        return 0;
      case UidMode::kAssign:
        return u == 0 ? 0 : assign_uid(u);
      case UidMode::kFrozen: {
        const auto it = uid_lower(u);
        return it == uid_.end() || it->first != u ? u : it->second;
      }
    }
    return u;
  }

  /// Register a uid that keys a container (order-sensitive emission is
  /// deferred to the frozen pass). Assignments happen in finalize_uids()
  /// for uids that never appear as packet fields.
  void note_uid(std::uint32_t u) const {
    if (uid_mode == UidMode::kAssign && u != 0) deferred_uids_.push_back(u);
  }

  /// After the assign pass: map any registered-but-unassigned uids, in
  /// ascending original order (a canonicality heuristic, not a soundness
  /// requirement — the map just has to be a permutation).
  void finalize_uids() {
    std::sort(deferred_uids_.begin(), deferred_uids_.end());
    for (const std::uint32_t u : deferred_uids_) (void)assign_uid(u);
    deferred_uids_.clear();
  }

  /// Whether a uid-keyed container must take its assign-pass branch (see
  /// for_each_by_uid). Every true answer is counted: apart from r_uid,
  /// whose answers the frozen pass repeats, this is the only way a
  /// serializer can tell the assign pass from the frozen pass, so one that
  /// never got a true answer emits the same bytes in both.
  [[nodiscard]] bool assigning() const {
    if (uid_mode != UidMode::kAssign) return false;
    ++assign_branches_;
    return true;
  }
  [[nodiscard]] std::uint64_t assign_branches() const {
    return assign_branches_;
  }

  void reset_uids() {
    uid_.clear();
    deferred_uids_.clear();
    next_dense_uid_ = 1;
    assign_branches_ = 0;
  }

  /// Back to a fresh renamer, keeping allocated capacity for reuse.
  void clear() {
    mac.clear();
    ip.clear();
    host.clear();
    flow.clear();
    port.clear();
    buffer.clear();
    uid_mode = UidMode::kKeep;
    cur_sw = 0xffffffffu;
    canonical = false;
    tagged = kNoMember;
    hits = nullptr;
    reset_uids();
  }

  /// The thread's active renamer, or nullptr (no canonical form is being
  /// written outside symmetry).
  [[nodiscard]] static const Renamer* active() noexcept { return tls_; }

  /// RAII activation of a caller-owned renamer (the symmetry layer's).
  /// FormScopes nest inside it; Scopes do not nest.
  class Scope {
   public:
    explicit Scope(const Renamer* r) noexcept { tls_ = r; }
    ~Scope() { tls_ = nullptr; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  /// RAII naming context of one component serializer (see the file
  /// comment). Buffer names given under it end with it, so none may open
  /// inside a switch's.
  class FormScope {
   public:
    FormScope(std::uint32_t sw, bool canonical) noexcept {
      if (tls_ == nullptr) {
        if (!canonical) return;
        tls_ = &plain();
        activated_ = true;
      }
      rn_ = const_cast<Renamer*>(tls_);
      saved_sw_ = rn_->cur_sw;
      saved_canonical_ = rn_->canonical;
      rn_->cur_sw = sw;
      rn_->canonical = canonical;
    }
    ~FormScope() {
      if (rn_ == nullptr) return;
      rn_->buffer.clear();
      rn_->cur_sw = saved_sw_;
      rn_->canonical = saved_canonical_;
      if (activated_) tls_ = nullptr;
    }
    FormScope(const FormScope&) = delete;
    FormScope& operator=(const FormScope&) = delete;

    /// nullptr for a raw form outside symmetry.
    [[nodiscard]] Renamer* renamer() const noexcept { return rn_; }

   private:
    Renamer* rn_{nullptr};
    bool activated_{false};
    bool saved_canonical_{false};
    std::uint32_t saved_sw_{0xffffffffu};
  };

 private:
  template <typename K, typename V>
  [[nodiscard]] V rename(const IdMap<K, V>& map, K from, V identity) const {
    const auto* e = map.find(from);
    if (e == nullptr) return identity;
    if (hits != nullptr) hits[e->owner] = 1;
    return e->owner == tagged ? e->tag : e->to;
  }

  /// The dense uid of u, assigned now if u has none.
  std::uint32_t assign_uid(std::uint32_t u) const {
    const auto it = uid_lower(u);
    if (it != uid_.end() && it->first == u) return it->second;
    uid_.insert(it, {u, next_dense_uid_});
    return next_dense_uid_++;
  }
  using UidMap = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  [[nodiscard]] UidMap::iterator uid_lower(std::uint32_t u) const {
    return std::lower_bound(
        uid_.begin(), uid_.end(), u,
        [](const auto& e, std::uint32_t x) { return e.first < x; });
  }

  // Uid state is logically part of serialization *output*, so the const
  // serializers can grow it through a const Renamer*. The map is a sorted
  // flat array: a state holds few uids, and clearing it keeps capacity.
  mutable UidMap uid_;
  mutable std::vector<std::uint32_t> deferred_uids_;
  mutable std::uint32_t next_dense_uid_{1};
  mutable std::uint64_t assign_branches_{0};

  /// The thread's plain renamer: every identifier class empty.
  static Renamer& plain() {
    thread_local Renamer r;
    return r;
  }

  static inline thread_local const Renamer* tls_ = nullptr;
};

// --- Serializer-side helpers: identity when no renamer is active. ---

[[nodiscard]] inline std::uint64_t rn_mac(const Renamer* r, std::uint64_t m) {
  return r == nullptr ? m : r->r_mac(m);
}
[[nodiscard]] inline std::uint64_t rn_ip(const Renamer* r, std::uint64_t i) {
  return r == nullptr ? i : r->r_ip(i);
}
[[nodiscard]] inline std::uint32_t rn_host(const Renamer* r, std::uint32_t h) {
  return r == nullptr ? h : r->r_host(h);
}
[[nodiscard]] inline std::uint32_t rn_flow(const Renamer* r, std::uint32_t f) {
  return r == nullptr ? f : r->r_flow(f);
}
[[nodiscard]] inline std::uint32_t rn_port(const Renamer* r, std::uint32_t sw,
                                           std::uint32_t p) {
  return r == nullptr ? p : r->r_port(sw, p);
}
[[nodiscard]] inline std::uint32_t rn_port_cur(const Renamer* r,
                                               std::uint32_t p) {
  return r == nullptr ? p : r->r_port(r->cur_sw, p);
}
[[nodiscard]] inline std::uint32_t rn_uid(const Renamer* r, std::uint32_t u) {
  return r == nullptr ? u : r->r_uid(u);
}
/// A buffer id of the current switch (buffer ids are only ever written
/// under their switch's FormScope).
[[nodiscard]] inline std::uint32_t rn_buffer(const Renamer* r,
                                             std::uint32_t b) {
  return r == nullptr ? b : r->r_buffer(r->cur_sw, b);
}
/// Whether a canonical form is being written: copy ids are elided and
/// buffer ids named.
[[nodiscard]] inline bool rn_canonical(const Renamer* r) {
  return r != nullptr && r->canonical;
}
/// Whether host identifiers are renamed (symmetry), so a container keyed
/// on them must re-sort (see for_each_named).
[[nodiscard]] inline bool rn_renames_hosts(const Renamer* r) {
  return r != nullptr && !(r->mac.empty() && r->ip.empty() &&
                           r->host.empty() && r->flow.empty() &&
                           r->port.empty());
}

/// A per-thread scratch vector of T for the renaming iterators below,
/// leased for one call. Leases nest (an emit may iterate an inner
/// container of the same type), so the thread keeps one vector per
/// nesting depth; each keeps its capacity, so once they have grown a
/// renamed iteration allocates nothing.
template <typename T>
class ScratchVec {
 public:
  ScratchVec() {
    Pool& p = pool();
    if (p.depth == p.vecs.size()) p.vecs.emplace_back();  // refs stay valid
    v_ = &p.vecs[p.depth++];
    v_->clear();
  }
  ~ScratchVec() { --pool().depth; }
  ScratchVec(const ScratchVec&) = delete;
  ScratchVec& operator=(const ScratchVec&) = delete;

  [[nodiscard]] std::vector<T>& operator*() const noexcept { return *v_; }

 private:
  struct Pool {
    std::deque<std::vector<T>> vecs;
    std::size_t depth{0};
  };
  static Pool& pool() {
    thread_local Pool p;
    return p;
  }

  std::vector<T>* v_;
};

/// Calls emit(name(e), e) for every element e of the ordered container
/// `c`, in ascending order of name. A container keyed on identifiers keeps
/// its own order while `renames` is false (its naming is the identity)
/// and is re-sorted otherwise; names are distinct, as renaming is a
/// bijection. Fewer than two elements need no sort.
template <typename C, typename Name, typename Emit>
void for_each_named(const C& c, bool renames, Name&& name, Emit&& emit) {
  if (!renames || c.size() < 2) {
    for (const auto& e : c) emit(name(e), e);
    return;
  }
  using Elem = typename C::value_type;
  using N = std::decay_t<std::invoke_result_t<Name&, const Elem&>>;
  const ScratchVec<std::pair<N, const Elem*>> lease;
  auto& named = *lease;
  for (const Elem& e : c) named.emplace_back(name(e), &e);
  std::sort(named.begin(), named.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [n, e] : named) emit(n, *e);
}

/// Calls emit(uid, e) for every element e of the uid-keyed container `c`
/// (uid_of(e) is its key), in order of the uid naming: ascending renamed
/// uid while renumbering, keeping the first element where renamed uids
/// coincide (kElide); otherwise raw order, and the assign pass registers
/// every key (its bytes are replaced by the frozen pass's).
template <typename C, typename Uid, typename Emit>
void for_each_by_uid(const C& c, const Renamer* rn, Uid&& uid_of,
                     Emit&& emit) {
  if (rn != nullptr && rn->uid_mode != Renamer::UidMode::kKeep &&
      !rn->assigning()) {
    using Elem = typename C::value_type;
    struct Named {
      std::uint32_t uid;
      std::uint32_t seq;  // position in the container
      const Elem* e;
    };
    const ScratchVec<Named> lease;
    auto& named = *lease;
    std::uint32_t seq = 0;
    for (const Elem& e : c) named.push_back({rn->r_uid(uid_of(e)), seq++, &e});
    std::sort(named.begin(), named.end(), [](const auto& a, const auto& b) {
      return a.uid != b.uid ? a.uid < b.uid : a.seq < b.seq;
    });
    for (std::size_t i = 0; i < named.size(); ++i) {
      // The first element per renamed uid, as std::map::emplace keeps.
      if (i == 0 || named[i].uid != named[i - 1].uid) {
        emit(named[i].uid, *named[i].e);
      }
    }
    return;
  }
  for (const auto& e : c) {
    if (rn != nullptr) rn->note_uid(uid_of(e));  // no-op but when assigning
    emit(uid_of(e), e);
  }
}

}  // namespace nicemc::util

#endif  // NICE_UTIL_RENAME_H
