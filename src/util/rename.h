// Identifier renaming for symmetry canonicalization (mc/sym_reduce.h).
//
// The symmetry layer canonicalizes a state by serializing the *renamed*
// state: MACs, IPs, host ids, attach ports and flow ids of interchangeable
// hosts are mapped onto a canonical orbit slot, and packet uids are
// renumbered densely in order of first appearance. Rather than clone and
// rewrite every component, the canonicalizer installs a thread-local
// Renamer and re-runs the ordinary serializers: every serializer that
// writes a packet-visible identifier funnels it through the rn_* helpers
// below, which are identity (and branch-predictable no-ops) when no
// renamer is active — the normal hashing/collapse hot path pays one
// thread-local load per serializer body, nothing more.
//
// Port numbers are per-switch names, so the port map is keyed on
// (switch << 32 | port) and serializers that write ports without an
// explicit switch id (rules, OpenFlow messages, host attach ports) rely on
// a "current switch" context set by the enclosing component via SwScope.
//
// The symmetry layer's member-signature passes also tag one orbit member
// at a time (entries it owns rename to their `tag` identity) and record,
// per serialized section, which members' identifiers a lookup hit: a
// section that never looked up member j's identifiers serializes the same
// bytes whether or not j is tagged, so only hit sections are redone.
//
// Uid renumbering is two-pass (see sym_reduce.cpp): a kAssign pass walks
// the serialization order once, handing out dense uids at first
// appearance; containers *keyed* on uids cannot know their sorted
// position until the map is complete, so they register their keys with
// note_uid() and emit in raw order during the assign pass. finalize_uids()
// then maps any still-unseen registered uids, and a kFrozen pass produces
// the final byte form with uid-keyed containers sorted by renamed uid.
// Those containers are the only serializers whose bytes differ between
// the passes, and they find out which pass runs through
// rn_uid_assigning(), which counts its true answers: every component that
// never got one keeps its assign-pass bytes.
#ifndef NICE_UTIL_RENAME_H
#define NICE_UTIL_RENAME_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace nicemc::util {

/// Owner of a renaming entry outside signature passes.
inline constexpr std::uint32_t kNoMember = 0xffffffffu;

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
    const auto it = lower(from);
    return it != entries_.end() && it->from == from ? &*it : nullptr;
  }

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
  /// Ports are per-switch names: keyed (switch << 32 | port).
  IdMap<std::uint64_t, std::uint32_t> port;

  UidMode uid_mode{UidMode::kKeep};

  /// Current-switch context for serializers that write port numbers
  /// without an explicit switch id (set via SwScope by the enclosing
  /// switch / host / controller-command serializer).
  std::uint32_t cur_sw{0xffffffffu};

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
    return rename(port, (static_cast<std::uint64_t>(sw) << 32) | p, p);
  }
  [[nodiscard]] std::uint32_t r_port_cur(std::uint32_t p) const {
    return r_port(cur_sw, p);
  }

  /// Renamed uid under the active mode. kAssign allocates on first sight;
  /// uid 0 ("no uid") is always preserved.
  [[nodiscard]] std::uint32_t r_uid(std::uint32_t u) const {
    switch (uid_mode) {
      case UidMode::kKeep:
        return u;
      case UidMode::kElide:
        return 0;
      case UidMode::kAssign: {
        if (u == 0) return 0;
        const auto [it, inserted] = uid_.try_emplace(u, next_dense_uid_);
        if (inserted) ++next_dense_uid_;
        return it->second;
      }
      case UidMode::kFrozen: {
        const auto it = uid_.find(u);
        return it == uid_.end() ? u : it->second;
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
    for (const std::uint32_t u : deferred_uids_) {
      const auto [it, inserted] = uid_.try_emplace(u, next_dense_uid_);
      if (inserted) ++next_dense_uid_;
    }
    deferred_uids_.clear();
  }

  [[nodiscard]] std::uint32_t uids_assigned() const {
    return next_dense_uid_ - 1;
  }

  /// Whether a uid-keyed container must take its assign-pass branch (see
  /// rn_uid_assigning). Every true answer is counted: apart from r_uid,
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
    uid_mode = UidMode::kKeep;
    cur_sw = 0xffffffffu;
    tagged = kNoMember;
    hits = nullptr;
    reset_uids();
  }

  /// The thread's active renamer, or nullptr outside a canonicalization
  /// pass (the common case: plain hashing, collapse, checkpointing).
  [[nodiscard]] static const Renamer* active() noexcept { return tls_; }

  /// RAII activation. Not nestable (the canonicalizer is the only user).
  class Scope {
   public:
    explicit Scope(const Renamer* r) noexcept { tls_ = r; }
    ~Scope() { tls_ = nullptr; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  /// RAII current-switch context (no-op when no renamer is active).
  class SwScope {
   public:
    explicit SwScope(std::uint32_t sw) noexcept {
      if (tls_ != nullptr) {
        prev_ = tls_->cur_sw;
        const_cast<Renamer*>(tls_)->cur_sw = sw;
      }
    }
    ~SwScope() {
      if (tls_ != nullptr) const_cast<Renamer*>(tls_)->cur_sw = prev_;
    }
    SwScope(const SwScope&) = delete;
    SwScope& operator=(const SwScope&) = delete;

   private:
    std::uint32_t prev_{0xffffffffu};
  };

 private:
  template <typename K, typename V>
  [[nodiscard]] V rename(const IdMap<K, V>& map, K from, V identity) const {
    const auto* e = map.find(from);
    if (e == nullptr) return identity;
    if (hits != nullptr) hits[e->owner] = 1;
    return e->owner == tagged ? e->tag : e->to;
  }

  // Uid state is logically part of serialization *output*, so the const
  // serializers can grow it through a const Renamer*.
  mutable std::map<std::uint32_t, std::uint32_t> uid_;
  mutable std::vector<std::uint32_t> deferred_uids_;
  mutable std::uint32_t next_dense_uid_{1};
  mutable std::uint64_t assign_branches_{0};

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
  return r == nullptr ? p : r->r_port_cur(p);
}
[[nodiscard]] inline std::uint32_t rn_uid(const Renamer* r, std::uint32_t u) {
  return r == nullptr ? u : r->r_uid(u);
}

/// True while a uid-keyed container must defer its sorted emission: the
/// assign pass registers keys (note_uid) and emits raw order; the frozen
/// pass emits sorted by renamed uid.
[[nodiscard]] inline bool rn_uid_assigning(const Renamer* r) {
  return r != nullptr && r->assigning();
}
[[nodiscard]] inline bool rn_uid_renumbering(const Renamer* r) {
  return r != nullptr && (r->uid_mode == Renamer::UidMode::kAssign ||
                          r->uid_mode == Renamer::UidMode::kFrozen ||
                          r->uid_mode == Renamer::UidMode::kElide);
}

}  // namespace nicemc::util

#endif  // NICE_UTIL_RENAME_H
