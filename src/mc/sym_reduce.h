// Symmetry reduction over interchangeable hosts (clients/replicas that
// differ only in their identifiers). Scenarios with k identical clients
// explore k! permutations of the same behaviour; no partial-order mode can
// collapse them, because the permuted executions touch *different* state
// components. This layer collapses them at the seen-set instead: the
// remembered key of a state is the canonical serialization of a symmetric
// image of the state, so two states that differ only by a permutation of
// orbit members (plus the identifier renaming that permutation induces on
// packets in flight, learned tables, rules, property monitors and uids)
// produce the same key and merge.
//
// The representative is chosen by per-member structural signatures. They
// are built section by section: each section is serialized once with
// every orbit member renamed to a shared BOTTOM identity, which also
// records which members its identifier lookups hit, and once more per hit
// member j with j renamed to TAG. Those bytes depend on the section alone,
// so they are memoized on its copy-on-write node (util::SigMemo) and a
// child state pays only for the sections its transition wrote. Member j's
// signature is then a list of views into the memos, and members are
// ranked by comparing those lists as byte streams, without assembling
// them. A node written by a transition often holds content some other
// node already held, so its memo is first looked up by the section's
// plain hash in a per-thread cache and shared; and a hash-mode key is
// first looked up by the whole state's plain hash in a per-thread table,
// since a raw-identical revisit has the key its first visit computed.
//
// Soundness does not depend on how well the representative permutation is
// chosen: the key of s is serialize(pi(s)) for *some* orbit permutation
// pi, and orbit members are validated to be behaviourally interchangeable,
// so key(s1) == key(s2) implies pi1(s1) == pi2(s2) as states — s1 and s2
// have isomorphic futures and one representative suffices. The selection
// heuristic (per-member structural signatures) only determines how often
// equivalent states actually map to the *same* permutation image, i.e. the
// reduction strength, never correctness. See ARCHITECTURE.md ("Symmetry
// layer").
#ifndef NICE_MC_SYM_REDUCE_H
#define NICE_MC_SYM_REDUCE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mc/system.h"
#include "util/collapse.h"
#include "util/hash.h"
#include "util/rename.h"
#include "util/snap.h"

namespace nicemc::mc {

/// Canonical seen-set key for one state under the symmetry map.
struct SymKey {
  /// Store key: the canonical byte blob (kHash/kFullState) or the packed
  /// component-id tuple interned per renamed component (kCollapsed).
  std::string key;
  /// Hash of the canonical blob — shard selection and kHash inserts.
  util::Hash128 hash;
};

struct SymmetryStats {
  bool enabled{false};
  std::uint32_t orbits{0};
  std::uint32_t orbit_hosts{0};
  /// Canonical keys built. With raw_revisits, the symmetry-reduced
  /// remember() calls.
  std::uint64_t canonicalizations{0};
  /// Hash-mode keys read back for a state whose plain hash an earlier
  /// key on the same thread had, instead of built.
  std::uint64_t raw_revisits{0};
  /// Section signature memos shared from a node with equal content
  /// instead of built.
  std::uint64_t memo_reuses{0};
  /// Serializer runs those keys took, counting each component (or, in the
  /// signature passes, each switch part) serialized once as one run.
  std::uint64_t component_serializations{0};
};

/// Placeholder identities of the member-signature passes: the tagged
/// member maps to TAG, every other member of its orbit to a shared BOTTOM.
/// All values lie outside the ranges real identifiers take (MACs are
/// 48-bit, IPs 32-bit, host/port ids small dense ints, flow ids
/// scenario-assigned small ints), so a placeholder never aliases a
/// non-orbit identifier. A member's e-th script flow maps to base + e.
namespace sig {
inline constexpr std::uint64_t kTagMac = 0xffffffffffff0001ULL;
inline constexpr std::uint64_t kBotMac = 0xffffffffffff0002ULL;
inline constexpr std::uint64_t kTagIp = 0xffffffff00000001ULL;
inline constexpr std::uint64_t kBotIp = 0xffffffff00000002ULL;
inline constexpr std::uint32_t kTagHost = 0xffffff01u;
inline constexpr std::uint32_t kBotHost = 0xffffff02u;
inline constexpr std::uint32_t kTagPort = 0xffffff01u;
inline constexpr std::uint32_t kBotPort = 0xffffff02u;
inline constexpr std::uint32_t kTagFlowBase = 0xff000000u;
inline constexpr std::uint32_t kBotFlowBase = 0xfe000000u;
}  // namespace sig

/// Compiled, validated symmetry declaration for one search. Built once by
/// the Checker from SystemConfig::symmetry_orbits; const and shared across
/// worker threads (the per-canonicalization Renamer is thread-local).
class SymContext {
 public:
  /// Validates every declared orbit against the topology, host behaviours
  /// and scripts; throws std::invalid_argument when members are not
  /// actually interchangeable (different attach switch, mobile hosts,
  /// behaviour-flag or script-shape mismatches, scripts that are not equal
  /// modulo the member renaming, inconsistent flow-id correspondence) or
  /// an orbit has more than kMaxOrbitMembers members.
  explicit SymContext(const SystemConfig& cfg);

  /// A section's signature memo records its hit members in one 64-bit
  /// mask.
  static constexpr std::size_t kMaxOrbitMembers = 64;

  /// The canonical key of `state`: pick a representative orbit permutation
  /// by structural signature, then serialize the permuted, renamed,
  /// uid-renumbered state. `table` must be the search's collapse table in
  /// kCollapsed mode (per-component interning; key = packed id tuple) and
  /// nullptr otherwise (key = the blob itself).
  [[nodiscard]] SymKey canonical_key(const SystemState& state,
                                     util::CollapseTable* table) const;

  /// canonical_key(state, nullptr).hash, without copying out the blob
  /// (the hash-mode store keeps only the hash). The key is a function of
  /// the state's plain canonical bytes, so it is read back from this
  /// thread's table of recent keys when state.hash() matches an entry,
  /// trusting the 128-bit hash as the hash-mode store does.
  [[nodiscard]] util::Hash128 canonical_hash(const SystemState& state) const;

  /// Rewrite orbit-member identifiers inside a violation message to
  /// orbit-slot placeholders, so violation *sets* can be compared between
  /// symmetry-on and symmetry-off searches (the unsymmetrized search
  /// reports one message per member, the reduced search one per orbit).
  [[nodiscard]] std::string canonicalize_violation(std::string msg) const;

  /// The discrimination signatures canonical_key ranks orbit `orbit`'s
  /// members by, in member (ascending host-index) order. Member j's
  /// signature is the controller, switch, host and property-monitor
  /// serialization with j's identifiers mapped to TAG, the other members
  /// of the orbit to BOTTOM, uids elided, and the orbit's host components
  /// emitted as a sorted multiset. It is invariant under relabelings of
  /// the other members, so equal-signature members are interchangeable in
  /// this state and any rank tie-break is harmless.
  [[nodiscard]] std::vector<std::string> member_signatures(
      const SystemState& state, std::size_t orbit) const;

  /// The signature memo section `section` of `state` holds for orbit
  /// `orbit`, or nullptr (test hook). Sections are numbered as in the
  /// serialization: the controller, each switch's kSerializeParts parts,
  /// each host, each property monitor.
  [[nodiscard]] const util::SigMemo* find_section_memo(
      const SystemState& state, std::size_t orbit, std::size_t section) const;

  [[nodiscard]] std::uint32_t orbit_count() const {
    return static_cast<std::uint32_t>(orbits_.size());
  }
  [[nodiscard]] std::uint32_t orbit_host_count() const;
  [[nodiscard]] std::uint64_t canonicalizations() const {
    return canonicalizations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t component_serializations() const {
    return component_serializations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t raw_revisits() const {
    return raw_revisits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t memo_reuses() const {
    return memo_reuses_.load(std::memory_order_relaxed);
  }
  /// Whether next_uid is part of the canonical key (it must be whenever a
  /// host's sends *consume* it semantically — discovery sends use it as
  /// the flow id — and is allocation-history noise otherwise).
  [[nodiscard]] bool includes_next_uid() const { return include_next_uid_; }

 private:
  /// One interchangeable host, with every packet-visible identifier the
  /// renaming has to cover.
  struct Member {
    std::uint32_t host_index{0};  // == of::HostId == SystemState host slot
    std::uint64_t mac{0};
    std::uint64_t ip{0};
    of::SwitchId sw{0};
    of::PortId port{0};
    /// flow ids in script order (the positional flow correspondence).
    std::vector<std::uint32_t> flows;
  };
  struct Orbit {
    std::vector<Member> members;  // in ascending host-index order
  };

  struct Scratch;
  static Scratch& scratch();  // this thread's

  /// Points `sc` at every section's memo for orbit `o`, sharing one
  /// built from equal content or building those that are missing, and
  /// lays out each member's signature in sc.lists as one view per
  /// section, its orbit-host slots sorted. Adds the serializer runs to
  /// `runs` and the memos shared to `reuses`.
  void signatures(const SystemState& state, std::size_t o, Scratch& sc,
                  std::uint64_t& runs, std::uint64_t& reuses) const;

  [[nodiscard]] util::SigMemo::Key memo_key(std::size_t o,
                                            std::size_t i) const {
    return {id_, static_cast<std::uint32_t>(o), static_cast<std::uint32_t>(i)};
  }

  /// Section i's signature memo for orbit `o`, built from its live bytes
  /// under the signature renamer; adds the serializer runs to `runs`.
  util::SigMemo::Ref build_memo(const SystemState& state, std::size_t o,
                                std::size_t i, Scratch& sc,
                                std::uint64_t& runs) const;

  /// The canonical blob of `state`, in sc.blob (component bounds in
  /// sc.bounds).
  void canonical_blob(const SystemState& state, Scratch& sc) const;

  template <typename Component>
  void serialize_whole(const SystemState& state, util::Ser& s,
                       const std::vector<std::uint32_t>& host_emit_order,
                       Component&& component) const;

  const SystemConfig* cfg_;
  /// Unique among every SymContext of the process: keys its memos.
  std::uint64_t id_;
  bool canonical_;
  bool include_next_uid_;
  std::vector<Orbit> orbits_;
  mutable std::atomic<std::uint64_t> canonicalizations_{0};
  mutable std::atomic<std::uint64_t> component_serializations_{0};
  mutable std::atomic<std::uint64_t> raw_revisits_{0};
  mutable std::atomic<std::uint64_t> memo_reuses_{0};
};

}  // namespace nicemc::mc

#endif  // NICE_MC_SYM_REDUCE_H
