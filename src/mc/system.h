// System model: configuration + the complete, hashable system state
// (controller, switches, hosts, channels, property monitors) of paper
// Section 2.2.
//
// SystemState is copy-on-write: each component lives in a shared immutable
// snapshot (util::Snap), so clone() is O(#components) pointer copies and a
// transition deep-copies only the components it actually touches — through
// the explicit *_mut() accessors. Each snapshot memoizes its canonical
// serialization and hash, so hashing a child state re-serializes only the
// components that changed since the parent. A switch goes one level finer:
// its snapshot is a shell over four copy-on-write section parts
// (of::Switch), so sw_mut() copies the shell, the switch's mutators copy
// only the sections they write, and its hash re-serializes only those.
// See ARCHITECTURE.md ("state pipeline").
#ifndef NICE_MC_SYSTEM_H
#define NICE_MC_SYSTEM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/app.h"
#include "util/collapse.h"
#include "ctrl/controller.h"
#include "hosts/host.h"
#include "mc/property.h"
#include "of/switch.h"
#include "sym/concolic.h"
#include "topo/topology.h"
#include "util/hash.h"
#include "util/ser.h"
#include "util/snap.h"

namespace nicemc::mc {

/// Sentinel fault cap: the class is not budgeted at all — its counter is
/// never incremented (and never splits states), restoring the legacy
/// unbounded-fault behaviour. Searches with an unbounded cap may not
/// terminate; that is the caller's deliberate choice.
inline constexpr std::uint32_t kUnboundedFaults = 0xffffffffu;

/// Static model configuration — everything that stays fixed during a
/// search. Owned by the caller; the checker and executor hold pointers.
struct SystemConfig {
  const topo::Topology* topology{nullptr};
  const ctrl::App* app{nullptr};
  /// Per-host behaviour, parallel to topology->hosts().
  std::vector<hosts::HostBehavior> host_behavior;

  /// Enable discover_packets / discover_stats (Sections 3.3 and Figure 5).
  bool symbolic_discovery{true};
  /// Canonical flow-table representation (Section 2.2.2); false gives the
  /// NO-SWITCH-REDUCTION baseline of Table 1.
  bool canonical_flowtables{true};
  /// NO-DELAY strategy: controller↔switch communication is atomic
  /// (lock-step); finds design errors but misses race conditions.
  bool no_delay{false};
  /// FINE-INTERLEAVING baseline: each command a handler emits becomes an
  /// individually interleavable transition (JPF-thread-like granularity).
  bool fine_interleaving{false};
  /// Enable nondeterministic expiry transitions for rules with timeouts.
  bool enable_rule_expiry{false};
  /// Enable drop/duplicate fault transitions on ingress packet channels.
  bool enable_channel_faults{false};

  // ---- bounded fault-injection layer (paper Sections 2.2 and 4:
  // environment faults as explicit transitions, capped per execution) ----
  /// Enable kLinkDown/kLinkUp on every topology link.
  bool enable_link_faults{false};
  /// Allow failed links to repair (kLinkUp). With repair on, quiescent
  /// states only exist with all links up; turn it off to model permanent
  /// failures and check quiescent-state properties like NoStaleRules.
  bool enable_link_repair{true};
  /// Enable kCtrlChannelDown/kCtrlChannelUp per switch.
  bool enable_ctrl_channel_faults{false};
  /// Enable kSwitchRestart per switch.
  bool enable_switch_restarts{false};
  /// Per-execution fault caps (see FaultBudget). kUnboundedFaults removes
  /// the cap for that class.
  std::uint32_t max_link_failures{1};
  std::uint32_t max_channel_losses{1};
  std::uint32_t max_switch_restarts{1};
  /// Cap folding in the pre-existing per-packet drop/dup faults, which were
  /// historically unbounded (kUnboundedFaults keeps them that way).
  std::uint32_t max_packet_faults{2};
  /// kChannelDupHead never grows an ingress channel past this depth, even
  /// under an unbounded packet-fault budget.
  std::size_t channel_depth_limit{8};

  std::size_t switch_buffer_capacity{64};
  /// Bound on stats request/reply rounds (keeps the state space finite).
  std::uint32_t max_stats_rounds{1};
  /// Constrain discovered packets to carry the sending host's own MAC/IP
  /// as source (domain knowledge; disable to explore spoofed sources).
  bool constrain_src_to_sender{true};
  sym::ConcolicConfig concolic;
  /// Extra candidate values for the packet-field domains (e.g. the load
  /// balancer's virtual IP / service port).
  std::vector<std::uint64_t> extra_domain_ips;
  std::vector<std::uint64_t> extra_domain_ports;

  /// Interchangeable-host orbits for symmetry reduction: each inner vector
  /// lists host indices that are behaviourally identical up to their
  /// identifiers (MAC, IP, attach port, script flow ids). Declared by the
  /// scenario (apps::Scenario::symmetry), validated by mc::SymContext, and
  /// only acted on when CheckerOptions::symmetry is set.
  std::vector<std::vector<of::HostId>> symmetry_orbits;
};

/// Per-execution fault consumption, carried inside SystemState so it
/// collapses/checkpoints/hashes with everything else and enabled() stays a
/// pure function of the state: a fault transition is enabled iff its class
/// counter is below the configured cap. Classes capped at kUnboundedFaults
/// never increment their counter (legacy behaviour, identical state space).
struct FaultBudget {
  std::uint32_t link_failures{0};
  std::uint32_t channel_losses{0};
  std::uint32_t switch_restarts{0};
  std::uint32_t packet_faults{0};

  friend bool operator==(const FaultBudget&, const FaultBudget&) = default;
  void serialize(util::Ser& s) const {
    s.put_u32(link_failures);
    s.put_u32(channel_losses);
    s.put_u32(switch_restarts);
    s.put_u32(packet_faults);
  }
};

/// The complete system state. Components are held in shared copy-on-write
/// snapshots; reads go through the const accessors, mutations through the
/// explicit *_mut() accessors (which unshare and invalidate the memoized
/// serialization of exactly that component).
struct SystemState {
  std::uint32_t next_uid{1};
  std::uint32_t next_copy{1};
  FaultBudget faults;

  SystemState() = default;
  SystemState(SystemState&&) noexcept = default;
  SystemState& operator=(SystemState&&) noexcept = default;
  SystemState(const SystemState&) = delete;
  SystemState& operator=(const SystemState&) = delete;

  /// O(#components): shares every component snapshot with the clone.
  [[nodiscard]] SystemState clone() const;

  // --- construction (used by Executor::make_initial and tests) ---
  void add_switch(of::Switch sw) {
    switches_.emplace_back(util::Snap<of::Switch>(std::move(sw)));
  }
  void add_host(hosts::HostState hs) {
    hosts_.emplace_back(util::Snap<hosts::HostState>(std::move(hs)));
  }
  void add_prop(std::unique_ptr<PropState> ps) {
    props_.emplace_back(util::Snap<PropSlot>(PropSlot(std::move(ps))));
  }

  // --- reads (never copy) ---
  [[nodiscard]] const ctrl::ControllerState& ctrl() const noexcept {
    return ctrl_.get();
  }
  [[nodiscard]] const of::Switch& sw(std::size_t i) const noexcept {
    return switches_[i].get();
  }
  [[nodiscard]] const hosts::HostState& host(std::size_t i) const noexcept {
    return hosts_[i].get();
  }
  [[nodiscard]] const PropState& prop(std::size_t i) const noexcept {
    return *props_[i].get().state;
  }
  [[nodiscard]] std::size_t switch_count() const noexcept {
    return switches_.size();
  }
  [[nodiscard]] std::size_t host_count() const noexcept {
    return hosts_.size();
  }
  [[nodiscard]] std::size_t prop_count() const noexcept {
    return props_.size();
  }
  [[nodiscard]] util::SnapListView<of::Switch> switches() const noexcept {
    return util::SnapListView<of::Switch>(switches_);
  }
  [[nodiscard]] util::SnapListView<hosts::HostState> hosts() const noexcept {
    return util::SnapListView<hosts::HostState>(hosts_);
  }

  // --- mutate-on-write accessors ---
  [[nodiscard]] ctrl::ControllerState& ctrl_mut() { return ctrl_.mut(); }
  [[nodiscard]] of::Switch& sw_mut(std::size_t i) {
    return switches_[i].mut();
  }
  [[nodiscard]] hosts::HostState& host_mut(std::size_t i) {
    return hosts_[i].mut();
  }
  [[nodiscard]] PropState& prop_mut(std::size_t i) {
    return *props_[i].mut().state;
  }

  // --- the symmetry layer's member-signature memos (util::SigMemo) ---
  // A switch's are per section: sw(i).part_sig_memo(part).
  [[nodiscard]] util::SigMemoSlot& ctrl_sig_memo() const noexcept {
    return ctrl_.sig_memo();
  }
  [[nodiscard]] util::SigMemoSlot& host_sig_memo(
      std::size_t i) const noexcept {
    return hosts_[i].sig_memo();
  }
  [[nodiscard]] util::SigMemoSlot& prop_sig_memo(
      std::size_t i) const noexcept {
    return props_[i].sig_memo();
  }
  // The memoized form hashes that file a section's memos by content; a
  // switch's are per section: sw(i).part_hash(part, canonical).
  [[nodiscard]] util::Hash128 ctrl_form_hash(bool canonical) const {
    return ctrl_.form_hash(canonical);
  }
  [[nodiscard]] util::Hash128 host_form_hash(std::size_t i,
                                             bool canonical) const {
    return hosts_[i].form_hash(canonical);
  }
  [[nodiscard]] util::Hash128 prop_form_hash(std::size_t i,
                                             bool canonical) const {
    return props_[i].form_hash(canonical);
  }

  // --- sharing introspection (test hooks) ---
  [[nodiscard]] bool shares_ctrl(const SystemState& o) const noexcept {
    return ctrl_.same_snapshot(o.ctrl_);
  }
  [[nodiscard]] bool shares_switch(const SystemState& o,
                                   std::size_t i) const noexcept {
    return switches_[i].same_snapshot(o.switches_[i]);
  }
  /// Switch i's section `part` (of::Switch::kSerializeParts) is the
  /// identical copy-on-write part in both states.
  [[nodiscard]] bool shares_switch_part(const SystemState& o, std::size_t i,
                                        std::size_t part) const {
    return sw(i).shares_part(o.sw(i), part);
  }
  [[nodiscard]] bool shares_host(const SystemState& o,
                                 std::size_t i) const noexcept {
    return hosts_[i].same_snapshot(o.hosts_[i]);
  }
  [[nodiscard]] bool shares_prop(const SystemState& o,
                                 std::size_t i) const noexcept {
    return props_[i].same_snapshot(o.props_[i]);
  }

  /// Canonical byte serialization — identical bytes to serializing every
  /// component in place, but assembled from the memoized per-component
  /// forms with bulk appends.
  void serialize(util::Ser& s, bool canonical_tables) const;

  /// The fields after the components in every byte form of a state key:
  /// next_uid if `include_next_uid` (symmetry drops it where it is not
  /// semantic), the consumed fault budget, then the raw copy-id counter,
  /// or in the canonical form the target switch's name for each parked
  /// FINE-INTERLEAVING packet_out's buffer id.
  void serialize_trailer(util::Ser& s, bool canonical,
                         bool include_next_uid) const;

  /// COLLAPSE-mode state key: intern every component's canonical form in
  /// `table` (via Snap::form_id — one serialize+intern pass, no bytes
  /// pinned on the snapshots) and pack the resulting component ids, the
  /// component counts and the trailing counters into a fixed-layout byte
  /// string. The layout mirrors serialize(), so two states have equal id
  /// tuples exactly when their canonical serializations are byte-identical
  /// — a collision-proof state key at ~4 bytes per component. Memoizes
  /// each component's form hash as a side effect, making a following
  /// hash() call free.
  [[nodiscard]] std::string collapse_key(util::CollapseTable& table,
                                         bool canonical_tables) const;

  /// 128-bit state hash combined from the memoized per-component hashes —
  /// only components mutated since the parent state are re-serialized, and
  /// of a switch only the sections its transitions wrote (a switch's hash
  /// is itself util::hash128_combine over its four section hashes, in
  /// section order; of::Switch::hash). Reading a memoized component hash
  /// takes no lock. NOTE: this is a hash of the canonical bytes' component
  /// and section structure, not util::hash128 over the concatenated bytes;
  /// equal serializations still imply equal hashes and vice versa (up to
  /// negligible collisions).
  [[nodiscard]] util::Hash128 hash(bool canonical_tables) const;

  /// Hash of the controller application state only — key of the
  /// discovered-packets cache (`client.packets[state(ctrl)]`, Figure 5).
  /// Memoized on the controller snapshot.
  [[nodiscard]] util::Hash128 ctrl_hash() const {
    return ctrl_.projection_hash(
        [](const ctrl::ControllerState& c) { return c.app_hash(); });
  }

  // --- interned component ids (memo-layer keys; see util/memo.h) ---
  // Passthroughs to Snap::form_id: dense ids whose equality is byte
  // equality of the component's serialization, memoized per (table,
  // epoch) on the shared snapshot. In kCollapsed mode the search's own
  // collapse_key() interning warms these memos, so the memo layer reads
  // them back for free.
  [[nodiscard]] std::uint32_t sw_id(std::size_t i, bool canonical,
                                    util::CollapseTable& table) const {
    return switches_[i].form_id(canonical, table);
  }
  // Memoized per-component form hash (Snap::form_hash) — the memo
  // layer's key fallback in the non-collapsed store modes, where the
  // search already hashes every component to remember the state, so
  // this is a warm read rather than a fresh serialization.
  [[nodiscard]] util::Hash128 sw_form_hash(std::size_t i,
                                           bool canonical) const {
    return switches_[i].form_hash(canonical);
  }
  /// Interned id of the controller *application* state alone — the exact
  /// projection app_hash() hashes, but collision-proof. Key of the shared
  /// discovery memo (the paper's `client.packets[state(ctrl)]` index).
  [[nodiscard]] std::uint32_t app_state_id(util::CollapseTable& table) const {
    return ctrl_.projection_id(
        table, [](const ctrl::ControllerState& c, util::Ser& s) {
          if (c.app) c.app->serialize(s);
        });
  }
  /// The application state's identity as memo-key bytes: app_state_id
  /// when an interning table is given (kCollapsed), else the two words of
  /// ctrl_hash(). Shared by the discovery cache and the footprint memo.
  void put_app_key(util::Ser& key, util::CollapseTable* ids) const {
    if (ids != nullptr) {
      key.put_u32(app_state_id(*ids));
    } else {
      const util::Hash128 h = ctrl_hash();
      key.put_u64(h.lo);
      key.put_u64(h.hi);
    }
  }

  /// Total packets parked in switch buffers (NoForgottenPackets).
  [[nodiscard]] std::size_t total_forgotten() const;

 private:
  void serialize_parked_buffers(util::Ser& s) const;

  util::Snap<ctrl::ControllerState> ctrl_;
  std::vector<util::Snap<of::Switch>> switches_;
  std::vector<util::Snap<hosts::HostState>> hosts_;
  std::vector<util::Snap<PropSlot>> props_;
};

}  // namespace nicemc::mc

#endif  // NICE_MC_SYSTEM_H
