// Ready-made experiment scenarios: the exact topologies, host models,
// application configurations and properties used by the paper's evaluation
// (Sections 7 and 8). Tests, examples and benchmarks all build on these.
#ifndef NICE_APPS_SCENARIOS_H
#define NICE_APPS_SCENARIOS_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/loadbalancer.h"
#include "apps/pyswitch.h"
#include "apps/respond_te.h"
#include "ctrl/app.h"
#include "mc/checker.h"
#include "mc/property.h"
#include "mc/strategy.h"
#include "mc/system.h"
#include "topo/topology.h"

namespace nicemc::apps {

/// A self-contained, movable bundle: topology + app + model configuration +
/// properties. `config` holds pointers into the heap-allocated topology and
/// app, so moving the Scenario is safe.
struct Scenario {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<ctrl::App> app;
  mc::SystemConfig config;
  mc::PropertyList properties;
  /// Interchangeable-host orbits (host indices), e.g. {{0,1,2}} for three
  /// identical clients. Copied into config.symmetry_orbits by the scenario
  /// factories; acted on only when CheckerOptions::symmetry is set, and
  /// validated then by mc::SymContext.
  std::vector<std::vector<of::HostId>> symmetry;
};

/// Apply a search strategy to a scenario + checker options pair (NO-DELAY
/// changes execution semantics, the others filter transitions).
void set_strategy(Scenario& s, mc::CheckerOptions& options,
                  mc::Strategy strategy);

// --- Section 7 (performance evaluation) ---

/// Figure 1 topology: host A — SW0 — SW1 — host B, pyswitch controller.
/// A sends `pings` concurrent layer-2 pings, B echoes. Scripted sends,
/// symbolic execution off — the Table 1 / Figure 6 workload.
/// `canonical_tables = false` gives the NO-SWITCH-REDUCTION baseline.
Scenario pyswitch_ping_chain(int pings, bool canonical_tables = true);

// --- Section 8.1: pyswitch bugs ---

/// BUG-I: A streams to mobile host B on one switch; B moves; the learned
/// rule keeps forwarding to the old port. Property: NoBlackHoles.
Scenario pyswitch_bug1(PySwitchOptions options = {});

/// BUG-II: one switch, A and B; only the sender→destination rule is
/// installed. Property: StrictDirectPaths.
Scenario pyswitch_bug2(PySwitchOptions options = {});

/// BUG-III: 3-switch cycle; flooding loops. Property: NoForwardingLoops.
Scenario pyswitch_bug3(PySwitchOptions options = {});

// --- Section 8.2: load balancer bugs ---

struct LbScenarioOptions {
  bool fix_release_packet{false};         // BUG-IV fixed
  bool fix_install_before_delete{false};  // BUG-V fixed
  bool fix_discard_arp{false};            // BUG-VI fixed
  bool fix_check_assignments{false};      // BUG-VII fixed
  bool client_sends_arp{false};           // include an ARP request (BUG-VI)
  bool replica_sends_arp{false};          // server-generated ARP (BUG-VI)
  bool client_can_dup_syn{false};         // duplicate SYN (BUG-VII)
  int data_segments{1};
  bool check_flow_affinity{false};        // property set for BUG-VII
};

/// One switch, one client, two replicas behind a virtual IP.
Scenario lb_scenario(const LbScenarioOptions& options);

// --- Section 8.3: traffic-engineering bugs ---

struct TeScenarioOptions {
  bool fix_release_packet{false};       // BUG-VIII fixed
  bool fix_handle_intermediate{false};  // BUG-IX fixed
  bool fix_per_flow_table{false};       // BUG-X fixed
  bool fix_lookup_all_tables{false};    // BUG-XI fixed
  bool react_to_port_status{false};     // route around failed links
  std::uint32_t stats_rounds{0};        // port-stats query budget
  bool check_routing_table{false};      // property set for BUG-X
  bool check_stale_rules{false};        // property set for link failures
  int flows{1};                         // concurrent flows from the sender
};

/// Triangle topology: ingress S0 (sender), egress S1 (two receivers),
/// on-demand switch S2.
Scenario te_scenario(const TeScenarioOptions& options);

// --- Fault-injection scenarios (bounded environment faults) ---

/// Figure 1 ping chain under a bounded link failure (budget 1, repair
/// enabled). Property: NoBlackHoles — violated *only* when the fault
/// fires (a flooded/forwarded copy dies at the failed port), which makes
/// this the fault-only-violation regression scenario. `react` turns on
/// the MAC-flush port-status reaction (same property; exercises the
/// OFPT_PORT_STATUS dispatch path).
Scenario pyswitch_linkfail(bool react = false);

/// Ping chain under bounded controller-channel loss (budget 1).
/// NoBlackHoles holds across the disconnect and the handshake replay.
Scenario pyswitch_ctrlloss();

/// Ping chain under a bounded switch restart (budget 1). NoBlackHoles
/// holds across the wipe: buffered packets count as consumed, and the
/// rejoin handshake restores the controller's view.
Scenario pyswitch_restart();

/// Load balancer with the replicas behind two access switches, each on
/// its own front-switch uplink, under a bounded link failure with repair
/// off. Property: NoStaleRules — holds iff the app re-steers the wildcard
/// rules on OFPT_PORT_STATUS (`react`).
Scenario lb_linkfail(bool react);

/// TE triangle under a bounded link failure with repair off. Property:
/// NoStaleRules — holds iff the app re-routes established flows and
/// routes new ones around the failure (`react`).
Scenario te_linkfail(bool react);

// --- Symmetric multi-client families (the "millions of users" lever) ---

/// Single pyswitch switch, `clients` identical hosts (ports 1..k) each
/// pinging one echo server (port k+1) with identical scripts modulo
/// their own MAC/IP/flow id. Declares all clients as one symmetry orbit:
/// with CheckerOptions::symmetry the search merges the k! role
/// permutations. Property: DirectPaths.
Scenario sym_ping_scenario(int clients);

/// Load balancer with `clients` identical clients behind the virtual IP
/// (all client IPs share the `(ip >> 31) & 1` bucket, so every client maps
/// to the same replica set deterministically). One symmetry orbit over the
/// clients. `fixed = false` leaves the Section 8.2 bugs live, so the
/// scenario violates NoForgottenPackets — the differential tests use it to
/// compare violation *sets* between symmetry on and off.
Scenario lb_sym_scenario(int clients, bool fixed = true);

/// TE triangle with `clients` identical senders on the ingress switch,
/// one flow each to the first receiver. One symmetry orbit over the
/// senders. Property: NoBlackHoles.
Scenario te_sym_scenario(int clients);

// --- Bundled scenario registry ---

/// A named, repeatably-constructible experiment preset. The factory
/// returns a fresh Scenario each call (Scenario owns its topology/app, so
/// sweeps that run one scenario several times rebuild it per run).
struct NamedScenario {
  std::string name;
  std::function<Scenario()> make;
};

/// Every bundled experiment preset across the paper's evaluation:
/// pyswitch ping chains (canonical + raw-table baseline), BUG-I–III, the
/// load balancer presets (all-fixed, all-bugs-live, BUG-VII flow
/// affinity), and the traffic-engineering presets (BUG-VIII,
/// BUG-X routing table). This is the sweep surface of the reduction
/// differential test and the pinned kSleep counts (tests/mc/test_por.cpp),
/// and of the three-store sweep (tests/mc/test_collapse_modes.cpp).
std::vector<NamedScenario> bundled_scenarios();

}  // namespace nicemc::apps

#endif  // NICE_APPS_SCENARIOS_H
