#include "mc/discover.h"

#include <algorithm>
#include <string_view>

namespace nicemc::mc {

namespace {

std::string_view ser_view(const util::Ser& s) {
  const auto b = s.bytes();
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace

void DiscoveryCache::packets_key(util::Ser& key, const SystemState& state,
                                 of::HostId host) const {
  key.put_u8('P');
  const hosts::HostState& hs = state.host(host);
  key.put_u32(host);
  key.put_u32(static_cast<std::uint32_t>(hs.sw));
  key.put_u32(static_cast<std::uint32_t>(hs.port));
  state.put_app_key(key, ids_);
}

void DiscoveryCache::stats_key(util::Ser& key, const SystemState& state,
                               of::SwitchId sw) const {
  key.put_u8('S');
  key.put_u32(sw);
  state.put_app_key(key, ids_);
  // The exact symbolic seeds discover_stats registers per port.
  const of::Switch& swm = state.sw(sw);
  for (const of::PortId p : swm.ports()) {
    const auto it = swm.port_stats().find(p);
    key.put_u32(p);
    key.put_u64(it == swm.port_stats().end()
                    ? 0
                    : (it->second.tx_bytes & 0xffffffffULL));
  }
}

void DiscoveryCache::count(const DiscoveryStats& run) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  packet_discoveries_.fetch_add(run.packet_discoveries, kRelaxed);
  stats_discoveries_.fetch_add(run.stats_discoveries, kRelaxed);
  handler_runs_.fetch_add(run.handler_runs, kRelaxed);
  solver_queries_.fetch_add(run.solver_queries, kRelaxed);
  packets_found_.fetch_add(run.packets_found, kRelaxed);
}

DiscoveryStats DiscoveryCache::stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  DiscoveryStats s;
  s.packet_discoveries = packet_discoveries_.load(kRelaxed);
  s.stats_discoveries = stats_discoveries_.load(kRelaxed);
  s.handler_runs = handler_runs_.load(kRelaxed);
  s.solver_queries = solver_queries_.load(kRelaxed);
  s.packets_found = packets_found_.load(kRelaxed);
  return s;
}

std::shared_ptr<const DiscoveryCache::Packets> DiscoveryCache::packets(
    const SystemConfig& cfg, const SystemState& state, of::HostId host) {
  thread_local util::Ser key;  // clear() keeps capacity across calls
  key.clear();
  packets_key(key, state, host);
  if (auto hit = table_.find(ser_view(key))) {
    return std::static_pointer_cast<const Packets>(hit);
  }
  DiscoveryStats run;
  auto found = std::make_shared<const Packets>(
      discover_packets(cfg, state, host, run));
  count(run);
  table_.insert(ser_view(key), found,
                found->size() * sizeof(sym::PacketFields) + sizeof(Packets));
  return found;
}

std::shared_ptr<const DiscoveryCache::StatsClasses>
DiscoveryCache::stats_classes(const SystemConfig& cfg,
                              const SystemState& state, of::SwitchId sw) {
  thread_local util::Ser key;
  key.clear();
  stats_key(key, state, sw);
  if (auto hit = table_.find(ser_view(key))) {
    return std::static_pointer_cast<const StatsClasses>(hit);
  }
  DiscoveryStats run;
  auto found = std::make_shared<const StatsClasses>(
      discover_stats(cfg, state, sw, run));
  count(run);
  std::size_t bytes = sizeof(StatsClasses);
  for (const StatsValues& v : *found) {
    bytes += sizeof(v) + v.size() * sizeof(StatsValues::value_type);
  }
  table_.insert(ser_view(key), found, bytes);
  return found;
}

std::vector<sym::PacketFields> discover_packets(const SystemConfig& cfg,
                                                const SystemState& state,
                                                of::HostId host,
                                                DiscoveryStats& stats) {
  const topo::HostSpec& spec = cfg.topology->host(host);
  const hosts::HostState& hs = state.host(host);

  sym::Concolic engine(cfg.concolic);

  // Seed packet: the host's own identity, destination = the first other
  // host (or broadcast if alone). Any in-domain seed works; this one makes
  // the first explored path a "normal" unicast.
  sym::PacketFields seed;
  seed.eth_src = spec.mac;
  seed.ip_src = spec.ip;
  seed.eth_dst = of::kBroadcastMac;
  seed.ip_dst = spec.ip;
  for (const topo::HostSpec& other : cfg.topology->hosts()) {
    if (other.id != host) {
      seed.eth_dst = other.mac;
      seed.ip_dst = other.ip;
      break;
    }
  }
  seed.eth_type = of::kEthTypeIpv4;
  seed.ip_proto = of::kIpProtoTcp;
  seed.tp_src = 1024;
  seed.tp_dst = 80;
  seed.tcp_flags = of::kTcpSyn;

  const sym::SymPacketVars vars = sym::SymPacketVars::register_with(
      engine, seed);
  sym::PacketDomain domain = cfg.topology->packet_domain(
      cfg.extra_domain_ips, cfg.extra_domain_ports);
  domain.apply(engine, vars);
  if (cfg.constrain_src_to_sender) {
    engine.restrict_to(vars.eth_src, {spec.mac});
    engine.restrict_to(vars.ip_src, {spec.ip});
  }

  // Context: the client's current <switch, input port> location (Figure 4).
  const of::SwitchId sw = hs.sw;
  const of::PortId port = hs.port;
  const ctrl::AppState& base = *state.ctrl().app;

  const auto results = engine.explore([&](const sym::Inputs& in) {
    // Fresh clone of the concrete controller state per run (handlers may
    // mutate it; mutations must not leak across path explorations).
    std::unique_ptr<ctrl::AppState> st = base.clone();
    std::uint32_t xid = 1;
    ctrl::Ctx ctx(&xid);
    cfg.app->packet_in(*st, ctx, sw, port, vars.bind(in), /*buffer_id=*/1,
                       of::PacketIn::Reason::kNoMatch);
    // Commands are discarded: discovery only observes control flow.
  });

  ++stats.packet_discoveries;
  stats.handler_runs += engine.stats().runs;
  stats.solver_queries += engine.stats().solver_queries;

  std::vector<sym::PacketFields> packets;
  packets.reserve(results.size());
  for (const sym::Assignment& asg : results) {
    packets.push_back(vars.materialize(asg));
  }
  // De-duplicate representatives (two paths can share one witness packet
  // when a later branch does not constrain the inputs further).
  std::sort(packets.begin(), packets.end());
  packets.erase(std::unique(packets.begin(), packets.end()), packets.end());
  stats.packets_found += packets.size();
  return packets;
}

std::vector<StatsValues> discover_stats(const SystemConfig& cfg,
                                        const SystemState& state,
                                        of::SwitchId sw,
                                        DiscoveryStats& stats) {
  const of::Switch& swm = state.sw(sw);
  sym::Concolic engine(cfg.concolic);

  std::vector<std::pair<of::PortId, sym::VarHandle>> port_vars;
  port_vars.reserve(swm.ports().size());
  for (of::PortId p : swm.ports()) {
    const auto it = swm.port_stats().find(p);
    const std::uint64_t initial =
        it == swm.port_stats().end() ? 0 : (it->second.tx_bytes & 0xffffffffULL);
    port_vars.emplace_back(
        p, engine.add_var("tx_bytes_p" + std::to_string(p), 32, initial));
  }

  const ctrl::AppState& base = *state.ctrl().app;
  const auto results = engine.explore([&](const sym::Inputs& in) {
    std::unique_ptr<ctrl::AppState> st = base.clone();
    std::uint32_t xid = 1;
    ctrl::Ctx ctx(&xid);
    ctrl::SymStats sym_stats;
    for (const auto& [p, vh] : port_vars) {
      sym_stats.tx_bytes.emplace(p, in[vh]);
    }
    cfg.app->stats_in(*st, ctx, sw, sym_stats);
  });

  ++stats.stats_discoveries;
  stats.handler_runs += engine.stats().runs;
  stats.solver_queries += engine.stats().solver_queries;

  std::vector<StatsValues> out;
  out.reserve(results.size());
  for (const sym::Assignment& asg : results) {
    StatsValues v;
    for (const auto& [p, vh] : port_vars) {
      v.emplace_back(p, asg[vh.id]);
    }
    out.push_back(std::move(v));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace nicemc::mc
