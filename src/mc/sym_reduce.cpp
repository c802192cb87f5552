#include "mc/sym_reduce.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "util/ser.h"
#include "util/strings.h"

namespace nicemc::mc {

namespace {

[[noreturn]] void invalid(const std::string& why) {
  throw std::invalid_argument("symmetry orbit: " + why);
}

/// Replace every occurrence of `needle` in `s` with `with`.
void replace_all(std::string& s, const std::string& needle,
                 const std::string& with) {
  if (needle.empty()) return;
  std::size_t pos = 0;
  while ((pos = s.find(needle, pos)) != std::string::npos) {
    s.replace(pos, needle.size(), with);
    pos += with.size();
  }
}

/// Signature sections, in serialization order: the controller, every
/// switch part, every host, every property monitor.
std::size_t first_host_section(const SystemState& st) {
  return 1 + st.switch_count() * of::Switch::kSerializeParts;
}
std::size_t section_count(const SystemState& st) {
  return first_host_section(st) + st.host_count() + st.prop_count();
}

void emit_section(const SystemState& st, bool canonical, std::size_t i,
                  util::Ser& s) {
  const std::size_t parts = of::Switch::kSerializeParts;
  const std::size_t first_host = first_host_section(st);
  if (i == 0) {
    st.ctrl().serialize(s, canonical);
  } else if (i < first_host) {
    st.sw((i - 1) / parts).serialize_part(s, canonical, (i - 1) % parts);
  } else if (i < first_host + st.host_count()) {
    st.host(i - first_host).serialize(s, canonical);
  } else {
    st.prop(i - first_host - st.host_count()).serialize(s);
  }
}

std::string_view slice(const util::Ser& s, const std::vector<std::size_t>& ends,
                       std::size_t i) {
  const std::size_t begin = i == 0 ? 0 : ends[i - 1];
  return s.view().substr(begin, ends[i] - begin);
}

}  // namespace

/// Per-thread buffers of canonical_key, reused across keys so that once
/// they have grown to the workload's state size nothing is allocated.
struct SymContext::Scratch {
  util::Renamer sig;                    // one orbit's signature renamer
  util::Ser bottom;                     // every section, all members BOTTOM
  std::vector<std::size_t> bottom_end;  // section end offsets in `bottom`
  std::vector<std::uint8_t> hits;       // [section * k + j]: looked up j
  util::Ser blobs;                      // one signature's orbit hosts
  std::vector<std::size_t> blob_end;
  std::vector<std::string_view> sorted_blobs;
  util::Ser sigs;  // the k signatures back to back
  std::vector<std::size_t> sig_end;
  std::vector<std::uint32_t> rank;
  std::vector<std::uint32_t> emit;  // host emission order
  util::Renamer rn;                 // the chosen permutation
  util::Ser assign;                 // assign-pass bytes
  util::Ser blob;                   // frozen-pass bytes: the canonical blob
  util::Ser key;                    // kCollapsed id-tuple key
  std::vector<std::pair<std::size_t, std::size_t>> assign_bounds;
  std::vector<bool> assign_only;  // component took an assign-only branch
  std::vector<std::pair<std::size_t, std::size_t>> bounds;  // final blob
};

SymContext::Scratch& SymContext::scratch() {
  thread_local Scratch sc;
  return sc;
}

SymContext::SymContext(const SystemConfig& cfg)
    : cfg_(&cfg), canonical_(cfg.canonical_flowtables) {
  if (cfg.topology == nullptr) invalid("config has no topology");
  const topo::Topology& topo = *cfg.topology;

  include_next_uid_ = false;
  for (const hosts::HostBehavior& hb : cfg.host_behavior) {
    // Discovery sends consume next_uid as the discovered flow id, so the
    // counter is semantic there and must stay in the canonical key.
    if (hb.discovery_sends) include_next_uid_ = true;
  }

  std::set<of::HostId> claimed;
  for (const std::vector<of::HostId>& decl : cfg.symmetry_orbits) {
    if (decl.size() < 2) invalid("needs at least two member hosts");
    Orbit orbit;
    std::vector<of::HostId> ids = decl;
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      invalid("repeats a member host");
    }
    for (const of::HostId id : ids) {
      if (id >= topo.hosts().size() || id >= cfg.host_behavior.size()) {
        invalid("member host index out of range");
      }
      if (!claimed.insert(id).second) invalid("host in two orbits");
      const topo::HostSpec& spec = topo.host(id);
      const hosts::HostBehavior& hb = cfg.host_behavior[id];
      if (hb.can_move || !spec.alt_locations.empty()) {
        invalid("mobile hosts are not interchangeable");
      }
      Member m;
      m.host_index = id;
      m.mac = spec.mac;
      m.ip = spec.ip;
      m.sw = spec.attach_switch;
      m.port = spec.attach_port;
      m.flows.reserve(hb.script.size());
      for (const hosts::ScriptEntry& e : hb.script) m.flows.push_back(e.flow_id);
      orbit.members.push_back(std::move(m));
    }

    // Members must be behaviourally identical up to the identifier
    // renaming this layer applies. Anything the renaming does not cover
    // (behaviour flags, script length, non-renamed header fields) must be
    // exactly equal, and the positional flow-id correspondence must be a
    // consistent function.
    const Member& m0 = orbit.members.front();
    const hosts::HostBehavior& hb0 = cfg.host_behavior[m0.host_index];
    for (std::size_t j = 1; j < orbit.members.size(); ++j) {
      const Member& mj = orbit.members[j];
      const hosts::HostBehavior& hbj = cfg.host_behavior[mj.host_index];
      if (mj.sw != m0.sw) invalid("members attach to different switches");
      if (hbj.echo != hb0.echo || hbj.can_dup != hb0.can_dup ||
          hbj.discovery_sends != hb0.discovery_sends ||
          hbj.max_sends != hb0.max_sends ||
          hbj.initial_burst != hb0.initial_burst) {
        invalid("members have different behaviour flags");
      }
      if (hbj.script.size() != hb0.script.size()) {
        invalid("members have different script lengths");
      }
      std::map<std::uint32_t, std::uint32_t> flow_map;
      std::map<std::uint32_t, std::uint32_t> flow_rev;
      for (std::size_t e = 0; e < hb0.script.size(); ++e) {
        const sym::PacketFields& h0 = hb0.script[e].hdr;
        const sym::PacketFields& hj = hbj.script[e].hdr;
        auto rename_mac = [&](std::uint64_t v) {
          return v == m0.mac ? mj.mac : v;
        };
        auto rename_ip = [&](std::uint64_t v) {
          return v == m0.ip ? mj.ip : v;
        };
        if (rename_mac(h0.eth_src) != hj.eth_src ||
            rename_mac(h0.eth_dst) != hj.eth_dst ||
            h0.eth_type != hj.eth_type ||
            rename_ip(h0.ip_src) != hj.ip_src ||
            rename_ip(h0.ip_dst) != hj.ip_dst ||
            h0.ip_proto != hj.ip_proto || h0.tp_src != hj.tp_src ||
            h0.tp_dst != hj.tp_dst || h0.tcp_flags != hj.tcp_flags) {
          invalid("scripts differ beyond the member renaming");
        }
        const auto [it, inserted] =
            flow_map.try_emplace(m0.flows[e], mj.flows[e]);
        if (!inserted && it->second != mj.flows[e]) {
          invalid("flow-id correspondence is inconsistent across entries");
        }
        const auto [rit, rinserted] =
            flow_rev.try_emplace(mj.flows[e], m0.flows[e]);
        if (!rinserted && rit->second != m0.flows[e]) {
          invalid("flow-id correspondence is not a bijection");
        }
      }
    }
    orbits_.push_back(std::move(orbit));
  }
}

std::uint32_t SymContext::orbit_host_count() const {
  std::uint32_t n = 0;
  for (const Orbit& o : orbits_) n += static_cast<std::uint32_t>(o.members.size());
  return n;
}

template <typename Component>
void SymContext::serialize_whole(
    const SystemState& state, util::Ser& s,
    const std::vector<std::uint32_t>& host_emit_order,
    Component&& component) const {
  // Mirrors SystemState::serialize byte-for-byte, but serializes the live
  // component values directly: the Snap-memoized forms are shared across
  // states and must never be built under an active Renamer. `component`
  // is handed each component's emitter in turn and decides whether to run
  // it.
  component([&] { state.ctrl().serialize(s, canonical_); });
  s.put_u32(static_cast<std::uint32_t>(state.switch_count()));
  for (std::size_t i = 0; i < state.switch_count(); ++i) {
    component([&] { state.sw(i).serialize(s, canonical_); });
  }
  s.put_u32(static_cast<std::uint32_t>(state.host_count()));
  for (std::size_t i = 0; i < state.host_count(); ++i) {
    component(
        [&] { state.host(host_emit_order[i]).serialize(s, canonical_); });
  }
  s.put_u32(static_cast<std::uint32_t>(state.prop_count()));
  for (std::size_t i = 0; i < state.prop_count(); ++i) {
    component([&] { state.prop(i).serialize(s); });
  }
  state.serialize_trailer(s, canonical_, include_next_uid_);
}

std::uint64_t SymContext::signatures(const SystemState& state,
                                     const Orbit& orbit, Scratch& sc) const {
  const std::size_t k = orbit.members.size();
  const std::size_t n = section_count(state);
  util::Renamer& rn = sc.sig;
  rn.clear();
  rn.uid_mode = util::Renamer::UidMode::kElide;
  for (std::uint32_t j = 0; j < k; ++j) {
    const Member& m = orbit.members[j];
    rn.mac.add(m.mac, sig::kBotMac, sig::kTagMac, j);
    rn.ip.add(m.ip, sig::kBotIp, sig::kTagIp, j);
    rn.host.add(m.host_index, sig::kBotHost, sig::kTagHost, j);
    rn.port.add(util::Renamer::sw_key(m.sw, m.port), sig::kBotPort,
                sig::kTagPort, j);
    for (std::uint32_t e = 0; e < m.flows.size(); ++e) {
      rn.flow.add(m.flows[e], sig::kBotFlowBase + e, sig::kTagFlowBase + e,
                  j);
    }
  }
  const util::Renamer::Scope scope(&rn);

  // One pass with every member at BOTTOM, recording per section which
  // members' identifiers its lookups hit.
  sc.bottom.clear();
  sc.bottom_end.clear();
  sc.hits.assign(n * k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    rn.hits = &sc.hits[i * k];
    emit_section(state, canonical_, i, sc.bottom);
    sc.bottom_end.push_back(sc.bottom.size());
  }
  rn.hits = nullptr;
  std::uint64_t runs = n;

  // Member j's signature. A section's bytes are a deterministic function
  // of the state and its lookup results, and a section that never looked
  // up j's identifiers gets the same result for every lookup whether j is
  // TAG or BOTTOM: its BOTTOM bytes are reused, and only the sections
  // that hit j are re-serialized with j tagged.
  auto section = [&](std::size_t i, std::uint32_t j, util::Ser& out) {
    if (sc.hits[i * k + j] != 0) {
      emit_section(state, canonical_, i, out);
      ++runs;
    } else {
      out.append(slice(sc.bottom, sc.bottom_end, i));
    }
  };
  const std::size_t first_host = first_host_section(state);
  const std::size_t first_prop = first_host + state.host_count();
  sc.sigs.clear();
  sc.sig_end.clear();
  for (std::uint32_t j = 0; j < k; ++j) {
    rn.tagged = j;
    for (std::size_t i = 0; i < first_host; ++i) section(i, j, sc.sigs);
    // The orbit's own host components go in as a sorted multiset, so the
    // signature is invariant under relabelings of the BOTTOM members.
    sc.blobs.clear();
    sc.blob_end.clear();
    for (const Member& m : orbit.members) {
      section(first_host + m.host_index, j, sc.blobs);
      sc.blob_end.push_back(sc.blobs.size());
    }
    sc.sorted_blobs.clear();
    for (std::size_t r = 0; r < k; ++r) {
      sc.sorted_blobs.push_back(slice(sc.blobs, sc.blob_end, r));
    }
    std::sort(sc.sorted_blobs.begin(), sc.sorted_blobs.end());
    std::size_t next_member = 0;
    for (std::size_t h = 0; h < state.host_count(); ++h) {
      if (next_member < k && orbit.members[next_member].host_index == h) {
        sc.sigs.append(sc.sorted_blobs[next_member++]);
      } else {
        section(first_host + h, j, sc.sigs);
      }
    }
    for (std::size_t i = first_prop; i < n; ++i) section(i, j, sc.sigs);
    sc.sig_end.push_back(sc.sigs.size());
  }
  rn.tagged = util::kNoMember;
  return runs;
}

std::vector<std::string> SymContext::member_signatures(
    const SystemState& state, std::size_t orbit) const {
  Scratch& sc = scratch();
  (void)signatures(state, orbits_.at(orbit), sc);
  std::vector<std::string> out;
  for (std::size_t j = 0; j < sc.sig_end.size(); ++j) {
    out.emplace_back(slice(sc.sigs, sc.sig_end, j));
  }
  return out;
}

SymKey SymContext::canonical_key(const SystemState& state,
                                 util::CollapseTable* table) const {
  canonicalizations_.fetch_add(1, std::memory_order_relaxed);
  Scratch& sc = scratch();
  std::uint64_t runs = 0;

  // 1. Rank each orbit's members by structural signature; rank r is
  // renamed onto orbit slot r. Ties mean the tied members are genuinely
  // interchangeable in this state (signatures are invariant under
  // relabelings of the other members), so the index tie-break of
  // stable_sort is harmless.
  sc.emit.resize(state.host_count());
  for (std::size_t i = 0; i < sc.emit.size(); ++i) {
    sc.emit[i] = static_cast<std::uint32_t>(i);
  }
  util::Renamer& rn = sc.rn;
  rn.clear();
  for (const Orbit& orbit : orbits_) {
    const std::size_t k = orbit.members.size();
    runs += signatures(state, orbit, sc);
    sc.rank.resize(k);
    for (std::uint32_t j = 0; j < k; ++j) sc.rank[j] = j;
    std::stable_sort(sc.rank.begin(), sc.rank.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return slice(sc.sigs, sc.sig_end, a) <
                              slice(sc.sigs, sc.sig_end, b);
                     });
    for (std::size_t r = 0; r < k; ++r) {
      const Member& src = orbit.members[sc.rank[r]];
      const Member& dst = orbit.members[r];
      sc.emit[dst.host_index] = src.host_index;
      rn.mac.add(src.mac, dst.mac);
      rn.ip.add(src.ip, dst.ip);
      rn.host.add(src.host_index, dst.host_index);
      rn.port.add(util::Renamer::sw_key(src.sw, src.port), dst.port);
      for (std::size_t e = 0; e < src.flows.size(); ++e) {
        // Positional flow correspondence; validation guaranteed that
        // repeated flow ids map consistently.
        rn.flow.add(src.flows[e], dst.flows[e]);
      }
    }
  }

  // 2. Assign pass: walk the serialization once to hand out dense uids at
  // first appearance, then map uids that only key containers. Each
  // component's bytes are kept, with whether it took an assign-only branch
  // (a uid-keyed container registering its keys).
  rn.uid_mode = util::Renamer::UidMode::kAssign;
  sc.assign.clear();
  sc.assign_bounds.clear();
  sc.assign_only.clear();
  {
    const util::Renamer::Scope scope(&rn);
    serialize_whole(state, sc.assign, sc.emit, [&](auto&& emit) {
      const std::uint64_t branches = rn.assign_branches();
      const std::size_t begin = sc.assign.size();
      emit();
      sc.assign_bounds.emplace_back(begin, sc.assign.size());
      sc.assign_only.push_back(rn.assign_branches() != branches);
    });
  }
  rn.finalize_uids();
  runs += sc.assign_bounds.size();

  // 3. Frozen pass: the real canonical bytes. A component that took no
  // assign-only branch saw every uid lookup return what it returns now
  // (finalize_uids only maps uids nobody looked up), so its assign-pass
  // bytes are final and are reused; only the others are serialized again.
  rn.uid_mode = util::Renamer::UidMode::kFrozen;
  util::Ser& blob = sc.blob;
  blob.clear();
  sc.bounds.clear();
  {
    const util::Renamer::Scope scope(&rn);
    serialize_whole(state, blob, sc.emit, [&](auto&& emit) {
      const std::size_t c = sc.bounds.size();
      const std::size_t begin = blob.size();
      if (sc.assign_only[c]) {
        emit();
        ++runs;
      } else {
        const auto [from, to] = sc.assign_bounds[c];
        blob.append(sc.assign.view().substr(from, to - from));
      }
      sc.bounds.emplace_back(begin, blob.size());
    });
  }
  component_serializations_.fetch_add(runs, std::memory_order_relaxed);

  SymKey out;
  out.hash = blob.hash();
  if (table == nullptr) {
    out.key = std::string(blob.view());
    return out;
  }

  // kCollapsed: intern each renamed component and pack the id tuple in
  // the same layout as SystemState::collapse_key. The memoized Snap ids
  // cannot be used here — the renaming is per-state — but interning keeps
  // the per-state key at ~4 bytes per component.
  const std::string_view view = blob.view();
  util::Ser& key = sc.key;
  key.clear();
  key.put_u32(static_cast<std::uint32_t>((state.switch_count() << 20) |
                                         (state.host_count() << 10) |
                                         state.prop_count()));
  for (const auto& [begin, end] : sc.bounds) {
    key.put_u32(table->intern(view.substr(begin, end - begin)));
  }
  // The trailer, as the frozen pass wrote it after the last component.
  key.append(view.substr(sc.bounds.back().second));
  out.key = std::string(key.view());
  return out;
}

std::string SymContext::canonicalize_violation(std::string msg) const {
  // Violation messages embed concrete identifiers via Packet::brief()
  // (MAC/IP strings, "flow=N") — rewrite every orbit member's spelling to
  // a member-independent placeholder. uids are already normalized by
  // violation_keys() ("uid=#").
  for (std::size_t o = 0; o < orbits_.size(); ++o) {
    const std::string slot = "<sym" + std::to_string(o) + ">";
    for (const Member& m : orbits_[o].members) {
      replace_all(msg, util::mac_to_string(m.mac), slot + "mac");
      replace_all(msg,
                  util::ip_to_string(static_cast<std::uint32_t>(m.ip)),
                  slot + "ip");
      for (std::size_t e = 0; e < m.flows.size(); ++e) {
        replace_all(msg, "flow=" + std::to_string(m.flows[e]),
                    "flow=" + slot + std::to_string(e));
      }
    }
  }
  return msg;
}

}  // namespace nicemc::mc
