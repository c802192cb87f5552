#include "mc/sym_reduce.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <tuple>
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

/// The memoized hash of section i's plain form, under which a signature
/// memo built from that content is filed. Must run outside any renamer.
util::Hash128 section_hash(const SystemState& st, bool canonical,
                           std::size_t i) {
  const std::size_t parts = of::Switch::kSerializeParts;
  const std::size_t first_host = first_host_section(st);
  if (i == 0) return st.ctrl_form_hash(canonical);
  if (i < first_host) {
    return st.sw((i - 1) / parts).part_hash((i - 1) % parts, canonical);
  }
  if (i < first_host + st.host_count()) {
    return st.host_form_hash(i - first_host, canonical);
  }
  return st.prop_form_hash(i - first_host - st.host_count(), canonical);
}

util::SigMemoSlot& section_slot(const SystemState& st, std::size_t i) {
  const std::size_t parts = of::Switch::kSerializeParts;
  const std::size_t first_host = first_host_section(st);
  if (i == 0) return st.ctrl_sig_memo();
  if (i < first_host) {
    return st.sw((i - 1) / parts).part_sig_memo((i - 1) % parts);
  }
  if (i < first_host + st.host_count()) return st.host_sig_memo(i - first_host);
  return st.prop_sig_memo(i - first_host - st.host_count());
}

/// Three-way comparison of two byte streams given as segments, as of
/// their concatenations. Bytes both streams read from the same address
/// are skipped unread.
int compare_streams(const std::string_view* a, std::size_t na,
                    const std::string_view* b, std::size_t nb) {
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t oa = 0;
  std::size_t ob = 0;
  for (;;) {
    while (ia < na && oa == a[ia].size()) {
      ++ia;
      oa = 0;
    }
    while (ib < nb && ob == b[ib].size()) {
      ++ib;
      ob = 0;
    }
    if (ia == na || ib == nb) return (ia == na ? 0 : 1) - (ib == nb ? 0 : 1);
    const char* pa = a[ia].data() + oa;
    const char* pb = b[ib].data() + ob;
    const std::size_t len = std::min(a[ia].size() - oa, b[ib].size() - ob);
    if (pa != pb) {
      if (const int c = std::memcmp(pa, pb, len); c != 0) return c;
    }
    oa += len;
    ob += len;
  }
}

/// Bytes compared per memcmp call by common_prefix and common_suffix.
constexpr std::size_t kScanBlock = 64;

/// Length of the longest common prefix of a and b.
std::size_t common_prefix(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i + kScanBlock <= n &&
         std::memcmp(a.data() + i, b.data() + i, kScanBlock) == 0) {
    i += kScanBlock;
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Length of the longest common suffix of a and b.
std::size_t common_suffix(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  const char* ea = a.data() + a.size();
  const char* eb = b.data() + b.size();
  std::size_t i = 0;
  while (i + kScanBlock <= n &&
         std::memcmp(ea - i - kScanBlock, eb - i - kScanBlock, kScanBlock) ==
             0) {
    i += kScanBlock;
  }
  while (i < n && *(ea - i - 1) == *(eb - i - 1)) ++i;
  return i;
}

/// Stable insertion sort: k is small, and it needs no buffer.
template <typename T, typename Less>
void insertion_sort(T* v, std::size_t k, Less less) {
  for (std::size_t r = 1; r < k; ++r) {
    T x = v[r];
    std::size_t i = r;
    for (; i > 0 && less(x, v[i - 1]); --i) v[i] = v[i - 1];
    v[i] = x;
  }
}

std::atomic<std::uint64_t> next_context_id{1};

/// Entries of a thread's raw-revisit table (64 KiB) and of its signature
/// memo cache. Both are direct-mapped: a lookup is one probe and a fill
/// overwrites. In the cache, each section index owns kReuseWays entries
/// (indices wrap past kReuseSlots / kReuseWays) and the content hash picks
/// one, so the sections of a state with at most that many never evict
/// each other's. A cached memo is often the only reference left to it
/// (most switch sections' are 1-1.5 KiB on lb-sym7), so the cache is kept
/// small.
constexpr std::size_t kRawSlots = 2048;
constexpr std::size_t kReuseSlots = 128;
constexpr std::size_t kReuseWays = 8;

}  // namespace

/// Per-thread buffers of canonical_key, reused across keys so that once
/// they have grown to the workload's state size nothing is allocated.
struct SymContext::Scratch {
  util::Renamer sig;  // one orbit's signature renamer,
  std::uint64_t sig_owner{0};  // built for this context
  std::size_t sig_orbit{0};    // and orbit
  util::Ser bottom;            // a memo's parts while it is built:
  util::Ser tagged;            // one TAG form,
  util::Ser middles;           // what the TAG forms do not share,
  std::vector<util::SigMemo::Tag> tags;  // and how they share the rest
  std::vector<std::uint8_t> hits;  // [j]: the section looked up member j
  std::vector<const util::SigMemo*> memos;  // per section
  std::vector<util::SigMemo::Pieces> hosts;  // one member's orbit host forms
  /// Member j's signature: the lens[j] pieces of its sections in turn,
  /// from lists[j * width] (width: 3 per section).
  std::vector<std::string_view> lists;
  std::vector<std::size_t> lens;
  std::size_t width{0};

  [[nodiscard]] const std::string_view* list(std::uint32_t j) const {
    return &lists[j * width];
  }
  /// Three-way comparison of the signatures of members a and b.
  [[nodiscard]] int compare(std::uint32_t a, std::uint32_t b) const {
    return compare_streams(list(a), lens[a], list(b), lens[b]);
  }

  std::vector<std::uint32_t> rank;
  std::vector<std::uint32_t> emit;  // host emission order
  util::Renamer rn;                 // the chosen permutation
  util::Ser assign;                 // assign-pass bytes
  util::Ser blob;                   // frozen-pass bytes: the canonical blob
  util::Ser key;                    // kCollapsed id-tuple key
  std::vector<std::pair<std::size_t, std::size_t>> assign_bounds;
  std::vector<bool> assign_only;  // component took an assign-only branch
  std::vector<std::pair<std::size_t, std::size_t>> bounds;  // final blob

  /// Recent hash-mode keys by the state's plain hash, for one context
  /// (raw_owner): full[i] marks entries[i] filled.
  struct RawTable {
    struct Entry {
      util::Hash128 raw;
      util::Hash128 key;
    };
    std::array<Entry, kRawSlots> entries;
    std::bitset<kRawSlots> full;
  };
  std::unique_ptr<RawTable> raw;  // allocated on the thread's first key
  std::uint64_t raw_owner{0};

  /// This thread's raw-revisit table, emptied when another context uses
  /// it.
  RawTable& raw_table(std::uint64_t owner) {
    if (!raw) {
      raw = std::make_unique<RawTable>();
    } else if (raw_owner != owner) {
      raw->full.reset();
    }
    raw_owner = owner;
    return *raw;
  }

  /// Signature memos by (memo key, the section's plain hash); the memo's
  /// own key tells entries of other contexts, orbits and sections apart.
  struct Reuse {
    util::Hash128 content;
    util::SigMemo::Ref memo;
  };
  std::unique_ptr<Reuse[]> reuse;  // allocated on the thread's first key
  /// Sections left to build: index and plain hash.
  std::vector<std::pair<std::size_t, util::Hash128>> missing;

  Reuse& reuse_entry(const util::SigMemo::Key& key, const util::Hash128& h) {
    if (!reuse) reuse = std::make_unique<Reuse[]>(kReuseSlots);
    return reuse[(key.section * kReuseWays + h.lo % kReuseWays) % kReuseSlots];
  }
};

SymContext::Scratch& SymContext::scratch() {
  thread_local Scratch sc;
  return sc;
}

SymContext::SymContext(const SystemConfig& cfg)
    : cfg_(&cfg),
      id_(next_context_id.fetch_add(1, std::memory_order_relaxed)),
      canonical_(cfg.canonical_flowtables) {
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
    if (decl.size() > kMaxOrbitMembers) invalid("has more than 64 members");
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

util::SigMemo::Ref SymContext::build_memo(const SystemState& state,
                                          std::size_t o, std::size_t i,
                                          Scratch& sc,
                                          std::uint64_t& runs) const {
  // One pass with every member at BOTTOM, recording which members'
  // identifiers the section's lookups hit, then one per hit member j with
  // j at TAG. A section's bytes are a deterministic function of its
  // content and its lookup results, and a section that never looked up
  // j's identifiers gets the same result for every lookup whether j is
  // TAG or BOTTOM: member j reads its BOTTOM bytes.
  util::Renamer& rn = sc.sig;
  const std::size_t k = orbits_[o].members.size();
  sc.bottom.clear();
  sc.middles.clear();
  sc.tags.clear();
  sc.hits.assign(k, 0);
  rn.hits = sc.hits.data();
  emit_section(state, canonical_, i, sc.bottom);
  rn.hits = nullptr;
  const std::string_view bottom = sc.bottom.view();
  std::uint64_t hits = 0;
  for (std::uint32_t j = 0; j < k; ++j) {
    if (sc.hits[j] == 0) continue;
    hits |= std::uint64_t{1} << j;
    rn.tagged = j;
    sc.tagged.clear();
    emit_section(state, canonical_, i, sc.tagged);
    // Keep only what differs from BOTTOM.
    const std::string_view tag = sc.tagged.view();
    const std::size_t head = common_prefix(tag, bottom);
    const std::size_t tail =
        common_suffix(tag.substr(head), bottom.substr(head));
    sc.middles.append(tag.substr(head, tag.size() - head - tail));
    sc.tags.push_back({static_cast<std::uint32_t>(head),
                       static_cast<std::uint32_t>(tail),
                       static_cast<std::uint32_t>(sc.middles.size())});
  }
  rn.tagged = util::kNoMember;
  runs += 1 + sc.tags.size();
  return util::SigMemo::make(memo_key(o, i), hits, bottom, sc.tags,
                             sc.middles.view());
}

void SymContext::signatures(const SystemState& state, std::size_t o,
                            Scratch& sc, std::uint64_t& runs,
                            std::uint64_t& reuses) const {
  const Orbit& orbit = orbits_[o];
  const std::size_t k = orbit.members.size();
  const std::size_t n = section_count(state);
  util::Renamer& rn = sc.sig;
  if (sc.sig_owner != id_ || sc.sig_orbit != o) {
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
        rn.flow.add(m.flows[e], sig::kBotFlowBase + e,
                    sig::kTagFlowBase + e, j);
      }
    }
    sc.sig_owner = id_;
    sc.sig_orbit = o;
  }

  // A section whose node has no memo shares the one built for equal
  // content on another node, found by its plain hash: signature bytes are
  // a function of the section's content. The hashes are read (or filled)
  // here, outside the renamer scope the remaining sections are built in.
  sc.memos.resize(n);
  sc.missing.clear();
  for (std::size_t i = 0; i < n; ++i) {
    util::SigMemoSlot& slot = section_slot(state, i);
    const util::SigMemo::Key key = memo_key(o, i);
    const util::SigMemo* m = slot.find(key);
    if (m == nullptr) {
      const util::Hash128 h = section_hash(state, canonical_, i);
      const Scratch::Reuse& r = sc.reuse_entry(key, h);
      if (r.memo && r.content == h && r.memo->key() == key) {
        m = slot.publish(r.memo);
        ++reuses;
      } else {
        sc.missing.emplace_back(i, h);
      }
    }
    sc.memos[i] = m;
  }
  if (!sc.missing.empty()) {
    const util::Renamer::Scope scope(&rn);
    for (const auto& [i, h] : sc.missing) {
      const util::SigMemo* m =
          section_slot(state, i).publish(build_memo(state, o, i, sc, runs));
      sc.reuse_entry(m->key(), h) = {h, m->share()};
      sc.memos[i] = m;
    }
  }

  // Member j's signature: every section's bytes for j, with the orbit's
  // own host components as a sorted multiset in the orbit's host slots,
  // so the signature is invariant under relabelings of the BOTTOM
  // members.
  const std::size_t first_host = first_host_section(state);
  auto host_section = [&](std::size_t r) {
    return first_host + orbit.members[r].host_index;
  };
  constexpr std::size_t kPieces = std::tuple_size_v<util::SigMemo::Pieces>;
  sc.width = kPieces * n;
  sc.lists.resize(k * sc.width);
  sc.lens.resize(k);
  sc.hosts.resize(k);
  for (std::uint32_t j = 0; j < k; ++j) {
    for (std::size_t r = 0; r < k; ++r) {
      sc.hosts[r] = sc.memos[host_section(r)]->member(j);
    }
    insertion_sort(sc.hosts.data(), k,
                   [](const util::SigMemo::Pieces& a,
                      const util::SigMemo::Pieces& b) {
                     return compare_streams(a.data(), kPieces, b.data(),
                                            kPieces) < 0;
                   });
    // Empty pieces are left out. The orbit's members are in ascending
    // host-index order, so slot r is the r-th orbit host section.
    std::string_view* list = &sc.lists[j * sc.width];
    std::size_t& len = sc.lens[j];
    len = 0;
    auto put = [&](const util::SigMemo::Pieces& p) {
      for (const std::string_view v : p) {
        if (!v.empty()) list[len++] = v;
      }
    };
    for (std::size_t i = 0, r = 0; i < n; ++i) {
      if (r < k && i == host_section(r)) {
        put(sc.hosts[r++]);
      } else {
        put(sc.memos[i]->member(j));
      }
    }
  }
}

std::vector<std::string> SymContext::member_signatures(
    const SystemState& state, std::size_t orbit) const {
  Scratch& sc = scratch();
  (void)orbits_.at(orbit);
  std::uint64_t runs = 0;
  std::uint64_t reuses = 0;
  signatures(state, orbit, sc, runs, reuses);
  std::vector<std::string> out(orbits_[orbit].members.size());
  for (std::uint32_t j = 0; j < out.size(); ++j) {
    const std::string_view* list = sc.list(j);
    for (std::size_t v = 0; v < sc.lens[j]; ++v) out[j] += list[v];
  }
  return out;
}

void SymContext::canonical_blob(const SystemState& state, Scratch& sc) const {
  canonicalizations_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t runs = 0;
  std::uint64_t reuses = 0;

  // 1. Rank each orbit's members by structural signature; rank r is
  // renamed onto orbit slot r. Ties mean the tied members are genuinely
  // interchangeable in this state (signatures are invariant under
  // relabelings of the other members), so the index tie-break of the
  // stable sort is harmless.
  sc.emit.resize(state.host_count());
  for (std::size_t i = 0; i < sc.emit.size(); ++i) {
    sc.emit[i] = static_cast<std::uint32_t>(i);
  }
  util::Renamer& rn = sc.rn;
  rn.clear();
  for (std::size_t o = 0; o < orbits_.size(); ++o) {
    const Orbit& orbit = orbits_[o];
    const std::size_t k = orbit.members.size();
    signatures(state, o, sc, runs, reuses);
    sc.rank.resize(k);
    for (std::uint32_t j = 0; j < k; ++j) sc.rank[j] = j;
    insertion_sort(sc.rank.data(), k, [&sc](std::uint32_t a, std::uint32_t b) {
      return sc.compare(a, b) < 0;
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
  if (reuses != 0) memo_reuses_.fetch_add(reuses, std::memory_order_relaxed);
}

SymKey SymContext::canonical_key(const SystemState& state,
                                 util::CollapseTable* table) const {
  Scratch& sc = scratch();
  canonical_blob(state, sc);
  const util::Ser& blob = sc.blob;
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

util::Hash128 SymContext::canonical_hash(const SystemState& state) const {
  // The blob is a function of the plain canonical bytes, which keep raw
  // uids and every field the renamed form reads, so a state whose plain
  // hash this thread saw before has the key it had then. Its section
  // hashes are left filled for signatures().
  Scratch& sc = scratch();
  const util::Hash128 raw = state.hash(canonical_);
  Scratch::RawTable& table = sc.raw_table(id_);
  const std::size_t slot = raw.lo & (kRawSlots - 1);
  Scratch::RawTable::Entry& e = table.entries[slot];
  if (table.full[slot] && e.raw == raw) {
    raw_revisits_.fetch_add(1, std::memory_order_relaxed);
    return e.key;
  }
  canonical_blob(state, sc);
  e = {raw, sc.blob.hash()};
  table.full[slot] = true;
  return e.key;
}

const util::SigMemo* SymContext::find_section_memo(const SystemState& state,
                                                   std::size_t orbit,
                                                   std::size_t section) const {
  return section_slot(state, section).find(memo_key(orbit, section));
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
