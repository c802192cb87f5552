#include "mc/system.h"

namespace nicemc::mc {

SystemState SystemState::clone() const {
  SystemState c;
  // Snap copies share the underlying snapshots: O(#components) refcount
  // bumps, no component is deep-copied until someone calls a *_mut().
  c.ctrl_ = ctrl_;
  c.switches_ = switches_;
  c.hosts_ = hosts_;
  c.props_ = props_;
  c.next_uid = next_uid;
  c.next_copy = next_copy;
  c.faults = faults;
  return c;
}

void SystemState::serialize(util::Ser& s, bool canonical) const {
  // Byte-identical to serializing every component directly into `s` (the
  // load-bearing canonical-bytes invariant): same order, same count
  // prefixes, same per-component bytes — just bulk-appended from the
  // memoized forms.
  s.append(ctrl_.form(canonical).bytes);
  s.put_u32(static_cast<std::uint32_t>(switches_.size()));
  for (const auto& sw : switches_) s.append(sw.form(canonical).bytes);
  s.put_u32(static_cast<std::uint32_t>(hosts_.size()));
  for (const auto& h : hosts_) s.append(h.form(canonical).bytes);
  s.put_u32(static_cast<std::uint32_t>(props_.size()));
  for (const auto& p : props_) s.append(p.form(canonical).bytes);
  serialize_trailer(s, canonical, /*include_next_uid=*/true);
}

void SystemState::serialize_trailer(util::Ser& s, bool canonical,
                                    bool include_next_uid) const {
  if (include_next_uid) s.put_u32(next_uid);
  // The consumed fault budget is semantic state: a state with one link
  // failure left differs from the same configuration with none.
  faults.serialize(s);
  // The copy-id counter is naming bookkeeping (see of::Packet::serialize);
  // only the raw (NO-SWITCH-REDUCTION) form distinguishes states by it.
  if (!canonical) {
    s.put_u32(next_copy);
    return;
  }
  serialize_parked_buffers(s);
}

void SystemState::serialize_parked_buffers(util::Ser& s) const {
  // In parking order. The controller's bytes fix how many there are, so
  // the entry needs no length prefix.
  for (const auto& [target, msg] : ctrl().pending_commands) {
    const auto* po = std::get_if<of::PacketOut>(&msg);
    if (po != nullptr && po->buffer_id != of::kNoBuffer) {
      s.put_u32(sw(target).buffer_name(po->buffer_id));
    }
  }
}

std::string SystemState::collapse_key(util::CollapseTable& table,
                                      bool canonical) const {
  // Component ids in serialization order, prefixed by one packed shape
  // word (the three component counts): id-tuple equality ⇔ canonical-
  // bytes equality, because id equality ⇔ blob equality (CollapseTable's
  // interning contract), the order fixes which id sits at which position,
  // and the shape word disambiguates the variable-length sections (counts
  // are fixed within one search — the topology never changes — but the
  // key stays self-describing at 4 bytes instead of three count words).
  thread_local util::Ser s;  // clear() keeps capacity across calls
  s.clear();
  s.put_u32(static_cast<std::uint32_t>((switches_.size() << 20) |
                                       (hosts_.size() << 10) |
                                       props_.size()));
  s.put_u32(ctrl_.form_id(canonical, table));
  for (const auto& sw : switches_) s.put_u32(sw.form_id(canonical, table));
  for (const auto& h : hosts_) s.put_u32(h.form_id(canonical, table));
  for (const auto& p : props_) s.put_u32(p.form_id(canonical, table));
  serialize_trailer(s, canonical, /*include_next_uid=*/true);
  return std::string(s.view());
}

util::Hash128 SystemState::hash(bool canonical) const {
  // Combine the memoized component hashes in serialization order. Two
  // states have equal combined hashes iff their canonical serializations
  // are byte-identical (up to negligible hash collisions): component
  // hashes are hashes of exactly the bytes serialize() would append, and
  // the counts + trailing counters are mixed in the same positions.
  util::Hash128 h{0x6e6963652d6d6321ULL, 0x73746174652d6832ULL};
  h = util::hash128_combine(h, ctrl_.form_hash(canonical));
  h = util::hash128_combine(h, static_cast<std::uint64_t>(switches_.size()));
  for (const auto& sw : switches_) {
    h = util::hash128_combine(h, sw.form_hash(canonical));
  }
  h = util::hash128_combine(h, static_cast<std::uint64_t>(hosts_.size()));
  for (const auto& hs : hosts_) {
    h = util::hash128_combine(h, hs.form_hash(canonical));
  }
  h = util::hash128_combine(h, static_cast<std::uint64_t>(props_.size()));
  for (const auto& p : props_) {
    h = util::hash128_combine(h, p.form_hash(canonical));
  }
  h = util::hash128_combine(h, static_cast<std::uint64_t>(next_uid));
  h = util::hash128_combine(
      h, (static_cast<std::uint64_t>(faults.link_failures) << 32) |
             faults.channel_losses);
  h = util::hash128_combine(
      h, (static_cast<std::uint64_t>(faults.switch_restarts) << 32) |
             faults.packet_faults);
  if (!canonical) {
    return util::hash128_combine(h, static_cast<std::uint64_t>(next_copy));
  }
  // Mixed in only when present: states without parked buffer ids keep
  // their hash values.
  util::Ser parked;
  serialize_parked_buffers(parked);
  return parked.size() == 0 ? h : util::hash128_combine(h, parked.hash());
}

std::size_t SystemState::total_forgotten() const {
  std::size_t n = 0;
  for (const of::Switch& sw : switches()) n += sw.forgotten_packets();
  return n;
}

}  // namespace nicemc::mc
