#include "of/switch.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace nicemc::of {

namespace {

constexpr util::Hash128 kSwitchHashSeed{0x6e6963652d737770ULL,
                                        0x617274732d683132ULL};

}  // namespace

Switch::Switch(SwitchId sw_id, std::vector<PortId> port_list,
               std::size_t buf_capacity)
    : id(sw_id),
      buffer_capacity(buf_capacity),
      ports_(std::make_shared<const std::vector<PortId>>(
          std::move(port_list))) {
  Ingress& in = ingress_.mut();
  PortStats& stats = port_stats_.mut();
  for (PortId p : ports()) {
    in.emplace(p, Fifo<Packet>{});
    stats.emplace(p, PortStatsEntry{});
  }
}

void Switch::enqueue_packet(PortId port, Packet p) {
  assert(in_ports().contains(port) && "delivery to unknown port");
  in_port_mut(port).push(std::move(p));
}

bool Switch::can_process_pkt() const {
  for (const auto& [port, chan] : in_ports()) {
    if (!chan.empty()) return true;
  }
  return false;
}

void Switch::set_link(PortId port, bool up) {
  std::set<PortId>& down = core_.mut().down_ports;
  if (up) {
    down.erase(port);
  } else {
    down.insert(port);
  }
  emit_port_status(port, up);
}

std::uint32_t Switch::punt(const Packet& p, PortId in_port,
                           PacketIn::Reason reason) {
  Channel& c = chan_.mut();
  const std::uint32_t bid = c.buffer.next_id++;
  c.buffer.entries.emplace(bid, BufferedPacket{p, in_port});
  c.of_out.push(PacketIn{
      .packet = p, .in_port = in_port, .buffer_id = bid, .reason = reason});
  return bid;
}

void Switch::forward(const Action& a, PortId in_port, const Packet& p,
                     PacketOutcome& oc) {
  auto emit = [&](PortId port) {
    PortStatsEntry& tx = port_stats_mut()[port];
    tx.tx_packets += 1;
    tx.tx_bytes += p.size_bytes;
    oc.forwards.emplace_back(port, p);
  };
  switch (a.type) {
    case ActionType::kOutput:
      emit(a.port);
      break;
    case ActionType::kFlood:
      for (PortId port : ports()) {
        if (port != in_port) emit(port);
      }
      break;
    case ActionType::kController:
      break;  // handled by the caller (buffering)
  }
}

PacketOutcome Switch::run_pipeline(Packet p, PortId in_port, bool record_hop) {
  PacketOutcome oc;
  oc.in_port = in_port;
  if (record_hop) {
    oc.revisited = p.visited_before(id, in_port);
    p.visited.push_back(Hop{id, in_port});
    PortStatsEntry& rx = port_stats_mut()[in_port];
    rx.rx_packets += 1;
    rx.rx_bytes += p.size_bytes;
  }
  oc.packet = p;

  const std::optional<std::size_t> hit = table().lookup(in_port, p.hdr);
  if (!hit) {
    // No matching rule: buffer the packet and punt to the controller
    // (OpenFlow NO_MATCH behaviour).
    if (ctrl_channel_down()) {
      oc.dropped_no_ctrl = true;
      return oc;
    }
    if (buffer().size() >= buffer_capacity) {
      oc.dropped_buffer_full = true;
      return oc;
    }
    oc.to_controller = true;
    oc.buffer_id = punt(p, in_port, PacketIn::Reason::kNoMatch);
    oc.reason = PacketIn::Reason::kNoMatch;
    return oc;
  }

  oc.rule_idx = hit;
  // Held across the loop: punt() and forward() write other parts only.
  FlowTable& tbl = table_mut();
  tbl.count_hit(*hit, p.size_bytes);
  const Rule& rule = tbl.rules()[*hit];
  if (rule.actions.empty()) {
    oc.dropped_by_rule = true;
    return oc;
  }
  for (const Action& a : rule.actions) {
    if (a.type == ActionType::kController) {
      if (ctrl_channel_down()) {
        oc.dropped_no_ctrl = true;
        continue;
      }
      if (buffer().size() >= buffer_capacity) {
        oc.dropped_buffer_full = true;
        continue;
      }
      oc.to_controller = true;
      oc.buffer_id = punt(p, in_port, PacketIn::Reason::kAction);
      oc.reason = PacketIn::Reason::kAction;
      continue;
    }
    forward(a, in_port, p, oc);
  }
  return oc;
}

PacketOutcome Switch::apply_actions(Packet p, PortId in_port,
                                    const ActionList& actions) {
  PacketOutcome oc;
  oc.in_port = in_port;
  oc.packet = p;
  if (actions.empty()) {
    // Explicit "no actions": the packet is consumed (this is how an app
    // discards a buffered packet it handled itself, e.g. an ARP request).
    oc.dropped_by_rule = true;
    return oc;
  }
  for (const Action& a : actions) {
    assert(a.type != ActionType::kController &&
           "packet_out back to controller is not modelled");
    forward(a, in_port, p, oc);
  }
  return oc;
}

std::vector<PacketOutcome> Switch::process_pkt() {
  assert(can_process_pkt());
  std::vector<PacketOutcome> outcomes;
  // Paper: dequeue the first packet from each channel and process all of
  // them as a single transition.
  for (auto& [port, chan] : ingress_.mut()) {
    if (chan.empty()) continue;
    outcomes.push_back(run_pipeline(chan.pop(), port, /*record_hop=*/true));
  }
  return outcomes;
}

OfOutcome Switch::process_of() {
  assert(can_process_of());
  OfOutcome oc;
  Channel& c = chan_.mut();
  ToSwitch msg = c.of_in.pop();
  if (!c.of_in_seq.empty()) c.of_in_seq.erase(c.of_in_seq.begin());
  if (auto* fm = std::get_if<FlowMod>(&msg)) {
    switch (fm->cmd) {
      case FlowMod::Cmd::kAdd:
        table_mut().add(fm->rule);
        oc.installed = fm->rule;
        break;
      case FlowMod::Cmd::kDelete:
        oc.removed_count = table_mut().remove(fm->rule.match, std::nullopt);
        oc.removed_match = fm->rule.match;
        break;
      case FlowMod::Cmd::kDeleteStrict:
        oc.removed_count =
            table_mut().remove(fm->rule.match, fm->rule.priority);
        oc.removed_match = fm->rule.match;
        break;
    }
    return oc;
  }
  if (auto* po = std::get_if<PacketOut>(&msg)) {
    Packet p;
    PortId in_port = po->in_port;
    if (po->buffer_id != kNoBuffer) {
      auto& entries = c.buffer.entries;
      const auto it = entries.find(po->buffer_id);
      if (it == entries.end()) {
        oc.missing_buffer = true;
        return oc;
      }
      p = std::move(it->second.packet);
      in_port = it->second.in_port;
      entries.erase(it);
    } else {
      assert(po->packet.has_value() &&
             "packet_out without buffer must carry a packet");
      p = *po->packet;
    }
    const bool from_buffer = po->buffer_id != kNoBuffer;
    oc.packet = apply_actions(std::move(p), in_port, po->actions);
    oc.packet->from_buffer = from_buffer;
    if (po->actions.empty()) oc.packet->explicit_discard = true;
    return oc;
  }
  if (auto* sr = std::get_if<StatsRequest>(&msg)) {
    c.of_out.push(StatsReply{.xid = sr->xid, .ports = port_stats()});
    oc.stats_replied = true;
    return oc;
  }
  const auto& br = std::get<BarrierRequest>(msg);
  c.of_out.push(BarrierReply{.xid = br.xid});
  oc.barrier_replied = true;
  return oc;
}

Switch::ChannelLoss Switch::disconnect_ctrl() {
  ChannelLoss loss{.lost_to_switch = of_in().size(),
                   .lost_to_ctrl = of_out().size()};
  Channel& c = chan_.mut();
  c.of_in = {};
  c.of_in_seq.clear();
  c.of_out = {};
  core_.mut().ctrl_channel_down = true;
  return loss;
}

Switch::RestartSummary Switch::restart() {
  RestartSummary sum{.lost_rules = table().size(),
                     .lost_buffered = buffer().size(),
                     .lost_to_switch = of_in().size(),
                     .lost_to_ctrl = of_out().size()};
  Core& core = core_.mut();
  core.table = FlowTable{};
  core.ctrl_channel_down = false;
  Channel& c = chan_.mut();
  c.of_in = {};
  c.of_in_seq.clear();
  c.of_out = {};
  c.buffer.entries.clear();
  for (auto& [port, st] : port_stats_mut()) st = PortStatsEntry{};
  return sum;
}

bool Switch::shares_part(const Switch& o, std::size_t part) const {
  switch (part) {
    case 0:
      return core_.same_part(o.core_);
    case 1:
      return ingress_.same_part(o.ingress_);
    case 2:
      return chan_.same_part(o.chan_);
    default:
      return port_stats_.same_part(o.port_stats_);
  }
}

std::vector<std::size_t> Switch::expirable_rules() const {
  std::vector<std::size_t> out;
  const std::vector<Rule>& rules = table().rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].can_expire()) out.push_back(i);
  }
  return out;
}

std::span<const BufferedPacket* const> Switch::name_buffers(
    util::Renamer* rn) const {
  // Dense naming by buffered-packet content: interleavings that buffered
  // the same packets under different raw ids serialize identically. Every
  // buffer id written under this switch's scope is looked up here.
  const auto& live = buffer();
  if (!util::rn_canonical(rn) || live.empty()) return {};
  thread_local std::vector<const BufferedPacket*> ranked;
  if (!rn->buffer.empty()) {
    // Named already in this scope, which no other switch's naming enters.
    assert(ranked.size() == live.size());
    return ranked;
  }
  // Every entry's content back to back in one per-thread buffer, in id
  // order (the order a uid-assigning renamer hands out their uids), then
  // ranked by (content, id).
  struct Entry {
    std::size_t begin;
    std::size_t end;
    std::uint32_t bid;
    const BufferedPacket* bp;
  };
  thread_local util::Ser contents;
  thread_local std::vector<Entry> entries;
  contents.clear();
  entries.clear();
  for (const auto& [bid, bp] : live) {
    const std::size_t begin = contents.size();
    bp.serialize(contents);
    entries.push_back(Entry{begin, contents.size(), bid, &bp});
  }
  const std::string_view all = contents.view();
  std::sort(entries.begin(), entries.end(),
            [all](const Entry& a, const Entry& b) {
              const std::string_view ca = all.substr(a.begin, a.end - a.begin);
              const std::string_view cb = all.substr(b.begin, b.end - b.begin);
              return ca != cb ? ca < cb : a.bid < b.bid;
            });
  ranked.clear();
  for (std::uint32_t rank = 0; rank < entries.size(); ++rank) {
    rn->buffer.add(util::Renamer::sw_key(id, entries[rank].bid), rank + 1);
    ranked.push_back(entries[rank].bp);
  }
  return ranked;
}

std::uint32_t Switch::buffer_name(std::uint32_t bid) const {
  const util::Renamer::FormScope form(id, /*canonical=*/true);
  name_buffers(form.renamer());
  return form.renamer()->r_buffer(id, bid);
}

void Switch::serialize(util::Ser& s, bool canonical) const {
  const util::Renamer::FormScope form(id, canonical);
  // Named before any section: under a uid-assigning renamer the buffered
  // packets draw their dense uids first.
  name_buffers(form.renamer());
  for (std::size_t part = 0; part < kSerializeParts; ++part) {
    serialize_section(s, canonical, part, form.renamer());
  }
}

void Switch::serialize_part(util::Ser& s, bool canonical,
                            std::size_t part) const {
  const util::Renamer::FormScope form(id, canonical);
  serialize_section(s, canonical, part, form.renamer());
}

util::HashMemo& Switch::part_memo(std::size_t part, bool canonical) const {
  switch (part) {
    case 0:
      return core_.memo(canonical);
    case 1:
      return ingress_.memo(canonical);
    case 2:
      return chan_.memo(canonical);
    default:
      return port_stats_.memo(canonical);
  }
}

util::SigMemoSlot& Switch::part_sig_memo(std::size_t part) const {
  switch (part) {
    case 0:
      return core_.sig_memo();
    case 1:
      return ingress_.sig_memo();
    case 2:
      return chan_.sig_memo();
    default:
      return port_stats_.sig_memo();
  }
}

util::Hash128 Switch::part_hash(std::size_t part, bool canonical) const {
  assert(util::Renamer::active() == nullptr &&
         "part memos are never built under a renamer");
  util::HashMemo& memo = part_memo(part, canonical);
  util::Hash128 h;
  if (memo.get(h)) return h;
  thread_local util::Ser scratch;  // clear() keeps capacity across calls
  scratch.clear();
  serialize_part(scratch, canonical, part);
  h = scratch.hash();
  memo.set(h);
  return h;
}

util::Hash128 Switch::hash(bool canonical) const {
  assert(util::Renamer::active() == nullptr &&
         "part memos are never built under a renamer");
  thread_local util::Ser scratch;  // clear() keeps capacity across calls
  const util::Renamer::FormScope form(id, canonical);
  util::Hash128 h = kSwitchHashSeed;
  for (std::size_t part = 0; part < kSerializeParts; ++part) {
    util::HashMemo& memo = part_memo(part, canonical);
    util::Hash128 ph;
    if (!memo.get(ph)) {
      scratch.clear();
      serialize_section(scratch, canonical, part, form.renamer());
      ph = scratch.hash();
      memo.set(ph);
    }
    h = util::hash128_combine(h, ph);
  }
  return h;
}

util::Hash128 Switch::serialize_hashed(util::Ser& s, bool canonical) const {
  assert(util::Renamer::active() == nullptr &&
         "part memos are never built under a renamer");
  const util::Renamer::FormScope form(id, canonical);
  name_buffers(form.renamer());  // as serialize() does
  util::Hash128 h = kSwitchHashSeed;
  for (std::size_t part = 0; part < kSerializeParts; ++part) {
    const std::size_t begin = s.size();
    serialize_section(s, canonical, part, form.renamer());
    util::HashMemo& memo = part_memo(part, canonical);
    util::Hash128 ph;
    if (!memo.get(ph)) {
      ph = util::hash128(s.bytes().subspan(begin));
      memo.set(ph);
    }
    h = util::hash128_combine(h, ph);
  }
  return h;
}

void Switch::serialize_section(util::Ser& s, bool canonical,
                               std::size_t part, util::Renamer* rn) const {
  const bool renames_ports = util::rn_renames_hosts(rn);
  auto port_name = [&](PortId p) { return util::rn_port(rn, id, p); };
  auto key_port_name = [&](const auto& e) { return port_name(e.first); };

  switch (part) {
    case 0:  // identity + fault state + flow table
      s.put_tag('W');
      s.put_u32(id);
      s.put_bool(ctrl_channel_down());
      s.put_u32(static_cast<std::uint32_t>(down_ports().size()));
      util::for_each_named(down_ports(), renames_ports, port_name,
                           [&](PortId p, PortId) { s.put_u32(p); });
      table().serialize(s, canonical);
      return;
    case 1:  // ingress packet channels
      s.put_u32(static_cast<std::uint32_t>(in_ports().size()));
      util::for_each_named(in_ports(), renames_ports, key_port_name,
                           [&](PortId p, const auto& e) {
                             s.put_u32(p);
                             e.second.serialize(
                                 s, [](util::Ser& ser, const Packet& pkt) {
                                   pkt.serialize(ser);
                                 });
                           });
      return;
    case 2: {  // both OpenFlow channels, then the buffer in named order
      const auto ranked = name_buffers(rn);
      of_in().serialize(s, [](util::Ser& ser, const ToSwitch& m) {
        serialize_message(ser, m);
      });
      of_out().serialize(s, [](util::Ser& ser, const ToController& m) {
        serialize_message(ser, m);
      });
      s.put_u32(static_cast<std::uint32_t>(buffer().size()));
      if (util::rn_canonical(rn)) {
        // A live entry's name is its content rank + 1.
        for (std::uint32_t rank = 0; rank < ranked.size(); ++rank) {
          s.put_u32(rank + 1);
          ranked[rank]->serialize(s);
        }
      } else {
        for (const auto& [bid, bp] : buffer()) {
          s.put_u32(bid);
          bp.serialize(s);
        }
        // The id counter names nothing live; only the raw form keeps it.
        s.put_u32(chan_.get().buffer.next_id);
      }
      return;
    }
    default:  // 3: port statistics
      s.put_u32(static_cast<std::uint32_t>(port_stats().size()));
      util::for_each_named(port_stats(), renames_ports, key_port_name,
                           [&](PortId p, const auto& e) {
                             s.put_u32(p);
                             e.second.serialize(s);
                           });
      return;
  }
}

}  // namespace nicemc::of
