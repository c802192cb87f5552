#include "mc/transition.h"

#include "util/strings.h"

namespace nicemc::mc {

const char* tkind_name(TKind kind) noexcept {
  switch (kind) {
    case TKind::kHostSendScript: return "host_send_script";
    case TKind::kHostSendDiscovered: return "host_send_discovered";
    case TKind::kHostSendDup: return "host_send_dup";
    case TKind::kHostSendReply: return "host_send_reply";
    case TKind::kHostRecv: return "host_recv";
    case TKind::kHostMove: return "host_move";
    case TKind::kSwitchProcessPkt: return "switch_process_pkt";
    case TKind::kSwitchProcessOf: return "switch_process_of";
    case TKind::kCtrlDispatch: return "ctrl_dispatch";
    case TKind::kCtrlApplyCommand: return "ctrl_apply_command";
    case TKind::kCtrlExternal: return "ctrl_external";
    case TKind::kCtrlRequestStats: return "ctrl_request_stats";
    case TKind::kCtrlProcessStats: return "ctrl_process_stats";
    case TKind::kRuleExpire: return "rule_expire";
    case TKind::kChannelDropHead: return "channel_drop_head";
    case TKind::kChannelDupHead: return "channel_dup_head";
    case TKind::kLinkDown: return "link_down";
    case TKind::kLinkUp: return "link_up";
    case TKind::kCtrlChannelDown: return "ctrl_channel_down";
    case TKind::kCtrlChannelUp: return "ctrl_channel_up";
    case TKind::kSwitchRestart: return "switch_restart";
  }
  return "?";
}

std::string Transition::label() const {
  switch (kind) {
    case TKind::kHostSendScript:
      return "host" + std::to_string(a) + ".send[script]";
    case TKind::kHostSendDiscovered:
      return "host" + std::to_string(a) + ".send(dst=" +
             util::mac_to_string(fields.eth_dst) +
             " src=" + util::mac_to_string(fields.eth_src) + ")";
    case TKind::kHostSendDup:
      return "host" + std::to_string(a) + ".send[dup]";
    case TKind::kHostSendReply:
      return "host" + std::to_string(a) + ".send_reply";
    case TKind::kHostRecv:
      return "host" + std::to_string(a) + ".receive";
    case TKind::kHostMove:
      return "host" + std::to_string(a) + ".move[" + std::to_string(aux) +
             "]";
    case TKind::kSwitchProcessPkt:
      return "sw" + std::to_string(a) + ".process_pkt";
    case TKind::kSwitchProcessOf:
      return "sw" + std::to_string(a) + ".process_of";
    case TKind::kCtrlDispatch:
      return "ctrl.dispatch(sw" + std::to_string(a) + ")";
    case TKind::kCtrlApplyCommand:
      return "ctrl.apply_command";
    case TKind::kCtrlExternal:
      return "ctrl.external[" + std::to_string(aux) + "]";
    case TKind::kCtrlRequestStats:
      return "ctrl.request_stats(sw" + std::to_string(a) + ")";
    case TKind::kCtrlProcessStats:
      return "ctrl.process_stats(sw" + std::to_string(a) + ")";
    case TKind::kRuleExpire:
      return "sw" + std::to_string(a) + ".expire_rule[" +
             std::to_string(aux) + "]";
    case TKind::kChannelDropHead:
      return "sw" + std::to_string(a) + ".drop_head(port=" +
             std::to_string(aux) + ")";
    case TKind::kChannelDupHead:
      return "sw" + std::to_string(a) + ".dup_head(port=" +
             std::to_string(aux) + ")";
    case TKind::kLinkDown:
      return "link" + std::to_string(a) + ".down";
    case TKind::kLinkUp:
      return "link" + std::to_string(a) + ".up";
    case TKind::kCtrlChannelDown:
      return "sw" + std::to_string(a) + ".ctrl_channel_down";
    case TKind::kCtrlChannelUp:
      return "sw" + std::to_string(a) + ".ctrl_channel_up";
    case TKind::kSwitchRestart:
      return "sw" + std::to_string(a) + ".restart";
  }
  return "?";
}

void Transition::serialize(util::Ser& s) const {
  s.put_u8(static_cast<std::uint8_t>(kind));
  s.put_u32(a);
  s.put_u32(aux);
  s.put_u64(fields.eth_src);
  s.put_u64(fields.eth_dst);
  s.put_u64(fields.eth_type);
  s.put_u64(fields.ip_src);
  s.put_u64(fields.ip_dst);
  s.put_u64(fields.ip_proto);
  s.put_u64(fields.tp_src);
  s.put_u64(fields.tp_dst);
  s.put_u64(fields.tcp_flags);
  s.put_u32(static_cast<std::uint32_t>(stats.size()));
  for (const auto& [port, bytes] : stats) {
    s.put_u32(port);
    s.put_u64(bytes);
  }
}

Transition Transition::deserialize(util::Des& d) {
  Transition t;
  const std::uint8_t kind = d.get_u8();
  if (kind > static_cast<std::uint8_t>(TKind::kSwitchRestart)) d.fail();
  if (!d.ok()) return t;
  t.kind = static_cast<TKind>(kind);
  t.a = d.get_u32();
  t.aux = d.get_u32();
  t.fields.eth_src = d.get_u64();
  t.fields.eth_dst = d.get_u64();
  t.fields.eth_type = d.get_u64();
  t.fields.ip_src = d.get_u64();
  t.fields.ip_dst = d.get_u64();
  t.fields.ip_proto = d.get_u64();
  t.fields.tp_src = d.get_u64();
  t.fields.tp_dst = d.get_u64();
  t.fields.tcp_flags = d.get_u64();
  const std::uint32_t n = d.get_u32();
  if (n > d.remaining() / (sizeof(std::uint32_t) + sizeof(std::uint64_t))) {
    d.fail();
  }
  if (!d.ok()) return t;
  t.stats.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const of::PortId port = d.get_u32();
    const std::uint64_t bytes = d.get_u64();
    t.stats.emplace_back(port, bytes);
  }
  return t;
}

}  // namespace nicemc::mc
