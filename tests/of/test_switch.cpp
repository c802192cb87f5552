#include "of/switch.h"

#include <gtest/gtest.h>

namespace nicemc::of {
namespace {

Packet packet_to(std::uint64_t dst, std::uint32_t uid = 1) {
  Packet p;
  p.hdr.eth_src = 0x0a;
  p.hdr.eth_dst = dst;
  p.hdr.eth_type = kEthTypeIpv4;
  p.uid = uid;
  return p;
}

Rule forward_rule(std::uint64_t dst, PortId out) {
  Rule r;
  r.match.fields = static_cast<std::uint16_t>(MatchField::kEthDst);
  r.match.eth_dst = dst;
  r.actions = {Action::output(out)};
  return r;
}

TEST(Switch, NoMatchBuffersAndSendsPacketIn) {
  Switch sw(0, {1, 2});
  sw.enqueue_packet(1, packet_to(0x0b));
  ASSERT_TRUE(sw.can_process_pkt());
  const auto outcomes = sw.process_pkt();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].to_controller);
  EXPECT_EQ(outcomes[0].reason, PacketIn::Reason::kNoMatch);
  EXPECT_EQ(sw.buffer().size(), 1u);
  ASSERT_EQ(sw.of_out().size(), 1u);
  const auto& pin = std::get<PacketIn>(sw.of_out().front());
  EXPECT_EQ(pin.in_port, 1u);
  EXPECT_EQ(pin.buffer_id, outcomes[0].buffer_id);
}

TEST(Switch, MatchingRuleForwardsAndCounts) {
  Switch sw(0, {1, 2});
  sw.push_of(FlowMod{FlowMod::Cmd::kAdd, forward_rule(0x0b, 2)});
  sw.process_of();
  sw.enqueue_packet(1, packet_to(0x0b));
  const auto outcomes = sw.process_pkt();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].forwards.size(), 1u);
  EXPECT_EQ(outcomes[0].forwards[0].first, 2u);
  EXPECT_EQ(sw.table().rules()[0].packet_count, 1u);
  EXPECT_EQ(sw.port_stats().at(2).tx_packets, 1u);
  EXPECT_EQ(sw.port_stats().at(1).rx_packets, 1u);
}

TEST(Switch, FloodExpandsToAllPortsExceptIngress) {
  Switch sw(0, {1, 2, 3, 4});
  Rule r = forward_rule(0x0b, 0);
  r.actions = {Action::flood()};
  sw.push_of(FlowMod{FlowMod::Cmd::kAdd, r});
  sw.process_of();
  sw.enqueue_packet(2, packet_to(0x0b));
  const auto outcomes = sw.process_pkt();
  ASSERT_EQ(outcomes[0].forwards.size(), 3u);
  for (const auto& [port, pkt] : outcomes[0].forwards) {
    EXPECT_NE(port, 2u);
  }
}

TEST(Switch, ProcessPktDequeuesHeadOfEveryChannel) {
  // Paper Section 2.2.2: one transition processes the head packet of every
  // non-empty ingress channel.
  Switch sw(0, {1, 2});
  sw.enqueue_packet(1, packet_to(0x0b, 1));
  sw.enqueue_packet(1, packet_to(0x0b, 2));
  sw.enqueue_packet(2, packet_to(0x0c, 3));
  const auto outcomes = sw.process_pkt();
  EXPECT_EQ(outcomes.size(), 2u);  // heads of port 1 and port 2
  EXPECT_EQ(sw.in_ports().at(1).size(), 1u);
  EXPECT_TRUE(sw.in_ports().at(2).empty());
}

TEST(Switch, RuleWithControllerActionBuffersWithActionReason) {
  Switch sw(0, {1, 2});
  Rule r = forward_rule(0x0b, 0);
  r.actions = {Action::controller()};
  sw.push_of(FlowMod{FlowMod::Cmd::kAdd, r});
  sw.process_of();
  sw.enqueue_packet(1, packet_to(0x0b));
  const auto outcomes = sw.process_pkt();
  EXPECT_TRUE(outcomes[0].to_controller);
  EXPECT_EQ(outcomes[0].reason, PacketIn::Reason::kAction);
}

TEST(Switch, EmptyActionListDropsPacket) {
  Switch sw(0, {1, 2});
  Rule r = forward_rule(0x0b, 0);
  r.actions = {};
  sw.push_of(FlowMod{FlowMod::Cmd::kAdd, r});
  sw.process_of();
  sw.enqueue_packet(1, packet_to(0x0b));
  const auto outcomes = sw.process_pkt();
  EXPECT_TRUE(outcomes[0].dropped_by_rule);
  EXPECT_TRUE(outcomes[0].forwards.empty());
}

TEST(Switch, PacketOutReleasesBufferedPacket) {
  Switch sw(0, {1, 2});
  sw.enqueue_packet(1, packet_to(0x0b));
  const auto in = sw.process_pkt();
  const std::uint32_t bid = in[0].buffer_id;

  PacketOut po;
  po.buffer_id = bid;
  po.actions = {Action::output(2)};
  sw.push_of(po);
  const auto oc = sw.process_of();
  ASSERT_TRUE(oc.packet.has_value());
  EXPECT_TRUE(oc.packet->from_buffer);
  ASSERT_EQ(oc.packet->forwards.size(), 1u);
  EXPECT_EQ(oc.packet->forwards[0].first, 2u);
  EXPECT_TRUE(sw.buffer().empty());
}

TEST(Switch, PacketOutWithEmptyActionsConsumesBuffer) {
  Switch sw(0, {1, 2});
  sw.enqueue_packet(1, packet_to(0x0b));
  const auto in = sw.process_pkt();
  PacketOut po;
  po.buffer_id = in[0].buffer_id;
  sw.push_of(po);
  const auto oc = sw.process_of();
  ASSERT_TRUE(oc.packet.has_value());
  EXPECT_TRUE(oc.packet->explicit_discard);
  EXPECT_TRUE(sw.buffer().empty());
  EXPECT_EQ(sw.forgotten_packets(), 0u);
}

TEST(Switch, PacketOutForUnknownBufferFlagsMissing) {
  Switch sw(0, {1});
  PacketOut po;
  po.buffer_id = 42;
  sw.push_of(po);
  const auto oc = sw.process_of();
  EXPECT_TRUE(oc.missing_buffer);
}

TEST(Switch, BufferCapacityDropsExcessPackets) {
  Switch sw(0, {1, 2}, /*buf_capacity=*/1);
  sw.enqueue_packet(1, packet_to(0x0b, 1));
  sw.enqueue_packet(1, packet_to(0x0c, 2));
  (void)sw.process_pkt();  // buffers uid 1
  const auto outcomes = sw.process_pkt();
  EXPECT_TRUE(outcomes[0].dropped_buffer_full);
  EXPECT_EQ(sw.buffer().size(), 1u);
}

TEST(Switch, StatsRequestRepliesWithPortCounters) {
  Switch sw(0, {1, 2});
  sw.push_of(FlowMod{FlowMod::Cmd::kAdd, forward_rule(0x0b, 2)});
  sw.process_of();
  sw.enqueue_packet(1, packet_to(0x0b));
  sw.process_pkt();
  sw.push_of(StatsRequest{.xid = 7});
  const auto oc = sw.process_of();
  EXPECT_TRUE(oc.stats_replied);
  const auto& reply = std::get<StatsReply>(sw.of_out().front());
  EXPECT_EQ(reply.xid, 7u);
  EXPECT_EQ(reply.ports.at(2).tx_bytes, 100u);
}

TEST(Switch, BarrierRequestIsAcknowledged) {
  Switch sw(0, {1});
  sw.push_of(BarrierRequest{.xid = 9});
  const auto oc = sw.process_of();
  EXPECT_TRUE(oc.barrier_replied);
  EXPECT_EQ(std::get<BarrierReply>(sw.of_out().front()).xid, 9u);
}

TEST(Switch, LoopDetectionOnRevisit) {
  Switch sw(0, {1, 2});
  Packet p = packet_to(0x0b);
  p.visited.push_back(Hop{0, 1});  // already entered sw0 on port 1
  sw.enqueue_packet(1, p);
  const auto outcomes = sw.process_pkt();
  EXPECT_TRUE(outcomes[0].revisited);
}

TEST(Switch, SerializationDistinguishesCanonicalAndRawTables) {
  auto build = [](bool reorder) {
    Switch sw(0, {1});
    Rule r1 = forward_rule(0x0a, 1);
    Rule r2 = forward_rule(0x0b, 1);
    sw.push_of(FlowMod{FlowMod::Cmd::kAdd, reorder ? r2 : r1});
    sw.process_of();
    sw.push_of(FlowMod{FlowMod::Cmd::kAdd, reorder ? r1 : r2});
    sw.process_of();
    return sw;
  };
  const Switch a = build(false);
  const Switch b = build(true);
  util::Ser ca;
  util::Ser cb;
  a.serialize(ca, true);
  b.serialize(cb, true);
  EXPECT_EQ(ca.hash(), cb.hash());
  util::Ser ra;
  util::Ser rb;
  a.serialize(ra, false);
  b.serialize(rb, false);
  EXPECT_NE(ra.hash(), rb.hash());
}

TEST(Switch, FlowModDeleteRemovesRules) {
  Switch sw(0, {1, 2});
  sw.push_of(FlowMod{FlowMod::Cmd::kAdd, forward_rule(0x0b, 2)});
  sw.process_of();
  FlowMod del;
  del.cmd = FlowMod::Cmd::kDelete;
  del.rule.match = forward_rule(0x0b, 2).match;
  sw.push_of(del);
  const auto oc = sw.process_of();
  EXPECT_EQ(oc.removed_count, 1u);
  ASSERT_TRUE(oc.removed_match.has_value());
  EXPECT_TRUE(sw.table().empty());
}

}  // namespace
}  // namespace nicemc::of
