// Tests of the canonical switch-state representation (paper Section 2.2.2,
// "merging equivalent flow tables" — generalized to buffer-id and copy-id
// naming): interleavings that produce behaviourally isomorphic states must
// serialize identically in canonical mode and (usually) differently in the
// raw NO-SWITCH-REDUCTION form.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "of/switch.h"

namespace nicemc::of {
namespace {

Packet pkt(std::uint64_t dst, std::uint32_t uid, std::uint32_t copy) {
  Packet p;
  p.hdr.eth_src = 0x0a;
  p.hdr.eth_dst = dst;
  p.uid = uid;
  p.copy_id = copy;
  return p;
}

util::Hash128 hash_switch(const Switch& sw, bool canonical) {
  util::Ser s;
  sw.serialize(s, canonical);
  return s.hash();
}

TEST(Canonical, BufferIdsRenamedByContent) {
  // Buffer the same two packets in opposite orders: raw ids swap, so the
  // raw serialization differs while the canonical one matches.
  auto build = [](bool reversed) {
    Switch sw(0, {1, 2});
    const Packet a = pkt(0xb1, 1, 0);
    const Packet b = pkt(0xb2, 2, 0);
    sw.enqueue_packet(1, reversed ? b : a);
    sw.process_pkt();
    sw.enqueue_packet(1, reversed ? a : b);
    sw.process_pkt();
    // Drain of_out so only the buffers differ in naming.
    while (!sw.of_out().empty()) sw.pop_of_out();
    return sw;
  };
  const Switch fwd = build(false);
  const Switch rev = build(true);
  EXPECT_EQ(hash_switch(fwd, true), hash_switch(rev, true));
  EXPECT_NE(hash_switch(fwd, false), hash_switch(rev, false));
}

TEST(Canonical, PendingPacketInMessagesRenamedConsistently) {
  // Same as above but keep the packet_in messages in flight: their buffer
  // ids must be renamed with the same map as the buffer entries.
  auto build = [](bool reversed) {
    Switch sw(0, {1, 2});
    const Packet a = pkt(0xb1, 1, 0);
    const Packet b = pkt(0xb2, 2, 0);
    sw.enqueue_packet(1, reversed ? b : a);
    sw.process_pkt();
    sw.enqueue_packet(1, reversed ? a : b);
    sw.process_pkt();
    return sw;
  };
  const Switch fwd = build(false);
  const Switch rev = build(true);
  // The of_out FIFO order still differs (messages arrived in different
  // orders) — that is a real behavioural difference, so canonical hashes
  // must differ here.
  EXPECT_NE(hash_switch(fwd, true), hash_switch(rev, true));
}

TEST(Canonical, CopyIdsExcludedFromCanonicalForm) {
  auto build = [](std::uint32_t copy) {
    Switch sw(0, {1, 2});
    sw.enqueue_packet(1, pkt(0xb1, 1, copy));
    return sw;
  };
  const Switch a = build(7);
  const Switch b = build(9);
  EXPECT_EQ(hash_switch(a, true), hash_switch(b, true));
  EXPECT_NE(hash_switch(a, false), hash_switch(b, false));
}

TEST(Canonical, NextBufferIdExcludedFromCanonicalForm) {
  auto build = [](bool churn) {
    Switch sw(0, {1, 2});
    if (churn) {
      // Buffer and release once: bumps the buffer-id counter, leaves no
      // trace.
      sw.enqueue_packet(1, pkt(0xbb, 9, 0));
      sw.process_pkt();
      const auto& pin = std::get<PacketIn>(sw.of_out().front());
      PacketOut po;
      po.buffer_id = pin.buffer_id;
      po.actions = {Action::output(2)};
      sw.push_of(po);
      sw.pop_of_out();
      sw.process_of();
      // Also reset the port counters the churn perturbed.
      sw.port_stats_mut()[1] = PortStatsEntry{};
      sw.port_stats_mut()[2] = PortStatsEntry{};
    }
    return sw;
  };
  const Switch clean = build(false);
  const Switch churned = build(true);
  EXPECT_EQ(hash_switch(clean, true), hash_switch(churned, true));
  EXPECT_NE(hash_switch(clean, false), hash_switch(churned, false));
}

TEST(Canonical, DifferentBufferContentsStayDistinct) {
  auto build = [](std::uint64_t dst) {
    Switch sw(0, {1, 2});
    sw.enqueue_packet(1, pkt(dst, 1, 0));
    sw.process_pkt();
    while (!sw.of_out().empty()) sw.pop_of_out();
    return sw;
  };
  EXPECT_NE(hash_switch(build(0xb1), true), hash_switch(build(0xb2), true));
}

TEST(Canonical, UidRemainsSemanticallySignificant) {
  // uids feed the correctness monitors; they are NOT erased by
  // canonicalization.
  auto build = [](std::uint32_t uid) {
    Switch sw(0, {1, 2});
    sw.enqueue_packet(1, pkt(0xb1, uid, 0));
    return sw;
  };
  EXPECT_NE(hash_switch(build(1), true), hash_switch(build(2), true));
}

// ---- Buffer ids that name no live entry ------------------------------------

/// A switch whose buffer holds `entries` (raw id → packet), with a
/// flooding packet_out for buffer `po_id` at the head of of_in.
Switch with_buffered_flood(
    const std::vector<std::pair<std::uint32_t, Packet>>& entries,
    std::uint32_t po_id) {
  Switch sw(0, {1, 2, 3});
  Switch::Buffer& buf = sw.buffer_mut();
  for (const auto& [bid, p] : entries) {
    buf.entries.emplace(bid, BufferedPacket{p, 1});
  }
  // Ids are never reused: every id named below was handed out already.
  buf.next_id = 8;
  PacketOut po;
  po.buffer_id = po_id;
  po.actions = {Action::flood()};
  sw.push_of(ToSwitch{po}, 1);
  return sw;
}

TEST(Canonical, StaleBufferIdDoesNotAliasADenseRank) {
  // {2:A, 3:B} with packet_out(1): id 1 is stale. {1:A, 3:B} with
  // packet_out(1): id 1 is A, the first content rank. A stale id passed
  // through raw would read as that rank.
  const Packet a = pkt(0xb1, 1, 0);
  const Packet b = pkt(0xb2, 2, 0);
  Switch stale = with_buffered_flood({{2, a}, {3, b}}, 1);
  Switch live = with_buffered_flood({{1, a}, {3, b}}, 1);
  EXPECT_NE(hash_switch(stale, true), hash_switch(live, true));

  // The premise: kSwitchProcessOf behaves differently in the two states.
  const OfOutcome stale_oc = stale.process_of();
  const OfOutcome live_oc = live.process_of();
  EXPECT_TRUE(stale_oc.missing_buffer);
  EXPECT_FALSE(stale_oc.packet.has_value());
  EXPECT_FALSE(live_oc.missing_buffer);
  ASSERT_TRUE(live_oc.packet.has_value());
  EXPECT_EQ(live_oc.packet->packet, a);
  EXPECT_EQ(live_oc.packet->forwards.size(), 2u);
}

TEST(Canonical, StaleBufferIdsShareOneName) {
  // Two stale ids behave the same (the switch reports a missing buffer),
  // so the states must merge.
  const Packet a = pkt(0xb1, 1, 0);
  Switch one = with_buffered_flood({{3, a}}, 1);
  Switch seven = with_buffered_flood({{3, a}}, 7);
  EXPECT_EQ(hash_switch(one, true), hash_switch(seven, true));
  EXPECT_NE(hash_switch(one, false), hash_switch(seven, false));

  // The premise: both report the missing buffer and end up equal.
  EXPECT_TRUE(one.process_of().missing_buffer);
  EXPECT_TRUE(seven.process_of().missing_buffer);
  EXPECT_EQ(hash_switch(one, true), hash_switch(seven, true));
}

}  // namespace
}  // namespace nicemc::of
