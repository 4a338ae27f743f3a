// ReliableChannel — the SCTP-like shim: pass-through when disabled,
// retransmission through loss, receive-side dedup, backoff and abandonment.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "epc/fabric.h"
#include "epc/reliable.h"
#include "proto/s11.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace scale {
namespace {

struct RelNode final : epc::Endpoint {
  epc::Fabric& fabric;
  sim::NodeId node;
  epc::ReliableChannel rel;
  std::vector<proto::Imsi> got;

  bool alive = true;

  explicit RelNode(epc::Fabric& f)
      : fabric(f), node(f.add_endpoint(this)), rel(f, node) {}
  ~RelNode() override {
    if (alive) fabric.remove_endpoint(node);
  }
  /// Crash semantics (cf. ScaleCluster::retired_): the endpoint leaves the
  /// fabric but the object survives — armed retransmit timers capture the
  /// channel and must find it alive when they fire.
  void crash() {
    fabric.remove_endpoint(node);
    alive = false;
  }

  void receive(sim::NodeId from, const proto::Pdu& pdu) override {
    const proto::Pdu* app = rel.unwrap(from, pdu);
    if (app == nullptr) return;  // shim traffic
    const auto* s11 = std::get_if<proto::S11Message>(app);
    ASSERT_NE(s11, nullptr);
    const auto* req = std::get_if<proto::CreateSessionRequest>(s11);
    ASSERT_NE(req, nullptr);
    got.push_back(req->imsi);
  }
};

proto::Pdu ping(proto::Imsi imsi) {
  proto::CreateSessionRequest req;
  req.imsi = imsi;
  return proto::make_pdu(req);
}

struct ReliableTest : ::testing::Test {
  sim::Engine engine;
  sim::Network net{Duration::us(500), 42};
  epc::Fabric fabric{engine, net};

  void enable_transport() {
    epc::TransportConfig t;
    t.reliable = true;
    fabric.set_transport(t);
  }
};

TEST_F(ReliableTest, DisabledShimIsPassThrough) {
  RelNode a(fabric), b(fabric);
  ASSERT_FALSE(a.rel.enabled());
  a.rel.send(b.node, ping(7));
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_EQ(b.got[0], 7u);
  // No wrapping, no ack: exactly one message crossed the wire.
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(a.rel.retransmits(), 0u);
}

TEST_F(ReliableTest, CleanPathDeliversOnceAndAcks) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  a.rel.send(b.node, ping(1));
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 1u);
  // Segment + ack; no retransmission on a clean link.
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(a.rel.retransmits(), 0u);
  EXPECT_EQ(a.rel.abandoned(), 0u);
  EXPECT_TRUE(engine.idle()) << "acked send must leave no armed timer work";
}

TEST_F(ReliableTest, DeliversEverythingThroughHeavyLoss) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  sim::LinkFaults f;
  f.drop_prob = 0.3;  // both directions: data and acks get lost
  net.set_global_faults(f);
  const int kCount = 50;
  for (int i = 0; i < kCount; ++i) {
    engine.after(Duration::ms(static_cast<double>(i)),
                 [&a, &b, i]() { a.rel.send(b.node, ping(100 + i)); });
  }
  engine.run_until(Time::from_sec(120.0));
  ASSERT_EQ(b.got.size(), static_cast<std::size_t>(kCount))
      << "every send must eventually be delivered exactly once";
  std::vector<proto::Imsi> sorted = b.got;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kCount; ++i)
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], 100u + i);
  EXPECT_GT(a.rel.retransmits(), 0u);
  EXPECT_EQ(a.rel.abandoned(), 0u);
}

TEST_F(ReliableTest, FaultDuplicatesAreSuppressed) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  sim::LinkFaults f;
  f.dup_prob = 1.0;  // every PDU (segment AND ack) arrives twice
  net.set_global_faults(f);
  for (int i = 0; i < 10; ++i) a.rel.send(b.node, ping(200 + i));
  engine.run_until(Time::from_sec(30.0));
  ASSERT_EQ(b.got.size(), 10u);
  EXPECT_GT(b.rel.duplicates_suppressed(), 0u);
}

TEST_F(ReliableTest, RetransmitsAcrossLinkDownWindow) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  net.schedule_link_down(a.node, b.node, Time::zero(), Time::from_sec(1.0));
  a.rel.send(b.node, ping(5));
  engine.run_until(Time::from_sec(30.0));
  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_GE(a.rel.retransmits(), 1u);
  EXPECT_EQ(a.rel.abandoned(), 0u);
}

TEST_F(ReliableTest, AbandonsAfterMaxRetransmits) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  // Dead for far longer than the whole backoff budget
  // (250ms * 2^k capped at 4s, 8 retransmits ≈ 20s of trying).
  net.schedule_link_down(a.node, b.node, Time::zero(),
                         Time::from_sec(1000.0));
  a.rel.send(b.node, ping(6));
  engine.run_until(Time::from_sec(100.0));
  EXPECT_TRUE(b.got.empty());
  EXPECT_EQ(a.rel.abandoned(), 1u);
  EXPECT_EQ(a.rel.retransmits(), epc::TransportConfig::kMaxRetransmits);
}

TEST_F(ReliableTest, BackoffScheduleIsJitterlessAndCapped) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  net.schedule_link_down(a.node, b.node, Time::zero(),
                         Time::from_sec(1000.0));
  a.rel.send(b.node, ping(9));

  // Defaults: 250 ms initial, ×2 backoff, capped at 4 s — the k-th
  // retransmit fires exactly at the prefix sum 250, 750, 1750, 3750, 7750,
  // 11750, 15750, 19750 ms. No jitter: the schedule is a pure function of
  // the config, so stepping just past each boundary observes exactly one
  // more retransmission.
  const double kFireMs[] = {250, 750, 1750, 3750, 7750, 11750, 15750, 19750};
  for (std::size_t k = 0; k < 8; ++k) {
    engine.run_until(Time::from_sec(kFireMs[k] / 1000.0 - 0.001));
    EXPECT_EQ(a.rel.retransmits(), k) << "early at boundary " << k;
    engine.run_until(Time::from_sec(kFireMs[k] / 1000.0 + 0.001));
    EXPECT_EQ(a.rel.retransmits(), k + 1) << "late at boundary " << k;
  }
  // The capped RTO (4 s) runs out once more, then the send is abandoned.
  engine.run_until(Time::from_sec(100.0));
  EXPECT_EQ(a.rel.abandoned(), 1u);
  EXPECT_EQ(a.rel.retransmits(), epc::TransportConfig::kMaxRetransmits);
}

TEST_F(ReliableTest, RetryHorizonMatchesBackoffSchedule) {
  // 250 + 500 + 1000 + 2000 + 4 × 4000 (capped) = 19750 ms — the instant of
  // the last retransmission above.
  static_assert(epc::TransportConfig::retry_horizon() ==
                Duration::ms(19750.0));
}

TEST_F(ReliableTest, CrashedSenderStopsRetransmitting) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  net.schedule_link_down(a.node, b.node, Time::zero(), Time::from_sec(50.0));
  a.rel.send(b.node, ping(8));
  engine.run_until(Time::from_sec(1.0));  // a few retransmits already burned
  const std::uint64_t before = a.rel.retransmits();
  a.crash();  // VM crash: the endpoint leaves the fabric
  engine.run_until(Time::from_sec(100.0));
  // The next timer fires, sees the sender deregistered, and gives up:
  // no delivery, no further retransmissions, no abandonment counted.
  EXPECT_TRUE(b.got.empty());
  EXPECT_EQ(a.rel.retransmits(), before);
  EXPECT_EQ(a.rel.abandoned(), 0u);
}

TEST_F(ReliableTest, UnreliableSendBypassesShim) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  a.rel.send_unreliable(b.node, ping(4));
  engine.run_until(Time::from_sec(1.0));
  ASSERT_EQ(b.got.size(), 1u);
  // Unwrapped on the wire: one message, no ack, nothing pending.
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_TRUE(engine.idle());
}

TEST_F(ReliableTest, ReceiveWatermarkDedupsAcrossOrderAndGaps) {
  // Segments fed straight into the receiver's unwrap(), in a chosen order:
  // each must be delivered exactly once whether it arrives in order, above
  // a gap, as the gap fill that releases a buffered run, or again later.
  enable_transport();
  RelNode a(fabric), b(fabric);
  const auto delivered = [&](std::uint64_t seq) {
    const proto::Pdu seg = proto::make_pdu(proto::TransportData{
        .seq = seq, .attempt = 0, .inner = proto::box(ping(seq))});
    return b.rel.unwrap(a.node, seg) != nullptr;
  };
  EXPECT_TRUE(delivered(1));   // in order
  EXPECT_TRUE(delivered(2));   // in order
  EXPECT_TRUE(delivered(4));   // above the gap at 3
  EXPECT_TRUE(delivered(5));   // extends the buffered run
  EXPECT_FALSE(delivered(4));  // duplicate held above the gap
  EXPECT_TRUE(delivered(3));   // fills the gap, absorbs 4 and 5
  EXPECT_FALSE(delivered(2));  // duplicate below the watermark
  EXPECT_FALSE(delivered(5));  // absorbed run is below the watermark now
  EXPECT_TRUE(delivered(6));   // in order again right after the run
  EXPECT_TRUE(delivered(9));   // a second gap (7, 8)
  EXPECT_TRUE(delivered(7));   // partial fill: 8 still missing
  EXPECT_FALSE(delivered(9));  // still held above the remaining gap
  EXPECT_TRUE(delivered(8));   // closes it
  EXPECT_FALSE(delivered(7));
  EXPECT_FALSE(delivered(9));
  EXPECT_TRUE(delivered(10));
  EXPECT_EQ(b.rel.duplicates_suppressed(), 6u);
  // Every segment was acked, duplicates included.
  engine.run_until(Time::from_sec(1.0));
  EXPECT_EQ(net.messages_sent(), 16u);
}

// --- per-peer send ring and receive bit window -------------------------

/// Feed a TransportAck for `seq` from `from` straight into `rel`.
void ack(epc::ReliableChannel& rel, sim::NodeId from, std::uint64_t seq) {
  const proto::Pdu a = proto::make_pdu(proto::TransportAck{.seq = seq});
  EXPECT_EQ(rel.unwrap(from, a), nullptr) << "acks are shim traffic";
}

/// Feed segment `seq` from `from` into `rel`; true if it was delivered.
bool segment(epc::ReliableChannel& rel, sim::NodeId from, std::uint64_t seq) {
  const proto::Pdu seg = proto::make_pdu(proto::TransportData{
      .seq = seq, .attempt = 0, .inner = proto::box(ping(seq))});
  return rel.unwrap(from, seg) != nullptr;
}

TEST_F(ReliableTest, SendRingGrowsAndWrapsUnderOutOfOrderAcks) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  // 40 sends with nothing acked: the ring doubles 16 -> 32 -> 64.
  for (int i = 1; i <= 40; ++i) a.rel.send(b.node, ping(i));
  EXPECT_EQ(a.rel.unacked(), 40u);
  EXPECT_EQ(a.rel.peak_ring_slots(), 64u);
  // Evens first: the oldest seq (1) stays unacked, so the base cannot move.
  for (std::uint64_t s = 2; s <= 40; s += 2) ack(a.rel, b.node, s);
  EXPECT_EQ(a.rel.unacked(), 20u);
  // Odds newest-first: the base jumps past all 40 when seq 1 goes.
  for (int s = 39; s >= 1; s -= 2)
    ack(a.rel, b.node, static_cast<std::uint64_t>(s));
  EXPECT_EQ(a.rel.unacked(), 0u);
  // Many laps round the ring, ten sends in flight, acked in reverse pairs:
  // the span never exceeds the ring, so it must not grow again.
  std::uint64_t acked = 40;
  for (std::uint64_t s = 41; s <= 1040; ++s) {
    a.rel.send(b.node, ping(s));
    if (s - acked == 10) {
      ack(a.rel, b.node, acked + 2);
      ack(a.rel, b.node, acked + 1);
      acked += 2;
    }
  }
  EXPECT_EQ(a.rel.peak_ring_slots(), 64u);
  EXPECT_EQ(a.rel.unacked(), 1040u - acked);
  for (std::uint64_t s = 1040; s > acked; --s) ack(a.rel, b.node, s);
  EXPECT_EQ(a.rel.unacked(), 0u);
  // Every retransmit timer finds its slot cleared; b gets each segment once
  // and its acks land below the base as no-ops.
  engine.run_until(Time::from_sec(60.0));
  EXPECT_EQ(b.got.size(), 1040u);
  EXPECT_EQ(a.rel.retransmits(), 0u);
  EXPECT_EQ(a.rel.unacked(), 0u);
  EXPECT_TRUE(engine.idle());
}

TEST_F(ReliableTest, AbandonedSeqClearsItsSlotAndFreesTheBase) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  // Seq 1 is lost for longer than the whole retry horizon (19.75 s).
  net.schedule_link_down(a.node, b.node, Time::zero(), Time::from_sec(25.0));
  a.rel.send(b.node, ping(1));
  engine.run_until(Time::from_sec(26.0));
  ASSERT_EQ(a.rel.abandoned(), 1u);
  EXPECT_EQ(a.rel.unacked(), 0u);
  // Had the abandoned slot pinned the base, 30 more sends would span 31
  // seqs and outgrow the initial 16 slots.
  for (int i = 2; i <= 31; ++i) {
    a.rel.send(b.node, ping(i));
    engine.run_until(engine.now() + Duration::ms(10.0));
  }
  engine.run_until(Time::from_sec(60.0));
  EXPECT_EQ(b.got.size(), 30u);
  EXPECT_EQ(a.rel.unacked(), 0u);
  EXPECT_EQ(a.rel.peak_ring_slots(), 16u);
}

TEST_F(ReliableTest, LateAckBelowBaseIsANoOp) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  for (int i = 1; i <= 3; ++i) a.rel.send(b.node, ping(i));
  for (std::uint64_t s = 1; s <= 3; ++s) ack(a.rel, b.node, s);
  ASSERT_EQ(a.rel.unacked(), 0u);
  ack(a.rel, b.node, 1);   // duplicate, below the base
  ack(a.rel, b.node, 3);   // duplicate of the newest
  ack(a.rel, b.node, 99);  // never sent
  ack(a.rel, b.node, 0);   // seqs start at 1
  EXPECT_EQ(a.rel.unacked(), 0u);
  a.rel.send(b.node, ping(4));
  EXPECT_EQ(a.rel.unacked(), 1u);
  ack(a.rel, b.node, 2);
  EXPECT_EQ(a.rel.unacked(), 1u) << "a stale ack must not clear seq 4";
  ack(a.rel, b.node, 4);
  EXPECT_EQ(a.rel.unacked(), 0u);
}

TEST_F(ReliableTest, CrashedSenderDropsItsSlots) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  net.schedule_link_down(a.node, b.node, Time::zero(), Time::from_sec(50.0));
  for (int i = 1; i <= 20; ++i) a.rel.send(b.node, ping(i));
  ASSERT_EQ(a.rel.unacked(), 20u);
  a.crash();
  engine.run_until(Time::from_sec(100.0));
  // Each slot is dropped when its next timer finds the sender gone.
  EXPECT_EQ(a.rel.unacked(), 0u);
  EXPECT_EQ(a.rel.retransmits(), 0u);
  EXPECT_EQ(a.rel.abandoned(), 0u);
  EXPECT_TRUE(b.got.empty());
  EXPECT_TRUE(engine.idle());
}

TEST_F(ReliableTest, ReceiveGapWiderThanTheInitialWindow) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  // The window starts at 64 seqs above the watermark; 500 needs 512.
  EXPECT_TRUE(segment(b.rel, a.node, 1));
  EXPECT_TRUE(segment(b.rel, a.node, 40));   // marked in the first window
  EXPECT_TRUE(segment(b.rel, a.node, 500));  // grows it; 40 is re-placed
  EXPECT_TRUE(segment(b.rel, a.node, 200));
  EXPECT_FALSE(segment(b.rel, a.node, 500));
  EXPECT_FALSE(segment(b.rel, a.node, 40));
  // Fill the gap in order: marked seqs are absorbed, not delivered twice.
  for (std::uint64_t s = 2; s <= 499; ++s) {
    const bool marked = s == 40 || s == 200;
    EXPECT_EQ(segment(b.rel, a.node, s), !marked) << "seq " << s;
  }
  EXPECT_FALSE(segment(b.rel, a.node, 500));  // now below the watermark
  EXPECT_TRUE(segment(b.rel, a.node, 501));
  EXPECT_EQ(b.rel.duplicates_suppressed(), 5u);
}

TEST_F(ReliableTest, DuplicateSuppressedAcrossAFarAheadSegment) {
  enable_transport();
  RelNode a(fabric), b(fabric);
  EXPECT_TRUE(segment(b.rel, a.node, 1));
  EXPECT_TRUE(segment(b.rel, a.node, 100000));
  EXPECT_TRUE(segment(b.rel, a.node, 3));
  EXPECT_FALSE(segment(b.rel, a.node, 100000));
  EXPECT_FALSE(segment(b.rel, a.node, 3));
  EXPECT_TRUE(segment(b.rel, a.node, 2));      // absorbs 3
  EXPECT_FALSE(segment(b.rel, a.node, 3));
  EXPECT_TRUE(segment(b.rel, a.node, 4));
  EXPECT_TRUE(segment(b.rel, a.node, 99999));
  EXPECT_FALSE(segment(b.rel, a.node, 100000));
  EXPECT_FALSE(segment(b.rel, a.node, 99999));
  EXPECT_EQ(b.rel.duplicates_suppressed(), 5u);
}

}  // namespace
}  // namespace scale
