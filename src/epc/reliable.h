// SCTP-like reliability shim for control-plane associations.
//
// The paper's prototype rides on SCTP ("SCTP connections using an interface
// similar to S1AP", §5), which the seed fabric abstracted away as exactly-once
// delivery. With the FaultPlane able to drop/duplicate/reorder PDUs, every
// entity that must survive chaos owns one ReliableChannel per node: sends are
// wrapped in sequence-numbered TransportData segments, each segment is acked
// (TransportAck) and retransmitted on an exponentially backed-off timer until
// acked or abandoned, and the receive side deduplicates by sequence number so
// retransmitted or fault-duplicated PDUs never double-execute a procedure.
//
// Per peer, everything lives in one struct with no per-segment heap node:
// unacked sends are found through a seq-indexed ring, and the receive side
// keeps a cumulative watermark plus a bit window of segments delivered
// above it. Rings, windows and the channel's slab of unacked sends grow by
// doubling and are then reused, so a steady association allocates nothing
// per send.
//
// With TransportConfig::reliable == false (the default) the shim is a strict
// pass-through: send() forwards to the fabric unwrapped and unwrap() returns
// the PDU untouched, so the clean-path message/byte counts are identical to
// a build without the shim.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "epc/fabric.h"
#include "proto/pdu.h"

namespace scale::epc {

class ReliableChannel {
 public:
  /// Snapshots the fabric's TransportConfig — set it before building the
  /// world. `self` is the owning endpoint's NodeId (sender of segments and
  /// acks).
  ReliableChannel(Fabric& fabric, NodeId self);

  bool enabled() const { return cfg_.reliable; }

  /// Reliable send: wrapped, sequenced, retransmitted until acked or
  /// abandoned after kMaxRetransmits attempts. Pass-through when disabled.
  void send(NodeId to, proto::Pdu pdu);

  /// Fire-and-forget send bypassing the shim even when enabled — used for
  /// acks (an ack of an ack would regress) and periodic load reports, which
  /// are superseded by the next report anyway.
  void send_unreliable(NodeId to, proto::Pdu pdu);

  /// Filter an incoming PDU through the shim. Returns nullptr when the PDU
  /// was consumed (a TransportAck, or a duplicate segment) — the caller must
  /// stop processing. Otherwise returns the application PDU: either `pdu`
  /// itself (unwrapped traffic) or the segment's inner PDU, which aliases
  /// storage inside `pdu` and stays valid for the caller's receive() scope.
  [[nodiscard]] const proto::Pdu* unwrap(NodeId from, const proto::Pdu& pdu);

  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t abandoned() const { return abandoned_; }
  std::uint64_t duplicates_suppressed() const { return dups_suppressed_; }
  /// Reliable sends still awaiting an ack, over all peers.
  std::size_t unacked() const { return pending_.size() - free_pending_.size(); }
  /// Largest send ring any peer has grown to, in slots (0 before the first
  /// reliable send).
  std::size_t peak_ring_slots() const { return peak_ring_slots_; }

  /// Publish shim counters under `prefix` (".retransmits", ".abandoned",
  /// ".dups_suppressed"). Read-only.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  /// One unacked send, held in the channel-wide `pending_` slab.
  struct Pending {
    proto::PduRef inner;
    std::uint32_t attempt = 0;
    Duration rto;
  };
  /// Ring slot of a seq that is acked, abandoned or not yet sent.
  static constexpr std::uint32_t kNoPending = 0xFFFFFFFFu;
  /// Both directions of the association with one peer.
  struct Peer {
    // Send side: seq s in [base, next_seq] owns ring[s & (size - 1)], which
    // holds its index in pending_. An ack or an abandon clears the slot,
    // and base advances past cleared slots; the ring doubles when the span
    // outgrows it. One segment retransmitted for its whole retry horizon
    // holds the base back, so the ring spans every send made meanwhile:
    // its slots are 4-byte indices rather than Pending records for that
    // reason.
    std::uint64_t next_seq = 0;  // last seq sent
    std::uint64_t base = 1;      // oldest seq that may still be unacked
    std::vector<std::uint32_t> ring;
    // Receive side, the shape of an SCTP SACK (cumulative TSN + gap
    // blocks): every seq <= cum was delivered, and a delivered seq s above
    // it sets bit s & (bits - 1) of `window`, for s <= cum + bits.
    std::uint64_t cum = 0;
    std::vector<std::uint64_t> window;
    std::size_t above = 0;  // bits set in `window`
  };

  void transmit(NodeId to, std::uint64_t seq, const Pending& p);
  void arm_timer(NodeId to, std::uint64_t seq, Duration rto);
  void on_timeout(NodeId to, std::uint64_t seq);
  void grow_ring(Peer& peer);
  /// The unacked send `seq`, or nullptr if it was acked or abandoned.
  Pending* find_pending(Peer& peer, std::uint64_t seq);
  /// Free an acked or abandoned send and advance the peer's base.
  void release(Peer& peer, std::uint64_t seq);
  /// Returns false if `seq` was already delivered from this peer.
  [[nodiscard]] static bool register_seq(Peer& peer, std::uint64_t seq);
  static void grow_window(Peer& peer, std::uint64_t seq);

  Fabric& fabric_;
  NodeId self_;
  TransportConfig cfg_;
  std::unordered_map<NodeId, Peer> peers_;
  std::vector<Pending> pending_;             // slab, all peers
  std::vector<std::uint32_t> free_pending_;  // free slab entries, LIFO
  std::size_t peak_ring_slots_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t dups_suppressed_ = 0;
};

}  // namespace scale::epc
