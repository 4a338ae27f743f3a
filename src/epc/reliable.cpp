#include "epc/reliable.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scale::epc {

namespace {
// Starting sizes; both double on demand.
constexpr std::size_t kInitialRingSlots = 16;
constexpr std::size_t kInitialWindowWords = 1;  // 64 seqs above the watermark
}  // namespace

ReliableChannel::ReliableChannel(Fabric& fabric, NodeId self)
    : fabric_(fabric), self_(self), cfg_(fabric.transport()) {}

void ReliableChannel::send(NodeId to, proto::Pdu pdu) {
  if (!cfg_.reliable) {
    fabric_.send(self_, to, std::move(pdu));
    return;
  }
  Peer& peer = peers_[to];
  const std::uint64_t seq = ++peer.next_seq;
  if (seq - peer.base >= peer.ring.size()) grow_ring(peer);
  std::uint32_t index;
  if (!free_pending_.empty()) {
    index = free_pending_.back();
    free_pending_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  peer.ring[seq & (peer.ring.size() - 1)] = index;
  Pending& p = pending_[index];
  p = Pending{proto::box(std::move(pdu)), /*attempt=*/0,
              TransportConfig::kRtoInitial};
  transmit(to, seq, p);
  arm_timer(to, seq, p.rto);
}

void ReliableChannel::grow_ring(Peer& peer) {
  const std::size_t cap =
      peer.ring.empty() ? kInitialRingSlots : peer.ring.size() * 2;
  std::vector<std::uint32_t> ring(cap, kNoPending);
  // Move the live span [base, next_seq) over; next_seq is the send that
  // needed the room and has no slot yet.
  for (std::uint64_t s = peer.base; s < peer.next_seq; ++s)
    ring[s & (cap - 1)] = peer.ring[s & (peer.ring.size() - 1)];
  peer.ring = std::move(ring);
  peak_ring_slots_ = std::max(peak_ring_slots_, cap);
}

ReliableChannel::Pending* ReliableChannel::find_pending(Peer& peer,
                                                        std::uint64_t seq) {
  if (seq < peer.base || seq > peer.next_seq) return nullptr;
  const std::uint32_t index = peer.ring[seq & (peer.ring.size() - 1)];
  return index == kNoPending ? nullptr : &pending_[index];
}

void ReliableChannel::release(Peer& peer, std::uint64_t seq) {
  const std::size_t mask = peer.ring.size() - 1;
  std::uint32_t& slot = peer.ring[seq & mask];
  pending_[slot] = Pending{};
  free_pending_.push_back(slot);
  slot = kNoPending;
  while (peer.base <= peer.next_seq &&
         peer.ring[peer.base & mask] == kNoPending)
    ++peer.base;
}

void ReliableChannel::send_unreliable(NodeId to, proto::Pdu pdu) {
  fabric_.send(self_, to, std::move(pdu));
}

void ReliableChannel::transmit(NodeId to, std::uint64_t seq,
                               const Pending& p) {
  fabric_.send(self_, to,
               proto::make_pdu(proto::TransportData{
                   .seq = seq, .attempt = p.attempt, .inner = p.inner}));
}

void ReliableChannel::arm_timer(NodeId to, std::uint64_t seq, Duration rto) {
  // No cancellation: the timer fires and finds the entry gone when the ack
  // beat it — cheaper than tracking EventIds per segment.
  auto fn = [this, to, seq]() { on_timeout(to, seq); };
  static_assert(sim::InlineAction::fits_inline<decltype(fn)>,
                "retransmit timer capture must stay within the inline budget");
  fabric_.engine().after(rto, std::move(fn));
}

void ReliableChannel::on_timeout(NodeId to, std::uint64_t seq) {
  const auto peer_it = peers_.find(to);
  if (peer_it == peers_.end()) return;
  Peer& peer = peer_it->second;
  Pending* pending = find_pending(peer, seq);
  if (pending == nullptr) return;  // acked in the meantime
  // A crashed endpoint stops talking: its association is gone, and
  // retransmitting from a dead NodeId would resurrect it on the wire.
  if (!fabric_.is_registered(self_)) {
    release(peer, seq);
    return;
  }
  Pending& p = *pending;
  if (p.attempt >= TransportConfig::kMaxRetransmits) {
    ++abandoned_;
    SCALE_DEBUG("abandoned seq " << seq << " " << self_ << " -> " << to
                                 << " after " << p.attempt << " retransmits");
    if (obs::Tracer* tr = obs::Tracer::current()) {
      obs::Json args = obs::Json::object();
      args.set("peer", to);
      args.set("seq", seq);
      args.set("attempts", p.attempt);
      tr->instant(self_, "rto_abandon", fabric_.engine().now(),
                  std::move(args));
    }
    release(peer, seq);
    return;
  }
  ++p.attempt;
  ++retransmits_;
  p.rto = std::min(p.rto * TransportConfig::kRtoBackoff,
                   TransportConfig::kRtoMax);
  if (obs::Tracer* tr = obs::Tracer::current()) {
    obs::Json args = obs::Json::object();
    args.set("peer", to);
    args.set("seq", seq);
    args.set("attempt", p.attempt);
    args.set("rto_ms", p.rto.to_ms());
    tr->instant(self_, "rto_retransmit", fabric_.engine().now(),
                std::move(args));
  }
  transmit(to, seq, p);
  arm_timer(to, seq, p.rto);
}

bool ReliableChannel::register_seq(Peer& peer, std::uint64_t seq) {
  if (seq <= peer.cum) return false;
  if (seq != peer.cum + 1) {
    // Out of order: mark it above the gap (the gap itself is still
    // missing, so the watermark cannot move).
    if (seq - peer.cum > peer.window.size() * 64) grow_window(peer, seq);
    const std::uint64_t bit = seq & (peer.window.size() * 64 - 1);
    std::uint64_t& word = peer.window[bit >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
    if ((word & mask) != 0) return false;
    word |= mask;
    ++peer.above;
    return true;
  }
  // In order — the common case: advance the watermark, then absorb any
  // marked run this segment made contiguous.
  ++peer.cum;
  while (peer.above > 0) {
    const std::uint64_t bit = (peer.cum + 1) & (peer.window.size() * 64 - 1);
    std::uint64_t& word = peer.window[bit >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
    if ((word & mask) == 0) break;
    word &= ~mask;
    --peer.above;
    ++peer.cum;
  }
  return true;
}

void ReliableChannel::grow_window(Peer& peer, std::uint64_t seq) {
  std::size_t words =
      peer.window.empty() ? kInitialWindowWords : peer.window.size() * 2;
  while (seq - peer.cum > words * 64) words *= 2;
  std::vector<std::uint64_t> window(words, 0);
  // Re-place the marks: every marked seq lies in (cum + 1, cum + old bits].
  const std::uint64_t old_bits = peer.window.size() * 64;
  for (std::uint64_t s = peer.cum + 2; s <= peer.cum + old_bits; ++s) {
    const std::uint64_t from = s & (old_bits - 1);
    if ((peer.window[from >> 6] >> (from & 63) & 1) == 0) continue;
    const std::uint64_t to = s & (words * 64 - 1);
    window[to >> 6] |= std::uint64_t{1} << (to & 63);
  }
  peer.window = std::move(window);
}

const proto::Pdu* ReliableChannel::unwrap(NodeId from,
                                          const proto::Pdu& pdu) {
  const auto* cluster = std::get_if<proto::ClusterMessage>(&pdu);
  if (cluster == nullptr) return &pdu;
  if (const auto* ack = std::get_if<proto::TransportAck>(cluster)) {
    const auto peer_it = peers_.find(from);
    if (peer_it != peers_.end()) {
      Peer& peer = peer_it->second;
      if (find_pending(peer, ack->seq) != nullptr) release(peer, ack->seq);
    }
    return nullptr;
  }
  if (const auto* data = std::get_if<proto::TransportData>(cluster)) {
    // Ack unconditionally: the duplicate we are about to suppress may be a
    // retransmission caused by our earlier ack getting dropped.
    send_unreliable(from, proto::make_pdu(proto::TransportAck{
                              .seq = data->seq}));
    if (!register_seq(peers_[from], data->seq)) {
      ++dups_suppressed_;
      return nullptr;
    }
    return &data->inner->value;
  }
  return &pdu;
}

void ReliableChannel::export_metrics(obs::MetricsRegistry& reg,
                                     const std::string& prefix) const {
  reg.set_counter(prefix + ".retransmits", retransmits_);
  reg.set_counter(prefix + ".abandoned", abandoned_);
  reg.set_counter(prefix + ".dups_suppressed", dups_suppressed_);
}

}  // namespace scale::epc
