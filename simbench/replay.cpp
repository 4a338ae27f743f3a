// Isolated-call replays (see replay.h). Each replay runs five batches of
// calls and reports the median batch's cost per call.
#include "replay.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "epc/fabric.h"
#include "proto/codec.h"
#include "simbench.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace simbench {
namespace {

using namespace scale;

/// Defeats dead-code elimination of replayed calls.
volatile std::uint64_t g_sink = 0;

template <typename Batch>
Cost measure(std::size_t calls, Batch&& batch) {
  constexpr int kBatches = 5;
  std::array<double, kBatches> ns{};
  std::array<double, kBatches> allocs{};
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t a0 = alloc_calls();
    const double t0 = host_now_s();
    batch();
    ns[static_cast<std::size_t>(b)] =
        (host_now_s() - t0) * 1e9 / static_cast<double>(calls);
    allocs[static_cast<std::size_t>(b)] =
        static_cast<double>(alloc_calls() - a0) / static_cast<double>(calls);
  }
  std::sort(ns.begin(), ns.end());
  std::sort(allocs.begin(), allocs.end());
  return Cost{ns[kBatches / 2], allocs[kBatches / 2]};
}

/// Cycles the mix until `calls` calls were made.
template <typename Fn>
void cycle(const std::vector<proto::Pdu>& mix, std::size_t calls, Fn&& fn) {
  for (std::size_t i = 0; i < calls; ++i) fn(mix[i % mix.size()]);
}

constexpr std::size_t kCodecCalls = 50'000;

struct SinkEndpoint final : epc::Endpoint {
  std::uint64_t received = 0;
  void receive(sim::NodeId, const proto::Pdu&) override { ++received; }
};

proto::Pdu initial(proto::NasMessage nas) {
  proto::InitialUeMessage m;
  m.enb_id = 3;
  m.enb_ue_id = 42;
  m.tac = 7;
  m.nas = std::move(nas);
  return proto::make_pdu(std::move(m));
}

proto::Pdu downlink(proto::NasMessage nas) {
  proto::DownlinkNasTransport m;
  m.enb_id = 3;
  m.enb_ue_id = 42;
  m.nas = std::move(nas);
  return proto::make_pdu(std::move(m));
}

proto::Pdu uplink(proto::NasMessage nas) {
  proto::UplinkNasTransport m;
  m.enb_id = 3;
  m.enb_ue_id = 42;
  m.nas = std::move(nas);
  return proto::make_pdu(std::move(m));
}

/// One procedure's hops: eNB→MLB initial message, MLB→MMP forward,
/// MMP→MLB reply, MLB→eNB accept.
void add_procedure(std::vector<proto::Pdu>& out, proto::NasMessage up,
                   proto::NasMessage accept) {
  const proto::Guti guti{1, 1, 1, 0x10000001};
  proto::Pdu first = initial(std::move(up));
  proto::Pdu last = downlink(std::move(accept));
  proto::ClusterForward fwd;
  fwd.origin = 3;
  fwd.guti = guti;
  fwd.inner = proto::box(first);
  proto::ClusterReply reply;
  reply.target = 3;
  reply.inner = proto::box(last);
  out.push_back(std::move(first));
  out.push_back(proto::make_pdu(std::move(fwd)));
  out.push_back(proto::make_pdu(std::move(reply)));
  out.push_back(std::move(last));
}

proto::Pdu replica() {
  proto::ReplicaPush push;
  push.rec.imsi = 200'000'000'000'001ull;
  push.rec.guti = proto::Guti{1, 1, 1, 0x10000001};
  push.rec.tac = 7;
  push.rec.access_freq = 0.5;
  return proto::make_pdu(std::move(push));
}

}  // namespace

std::vector<proto::Pdu> pdu_mix(const Mix& mix) {
  std::vector<proto::Pdu> out;
  const auto copies = [](double w) {
    return static_cast<int>(std::lround(w * 20.0));
  };
  const proto::Guti guti{1, 1, 1, 0x10000001};
  for (int i = 0; i < copies(mix.sr); ++i) {
    proto::NasServiceRequest sr;
    sr.mme_code = 1;
    sr.m_tmsi = guti.m_tmsi;
    add_procedure(out, proto::NasMessage{sr},
                  proto::NasMessage{proto::NasServiceAccept{}});
    if (mix.replicas) out.push_back(replica());
  }
  for (int i = 0; i < copies(mix.tau); ++i) {
    proto::NasTauRequest tau;
    tau.guti = guti;
    tau.tac = 7;
    add_procedure(out, proto::NasMessage{tau},
                  proto::NasMessage{proto::NasTauAccept{}});
    if (mix.replicas) out.push_back(replica());
  }
  for (int i = 0; i < copies(mix.attach); ++i) {
    proto::NasAttachRequest req;
    req.imsi = 200'000'000'000'001ull;
    req.tac = 7;
    proto::NasAttachAccept acc;
    acc.guti = guti;
    add_procedure(out, proto::NasMessage{req}, proto::NasMessage{acc});
    out.push_back(downlink(proto::NasMessage{proto::NasAuthenticationRequest{}}));
    out.push_back(uplink(proto::NasMessage{proto::NasAuthenticationResponse{}}));
    out.push_back(downlink(proto::NasMessage{proto::NasSecurityModeCommand{}}));
    out.push_back(uplink(proto::NasMessage{proto::NasSecurityModeComplete{}}));
    out.push_back(uplink(proto::NasMessage{proto::NasAttachComplete{}}));
    if (mix.replicas) out.push_back(replica());
  }
  for (int i = 0; i < copies(mix.detach); ++i) {
    proto::NasDetachRequest req;
    req.guti = guti;
    out.push_back(uplink(proto::NasMessage{req}));
    out.push_back(downlink(proto::NasMessage{proto::NasDetachAccept{}}));
  }
  if (out.empty()) throw std::invalid_argument("empty procedure mix");
  return out;
}

Cost replay_event(std::size_t depth) {
  sim::Engine eng;
  // Park `depth` far-future events so every push and pop sees the depth.
  for (std::size_t i = 0; i < depth; ++i)
    eng.at(Time::from_us(1'000'000'000'000 + static_cast<std::int64_t>(i)),
           [] {});
  constexpr std::size_t kCalls = 100'000;
  std::uint64_t fired = 0;
  return measure(kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const Time t = eng.now() + Duration::us(1);
      eng.at(t, [&fired] { ++fired; });
      eng.run_until(t);
    }
    g_sink = g_sink + fired;
  });
}

Cost replay_wire_size(const std::vector<proto::Pdu>& mix) {
  return measure(kCodecCalls, [&] {
    std::uint64_t n = 0;
    cycle(mix, kCodecCalls, [&](const proto::Pdu& p) { n += proto::wire_size(p); });
    g_sink = g_sink + n;
  });
}

Cost replay_encode(const std::vector<proto::Pdu>& mix) {
  return measure(kCodecCalls, [&] {
    std::uint64_t n = 0;
    cycle(mix, kCodecCalls,
          [&](const proto::Pdu& p) { n += proto::encode_pdu(p).size(); });
    g_sink = g_sink + n;
  });
}

Cost replay_decode(const std::vector<proto::Pdu>& mix) {
  std::vector<std::vector<std::uint8_t>> wire;
  wire.reserve(mix.size());
  for (const proto::Pdu& p : mix) wire.push_back(proto::encode_pdu(p));
  return measure(kCodecCalls, [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kCodecCalls; ++i)
      n += proto::decode_pdu(wire[i % wire.size()]).index();
    g_sink = g_sink + n;
  });
}

Cost replay_hop(const std::vector<proto::Pdu>& mix) {
  sim::Engine eng;
  sim::Network net;
  epc::Fabric fabric(eng, net);
  SinkEndpoint a, b;
  const sim::NodeId from = fabric.add_endpoint(&a);
  const sim::NodeId to = fabric.add_endpoint(&b);
  const Duration hop = net.delay(from, to);
  const Cost c = measure(kCodecCalls, [&] {
    cycle(mix, kCodecCalls, [&](const proto::Pdu& p) {
      fabric.send(from, to, p);
      eng.run_until(eng.now() + hop);
    });
  });
  if (b.received != 5 * kCodecCalls)
    throw std::runtime_error("fabric hop replay lost a delivery");
  return c;
}

Cost replay_find(
    const std::vector<std::pair<const epc::UeContextStore*, std::uint64_t>>&
        lookups) {
  if (lookups.empty()) return Cost{};
  std::size_t missing = 0;
  const Cost c = measure(lookups.size(), [&] {
    missing = 0;
    for (const auto& [store, key] : lookups)
      if (store->find(key) == nullptr) ++missing;
  });
  if (missing != 0)
    throw std::runtime_error("UE store replay missed a master context");
  return c;
}

Cost replay_owner(const hash::ConsistentHashRing& ring,
                  const std::vector<std::uint64_t>& keys) {
  if (keys.empty()) return Cost{};
  return measure(keys.size(), [&] {
    std::uint64_t n = 0;
    for (std::uint64_t k : keys) n += ring.owner(k);
    g_sink = g_sink + n;
  });
}

}  // namespace simbench
