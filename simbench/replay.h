// Isolated-call replays: each times one public entry point of a layer on
// inputs taken from the workload (its PDU mix, its keys, its queue depth).
// They are estimates of a call's cost out of context — reported beside
// run.unattributed_s, never as measured self time.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "epc/ue_context.h"
#include "hash/ring.h"
#include "proto/pdu.h"

namespace simbench {

struct Cost {
  double ns = 0.0;      ///< host nanoseconds per call (median of batches)
  double allocs = 0.0;  ///< operator new calls per call
};

/// Procedure weights the canonical PDU mix is drawn with.
struct Mix {
  double sr = 0.0;
  double tau = 0.0;
  double attach = 0.0;
  double detach = 0.0;
  bool replicas = false;  ///< the master pushes a replica per procedure
};

/// The S1AP / NAS / cluster PDUs one procedure of each class puts on the
/// fabric (uplink initial message, MLB→MMP forward, MMP→MLB reply,
/// downlink accept, optional replica push), repeated by weight.
std::vector<scale::proto::Pdu> pdu_mix(const Mix& mix);

/// Engine::at + run_until on an engine holding `depth` pending events.
Cost replay_event(std::size_t depth);
/// proto::wire_size / encode_pdu / decode_pdu over the mix.
Cost replay_wire_size(const std::vector<scale::proto::Pdu>& mix);
Cost replay_encode(const std::vector<scale::proto::Pdu>& mix);
Cost replay_decode(const std::vector<scale::proto::Pdu>& mix);
/// Fabric::send to a sink endpoint, delivered by the engine (one hop).
Cost replay_hop(const std::vector<scale::proto::Pdu>& mix);
/// UeContextStore::find on the workload's GUTI keys at their owner store.
Cost replay_find(
    const std::vector<std::pair<const scale::epc::UeContextStore*,
                                std::uint64_t>>& lookups);
/// ConsistentHashRing::owner on the workload's GUTI keys.
Cost replay_owner(const scale::hash::ConsistentHashRing& ring,
                  const std::vector<std::uint64_t>& keys);

}  // namespace simbench
