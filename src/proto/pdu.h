// Top-level PDU: anything that can traverse a link in the system — a
// standard-interface message (S1AP / S11 / S6) or a cluster-internal one.
#pragma once

#include <memory>
#include <variant>

#include "proto/box_alloc.h"
#include "proto/cluster.h"
#include "proto/s11.h"
#include "proto/s1ap.h"
#include "proto/s6.h"

namespace scale::proto {

using Pdu = std::variant<S1apMessage, S11Message, S6Message, ClusterMessage>;

/// Heap box that lets cluster envelopes carry a full Pdu (the variant cannot
/// contain itself by value).
struct PduBox {
  Pdu value;
};

inline PduRef box(Pdu pdu) {
  // allocate_shared with the free-list allocator: one recycled block carries
  // both the control block and the PduBox (see box_alloc.h).
  return std::allocate_shared<const PduBox>(BoxAlloc<const PduBox>{},
                                            PduBox{std::move(pdu)});
}

/// Convenience constructors that collapse the two-level variant.
inline Pdu pdu_of(S1apMessage m) { return Pdu{std::move(m)}; }
inline Pdu pdu_of(S11Message m) { return Pdu{std::move(m)}; }
inline Pdu pdu_of(S6Message m) { return Pdu{std::move(m)}; }
inline Pdu pdu_of(ClusterMessage m) { return Pdu{std::move(m)}; }

/// Wrap a concrete message struct directly into a Pdu.
template <typename T>
Pdu make_pdu(T msg) {
  if constexpr (std::is_constructible_v<S1apMessage, T>)
    return Pdu{S1apMessage{std::move(msg)}};
  else if constexpr (std::is_constructible_v<S11Message, T>)
    return Pdu{S11Message{std::move(msg)}};
  else if constexpr (std::is_constructible_v<S6Message, T>)
    return Pdu{S6Message{std::move(msg)}};
  else
    return Pdu{ClusterMessage{std::move(msg)}};
}

const char* pdu_name(const Pdu& pdu);

}  // namespace scale::proto
