// Wire codec for top-level PDUs.
//
// encode_pdu/decode_pdu round-trip every message in the system; the MLB's
// protocol-parsing path and the codec tests/benches exercise them. wire_size
// reports the encoded size for network byte accounting by counting, not
// encoding: no byte is stored.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "proto/buffer.h"
#include "proto/pdu.h"

namespace scale::proto {

std::vector<std::uint8_t> encode_pdu(const Pdu& pdu);
[[nodiscard]] Pdu decode_pdu(std::span<const std::uint8_t> bytes);

/// Encode into an existing writer (family tag + body); the primitive that
/// encode_pdu and wire_size share.
void encode_pdu_into(const Pdu& pdu, ByteWriter& w);

/// Encoded size in bytes: runs encode_pdu_into through a counting
/// ByteWriter, so nothing is stored and nothing is allocated, and the size
/// can never drift from the encoder's layout.
std::size_t wire_size(const Pdu& pdu);

}  // namespace scale::proto
