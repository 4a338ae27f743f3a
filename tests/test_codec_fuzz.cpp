// Codec robustness fuzz: random byte soup and random mutations of valid
// PDUs must either decode or throw CodecError — never crash, hang, or
// return trailing-garbage successes.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "proto/codec.h"

namespace scale::proto {
namespace {

TEST(CodecFuzz, RandomBytesNeverCrash) {
  Rng rng(20260708);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t len = rng.next_below(64);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    try {
      const Pdu pdu = decode_pdu(bytes);
      // If it decoded, re-encoding must reproduce the input exactly
      // (canonical wire form, no trailing slack accepted).
      EXPECT_EQ(encode_pdu(pdu), bytes);
      EXPECT_EQ(wire_size(pdu), bytes.size());
    } catch (const CodecError&) {
      // Expected for almost all inputs.
    }
  }
}

TEST(CodecFuzz, MutatedValidPdusNeverCrash) {
  Rng rng(42);
  NasAttachRequest nas;
  nas.imsi = 123456789012345ull;
  nas.old_guti = Guti{310, 17, 3, 0xBEEF01};
  nas.tac = 7;
  const auto base = encode_pdu(
      make_pdu(InitialUeMessage{9, 8, 7, NasMessage{nas}}));

  int decoded = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    auto bytes = base;
    // Flip 1-3 random bytes.
    const int flips = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < flips; ++f)
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      (void)decode_pdu(bytes);
      ++decoded;
    } catch (const CodecError&) {
    }
  }
  // Most single-byte payload flips still parse (they change field values,
  // not framing); the point is zero crashes either way.
  EXPECT_GT(decoded, 0);
}

TEST(CodecFuzz, DeeplyNestedEnvelopeBounded) {
  // An attacker nesting envelopes could try to blow the stack; our inner
  // PDUs are length-prefixed and decode recursively. Verify a sane depth
  // works and produces matching re-encoding.
  Pdu pdu = make_pdu(Paging{1, 2});
  for (int depth = 0; depth < 64; ++depth) {
    ClusterForward fwd;
    fwd.origin = static_cast<std::uint32_t>(depth);
    fwd.inner = box(std::move(pdu));
    pdu = make_pdu(fwd);
  }
  const auto bytes = encode_pdu(pdu);
  EXPECT_EQ(wire_size(pdu), bytes.size());
  const Pdu back = decode_pdu(bytes);
  EXPECT_EQ(encode_pdu(back), bytes);
}

}  // namespace
}  // namespace scale::proto
