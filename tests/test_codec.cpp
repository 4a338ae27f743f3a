// Round-trip and robustness tests for the full PDU codec — every message
// family that can cross a link.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <variant>
#include <vector>

#include "common/check.h"

#include "proto/codec.h"

namespace scale::proto {
namespace {

Guti test_guti() { return Guti{310, 17, 3, 0xBEEF01}; }

template <typename T>
void expect_roundtrip(T msg) {
  const Pdu pdu = make_pdu(std::move(msg));
  const auto bytes = encode_pdu(pdu);
  const Pdu decoded = decode_pdu(bytes);
  EXPECT_STREQ(pdu_name(pdu), pdu_name(decoded));
  // Re-encoding the decoded PDU must be byte-identical (canonical form).
  EXPECT_EQ(encode_pdu(decoded), bytes);
}

TEST(Codec, GutiKeyInjective) {
  const Guti a{1, 2, 3, 400}, b{1, 2, 3, 401}, c{1, 2, 4, 400};
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_EQ(a.key(), (Guti{1, 2, 3, 400}).key());
}

TEST(Codec, NasAttachRequestWithAndWithoutGuti) {
  NasAttachRequest with;
  with.imsi = 123456789012345ull;
  with.old_guti = test_guti();
  with.tac = 7;
  expect_roundtrip(InitialUeMessage{1, 2, 7, NasMessage{with}});

  NasAttachRequest without;
  without.imsi = 1;
  expect_roundtrip(InitialUeMessage{1, 2, 7, NasMessage{without}});
}

TEST(Codec, NasFieldFidelity) {
  NasAttachRequest req;
  req.imsi = 0xFFFFFFFFFFFFull;
  req.old_guti = test_guti();
  req.tac = 0xABCD;
  ByteWriter w;
  encode_nas(NasMessage{req}, w);
  ByteReader r(w.data());
  const NasMessage decoded = decode_nas(r);
  ASSERT_TRUE(std::holds_alternative<NasAttachRequest>(decoded));
  EXPECT_EQ(std::get<NasAttachRequest>(decoded), req);
}

TEST(Codec, AllNasMessagesRoundTrip) {
  const std::vector<NasMessage> msgs = {
      NasAttachRequest{1, test_guti(), 2},
      NasAuthenticationRequest{0xAAAA, 0xBBBB},
      NasAuthenticationResponse{0xCCCC},
      NasSecurityModeCommand{1, 2},
      NasSecurityModeComplete{},
      NasAttachAccept{test_guti(), 7200},
      NasAttachComplete{},
      NasServiceRequest{3, 0xBEEF01, 0x55},
      NasServiceAccept{},
      NasServiceReject{9},
      NasTauRequest{test_guti(), 12, true},
      NasTauAccept{test_guti(), 1800},
      NasDetachRequest{test_guti()},
      NasDetachAccept{},
  };
  for (const auto& m : msgs) {
    ByteWriter w;
    encode_nas(m, w);
    ByteReader r(w.data());
    const NasMessage back = decode_nas(r);
    EXPECT_STREQ(nas_name(m), nas_name(back));
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Codec, AllS1apMessagesRoundTrip) {
  expect_roundtrip(InitialUeMessage{9, 8, 7, NasMessage{NasServiceRequest{}}});
  expect_roundtrip(UplinkNasTransport{9, 8, MmeUeId::make(3, 100),
                                      NasMessage{NasAuthenticationResponse{}}});
  expect_roundtrip(DownlinkNasTransport{9, 8, MmeUeId::make(3, 100),
                                        NasMessage{NasAttachAccept{}}});
  expect_roundtrip(InitialContextSetupRequest{9, 8, MmeUeId::make(3, 1),
                                              Teid::make(3, 5)});
  expect_roundtrip(InitialContextSetupResponse{9, 8, MmeUeId::make(3, 1),
                                               Teid::make(0, 6)});
  expect_roundtrip(UeContextReleaseCommand{
      9, 8, MmeUeId::make(3, 1), ReleaseCause::kLoadBalancingTauRequired});
  expect_roundtrip(UeContextReleaseComplete{9, 8, MmeUeId::make(3, 1)});
  expect_roundtrip(Paging{0xBEEF, 12});
  expect_roundtrip(PathSwitchRequest{10, 8, MmeUeId::make(3, 1), 12});
  expect_roundtrip(PathSwitchAck{10, 8, MmeUeId::make(3, 1)});
  expect_roundtrip(OverloadStart{2, 250000});
}

TEST(Codec, OverloadRejectFieldFidelity) {
  OverloadReject rej;
  rej.mmp_node = 4;
  rej.origin = 9;
  rej.guti = test_guti();
  rej.backoff_us = 200000;
  rej.procedure = 2;  // kTrackingAreaUpdate
  rej.level = 3;      // kOverload
  rej.inner = box(make_pdu(Paging{1, 2}));
  const auto bytes = encode_pdu(make_pdu(ClusterMessage{rej}));
  const Pdu decoded = decode_pdu(bytes);
  const auto& back = std::get<OverloadReject>(std::get<ClusterMessage>(decoded));
  EXPECT_EQ(back.mmp_node, 4u);
  EXPECT_EQ(back.backoff_us, 200000u);
  EXPECT_EQ(back.procedure, 2u);
  EXPECT_EQ(back.level, 3u);
  ASSERT_NE(back.inner, nullptr);
}

TEST(Codec, AllS11MessagesRoundTrip) {
  expect_roundtrip(CreateSessionRequest{123, Teid::make(2, 9)});
  expect_roundtrip(CreateSessionResponse{Teid::make(2, 9), Teid{77}});
  expect_roundtrip(ModifyBearerRequest{Teid{77}, Teid::make(2, 9), 5});
  expect_roundtrip(ModifyBearerResponse{Teid::make(2, 9)});
  expect_roundtrip(ReleaseAccessBearersRequest{Teid{77}, Teid::make(2, 9)});
  expect_roundtrip(ReleaseAccessBearersResponse{Teid::make(2, 9)});
  expect_roundtrip(DeleteSessionRequest{Teid{77}, Teid::make(2, 9)});
  expect_roundtrip(DeleteSessionResponse{Teid::make(2, 9)});
  expect_roundtrip(DownlinkDataNotification{Teid::make(2, 9)});
  expect_roundtrip(DownlinkDataNotificationAck{Teid{77}});
}

TEST(Codec, AllS6MessagesRoundTrip) {
  expect_roundtrip(AuthInfoRequest{123, 42});
  expect_roundtrip(AuthInfoAnswer{123, 42, true, 1, 2, 3});
  expect_roundtrip(UpdateLocationRequest{123, 7, 42});
  expect_roundtrip(UpdateLocationAnswer{123, true, 9, 42});
}

TEST(Codec, HopRefEchoPreserved) {
  AuthInfoAnswer ans;
  ans.imsi = 5;
  ans.hop_ref = 0xDEADBEEF;
  const auto bytes = encode_pdu(make_pdu(ans));
  const Pdu decoded = decode_pdu(bytes);
  const auto& s6 = std::get<S6Message>(decoded);
  EXPECT_EQ(std::get<AuthInfoAnswer>(s6).hop_ref, 0xDEADBEEFu);
}

TEST(Codec, UeContextRecordFullFidelity) {
  UeContextRecord rec;
  rec.imsi = 123456789012345ull;
  rec.guti = test_guti();
  rec.active = true;
  rec.enb_id = 42;
  rec.enb_ue_id = 77;
  rec.mme_ue_id = MmeUeId::make(9, 1000);
  rec.sgw_teid = Teid{555};
  rec.mme_teid = Teid::make(9, 666);
  rec.tac = 12;
  rec.kasme = 0x1122334455667788ull;
  rec.access_freq = 0.73;
  rec.version = 15;
  rec.master_mmp = 3;
  rec.home_dc = 2;
  rec.external_dc = 1;
  rec.sgw_node = 88;
  rec.state_bytes = 4096;

  ByteWriter w;
  rec.encode(w);
  ByteReader r(w.data());
  EXPECT_EQ(UeContextRecord::decode(r), rec);
}

TEST(Codec, ClusterEnvelopesRoundTrip) {
  ClusterForward fwd;
  fwd.origin = 9;
  fwd.guti = test_guti();
  fwd.no_offload = true;
  fwd.inner = box(make_pdu(Paging{1, 2}));
  const auto bytes = encode_pdu(make_pdu(fwd));
  const Pdu decoded = decode_pdu(bytes);
  const auto& cluster = std::get<ClusterMessage>(decoded);
  const auto& back = std::get<ClusterForward>(cluster);
  EXPECT_EQ(back.origin, 9u);
  EXPECT_TRUE(back.no_offload);
  EXPECT_EQ(back.guti, test_guti());
  ASSERT_NE(back.inner, nullptr);
  EXPECT_STREQ(pdu_name(back.inner->value), "Paging");
}

TEST(Codec, NestedEnvelopesRoundTrip) {
  // Reply carrying a forward carrying an S1AP message — two levels deep.
  ClusterForward fwd;
  fwd.origin = 1;
  fwd.inner = box(make_pdu(Paging{5, 6}));
  ClusterReply reply;
  reply.target = 2;
  reply.inner = box(make_pdu(fwd));
  const auto bytes = encode_pdu(make_pdu(reply));
  const Pdu decoded = decode_pdu(bytes);
  const auto& outer =
      std::get<ClusterReply>(std::get<ClusterMessage>(decoded));
  const auto& inner_fwd = std::get<ClusterForward>(
      std::get<ClusterMessage>(outer.inner->value));
  EXPECT_STREQ(pdu_name(inner_fwd.inner->value), "Paging");
}

TEST(Codec, GeoMessagesRoundTrip) {
  GeoForward gf;
  gf.origin = 1;
  gf.home_dc = 2;
  gf.home_mlb = 3;
  gf.guti = test_guti();
  gf.inner = box(make_pdu(Paging{1, 1}));
  expect_roundtrip(gf);

  GeoReject rej;
  rej.guti = test_guti();
  rej.origin = 4;
  rej.inner = box(make_pdu(Paging{1, 1}));
  expect_roundtrip(rej);

  expect_roundtrip(GeoBudgetGossip{3, 123.5});
  expect_roundtrip(GeoEvictRequest{3, 0.25});
}

TEST(Codec, RingUpdateRoundTrip) {
  RingUpdate update;
  update.version = 42;
  for (std::uint32_t i = 1; i <= 30; ++i)
    update.members.push_back({i * 100, static_cast<std::uint8_t>(i)});
  const auto bytes = encode_pdu(make_pdu(update));
  const Pdu decoded = decode_pdu(bytes);  // `back` views into it
  const auto& back =
      std::get<RingUpdate>(std::get<ClusterMessage>(decoded));
  EXPECT_EQ(back.version, 42u);
  ASSERT_EQ(back.members.size(), 30u);
  EXPECT_EQ(back.members[7], update.members[7]);
}

TEST(Codec, ReplicaAndTransferRoundTrip) {
  UeContextRecord rec;
  rec.guti = test_guti();
  expect_roundtrip(ReplicaPush{rec, true});
  expect_roundtrip(ReplicaAck{test_guti(), 3, 1});
  expect_roundtrip(ReplicaDelete{test_guti()});
  expect_roundtrip(StateTransfer{rec});
  expect_roundtrip(StateTransferAck{test_guti()});
  expect_roundtrip(LoadReport{5, 0.87, 120});
}

TEST(Codec, MalformedInputsThrowNotCrash) {
  // Unknown family tag.
  const std::uint8_t bad_family[] = {99, 0, 0};
  EXPECT_THROW(decode_pdu(bad_family), CodecError);
  // Unknown S1AP type.
  const std::uint8_t bad_type[] = {1, 200};
  EXPECT_THROW(decode_pdu(bad_type), CodecError);
  // Truncated valid prefix.
  const auto good = encode_pdu(make_pdu(Paging{1, 2}));
  for (std::size_t cut = 1; cut < good.size(); ++cut) {
    std::span<const std::uint8_t> prefix(good.data(), cut);
    EXPECT_THROW(decode_pdu(prefix), CodecError) << "cut at " << cut;
  }
  // Trailing garbage after a valid PDU.
  auto padded = good;
  padded.push_back(0);
  EXPECT_THROW(decode_pdu(padded), CodecError);
}

/// One PDU per alternative of every family (NAS rides in
/// UplinkNasTransport), plus nested envelopes: what wire_size's counting
/// pass must agree with the real encode on.
std::vector<Pdu> every_pdu() {
  UeContextRecord rec;
  rec.imsi = 123456789012345ull;
  rec.guti = test_guti();
  rec.external_dc = 2;
  const auto initial = [] {
    return make_pdu(InitialUeMessage{
        1, 2, 3, NasMessage{NasAttachRequest{42, test_guti(), 3}}});
  };
  std::vector<Pdu> out;
  // S1AP.
  out.push_back(initial());
  out.push_back(make_pdu(UplinkNasTransport{
      9, 8, MmeUeId::make(3, 100), NasMessage{NasAuthenticationResponse{}}}));
  out.push_back(make_pdu(DownlinkNasTransport{
      9, 8, MmeUeId::make(3, 100), NasMessage{NasAttachAccept{}}}));
  out.push_back(make_pdu(InitialContextSetupRequest{
      9, 8, MmeUeId::make(3, 1), Teid::make(3, 5)}));
  out.push_back(make_pdu(InitialContextSetupResponse{
      9, 8, MmeUeId::make(3, 1), Teid::make(0, 6)}));
  out.push_back(make_pdu(UeContextReleaseCommand{
      9, 8, MmeUeId::make(3, 1), ReleaseCause::kLoadBalancingTauRequired}));
  out.push_back(make_pdu(UeContextReleaseComplete{9, 8, MmeUeId::make(3, 1)}));
  out.push_back(make_pdu(Paging{0xBEEF, 12}));
  out.push_back(make_pdu(PathSwitchRequest{10, 8, MmeUeId::make(3, 1), 12}));
  out.push_back(make_pdu(PathSwitchAck{10, 8, MmeUeId::make(3, 1)}));
  out.push_back(make_pdu(OverloadStart{2, 250000}));
  // NAS.
  const std::vector<NasMessage> nas = {
      NasAttachRequest{1, test_guti(), 2},
      NasAttachRequest{1, std::nullopt, 2},
      NasAuthenticationRequest{0xAAAA, 0xBBBB},
      NasAuthenticationResponse{0xCCCC},
      NasSecurityModeCommand{1, 2},
      NasSecurityModeComplete{},
      NasAttachAccept{test_guti(), 7200},
      NasAttachComplete{},
      NasServiceRequest{3, 0xBEEF01, 0x55},
      NasServiceAccept{},
      NasServiceReject{9},
      NasTauRequest{test_guti(), 12, true},
      NasTauAccept{test_guti(), 1800},
      NasDetachRequest{test_guti()},
      NasDetachAccept{},
  };
  for (const auto& m : nas)
    out.push_back(make_pdu(UplinkNasTransport{1, 2, MmeUeId::make(3, 4), m}));
  // S11.
  out.push_back(make_pdu(CreateSessionRequest{123, Teid::make(2, 9)}));
  out.push_back(make_pdu(CreateSessionResponse{Teid::make(2, 9), Teid{77}}));
  out.push_back(make_pdu(ModifyBearerRequest{Teid{77}, Teid::make(2, 9), 5}));
  out.push_back(make_pdu(ModifyBearerResponse{Teid::make(2, 9)}));
  out.push_back(
      make_pdu(ReleaseAccessBearersRequest{Teid{77}, Teid::make(2, 9)}));
  out.push_back(make_pdu(ReleaseAccessBearersResponse{Teid::make(2, 9)}));
  out.push_back(make_pdu(DeleteSessionRequest{Teid{77}, Teid::make(2, 9)}));
  out.push_back(make_pdu(DeleteSessionResponse{Teid::make(2, 9)}));
  out.push_back(make_pdu(DownlinkDataNotification{Teid::make(2, 9)}));
  out.push_back(make_pdu(DownlinkDataNotificationAck{Teid{77}}));
  // S6.
  out.push_back(make_pdu(AuthInfoRequest{123, 42}));
  out.push_back(make_pdu(AuthInfoAnswer{123, 42, true, 1, 2, 3}));
  out.push_back(make_pdu(UpdateLocationRequest{123, 7, 42}));
  out.push_back(make_pdu(UpdateLocationAnswer{123, true, 9, 42}));
  // Cluster.
  ClusterForward fwd;
  fwd.origin = 9;
  fwd.guti = test_guti();
  fwd.inner = box(initial());
  out.push_back(make_pdu(fwd));
  ClusterReply reply;
  reply.target = 2;
  reply.inner = box(make_pdu(Paging{5, 6}));
  out.push_back(make_pdu(reply));
  out.push_back(make_pdu(ReplicaPush{rec, true}));
  out.push_back(make_pdu(ReplicaAck{test_guti(), 3, 1}));
  out.push_back(make_pdu(ReplicaDelete{test_guti()}));
  out.push_back(make_pdu(StateTransfer{rec}));
  out.push_back(make_pdu(StateTransferAck{test_guti()}));
  out.push_back(make_pdu(LoadReport{5, 0.87, 120}));
  RingUpdate ring;
  ring.version = 7;
  for (std::uint32_t i = 1; i <= 200; ++i)
    ring.members.push_back({i * 10, static_cast<std::uint8_t>(i)});
  out.push_back(make_pdu(ring));
  out.push_back(make_pdu(RingUpdate{}));
  out.push_back(make_pdu(GeoBudgetGossip{3, 123.5, 0.4, 0.01}));
  GeoForward gf;
  gf.origin = 1;
  gf.home_dc = 2;
  gf.home_mlb = 3;
  gf.guti = test_guti();
  gf.inner = box(initial());
  out.push_back(make_pdu(gf));
  GeoReject gr;
  gr.guti = test_guti();
  gr.origin = 4;
  gr.inner = box(initial());
  out.push_back(make_pdu(gr));
  out.push_back(make_pdu(GeoEvictRequest{3, 0.25}));
  out.push_back(make_pdu(StateFetch{test_guti()}));
  out.push_back(make_pdu(StateFetchResp{test_guti(), true, rec}));
  // TransportData{ClusterForward{InitialUeMessage}}: the reliable-shim hop
  // of an MLB forward.
  out.push_back(make_pdu(TransportData{.seq = 77, .attempt = 2,
                                       .inner = box(make_pdu(fwd))}));
  out.push_back(make_pdu(TransportAck{77}));
  OverloadReject rej;
  rej.mmp_node = 4;
  rej.origin = 9;
  rej.guti = test_guti();
  rej.backoff_us = 200000;
  rej.procedure = 2;
  rej.level = 3;
  rej.inner = box(initial());
  out.push_back(make_pdu(rej));
  // Three deep: reply{transport{forward{initial}}}.
  ClusterReply deep;
  deep.target = 5;
  deep.inner = box(make_pdu(TransportData{
      .seq = 1, .attempt = 0, .inner = box(make_pdu(fwd))}));
  out.push_back(make_pdu(deep));
  return out;
}

TEST(Codec, WireSizeMatchesEncodedSize) {
  std::set<std::string> names;
  std::set<std::string> nas_names;
  for (const Pdu& pdu : every_pdu()) {
    EXPECT_EQ(wire_size(pdu), encode_pdu(pdu).size()) << pdu_name(pdu);
    names.insert(pdu_name(pdu));
    if (const auto* s1 = std::get_if<S1apMessage>(&pdu))
      if (const auto* ul = std::get_if<UplinkNasTransport>(s1))
        nas_names.insert(nas_name(ul->nas));
  }
  // Every alternative of every family is covered.
  EXPECT_EQ(names.size(),
            std::variant_size_v<S1apMessage> + std::variant_size_v<S11Message> +
                std::variant_size_v<S6Message> +
                std::variant_size_v<ClusterMessage>);
  EXPECT_EQ(nas_names.size(), std::variant_size_v<NasMessage>);
}

/// Big-endian u32 length, spelled out byte by byte so the check does not
/// rest on ByteWriter.
void append_be32(std::vector<std::uint8_t>& out, std::size_t n) {
  for (int shift = 24; shift >= 0; shift -= 8)
    out.push_back(static_cast<std::uint8_t>((n >> shift) & 0xFF));
}

TEST(Codec, EnvelopeFramingIsHeaderLengthThenInner) {
  // An envelope encodes as its header fields, then a big-endian u32 length,
  // then encode_pdu(inner) verbatim — at every depth.
  const Pdu initial = make_pdu(InitialUeMessage{
      1, 2, 3, NasMessage{NasAttachRequest{42, test_guti(), 3}}});
  constexpr std::uint8_t kClusterFamily = 4;

  ClusterForward fwd;
  fwd.origin = 9;
  fwd.guti = test_guti();
  fwd.no_offload = true;
  fwd.inner = box(initial);
  const Pdu depth1 = make_pdu(fwd);
  ByteWriter h1;
  h1.u8(kClusterFamily);
  h1.u8(static_cast<std::uint8_t>(ClusterType::kForward));
  h1.u32(9);
  test_guti().encode(h1);
  h1.boolean(true);
  std::vector<std::uint8_t> want1 = h1.data();
  const auto inner1 = encode_pdu(initial);
  append_be32(want1, inner1.size());
  want1.insert(want1.end(), inner1.begin(), inner1.end());
  EXPECT_EQ(encode_pdu(depth1), want1);

  const Pdu depth2 = make_pdu(
      TransportData{.seq = 0x0102030405060708ull, .attempt = 3,
                    .inner = box(depth1)});
  ByteWriter h2;
  h2.u8(kClusterFamily);
  h2.u8(static_cast<std::uint8_t>(ClusterType::kTransportData));
  h2.u64(0x0102030405060708ull);
  h2.u32(3);
  std::vector<std::uint8_t> want2 = h2.data();
  append_be32(want2, want1.size());
  want2.insert(want2.end(), want1.begin(), want1.end());
  EXPECT_EQ(encode_pdu(depth2), want2);

  ClusterReply reply;
  reply.target = 0xA0B0C0D0;
  reply.inner = box(depth2);
  const Pdu depth3 = make_pdu(reply);
  ByteWriter h3;
  h3.u8(kClusterFamily);
  h3.u8(static_cast<std::uint8_t>(ClusterType::kReply));
  h3.u32(0xA0B0C0D0);
  std::vector<std::uint8_t> want3 = h3.data();
  append_be32(want3, want2.size());
  want3.insert(want3.end(), want2.begin(), want2.end());
  EXPECT_EQ(encode_pdu(depth3), want3);

  for (const Pdu* p : {&depth1, &depth2, &depth3}) {
    const auto bytes = encode_pdu(*p);
    EXPECT_EQ(wire_size(*p), bytes.size());
    EXPECT_EQ(encode_pdu(decode_pdu(bytes)), bytes);
  }
}

TEST(Codec, MmeUeIdAndTeidEmbedding) {
  const MmeUeId id = MmeUeId::make(0xAB, 0x123456);
  EXPECT_EQ(id.mmp_id(), 0xAB);
  EXPECT_EQ(id.seq(), 0x123456u);
  const Teid teid = Teid::make(0xCD, 0x654321);
  EXPECT_EQ(teid.owner_id(), 0xCD);
  EXPECT_TRUE(teid.valid());
  EXPECT_FALSE(Teid{}.valid());
}

}  // namespace
}  // namespace scale::proto
