// MmeApp driven directly through its hooks — no fabric, no UE, no eNodeB:
// pins the exact message sequence each procedure FSM emits.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "mme/mme_app.h"
#include "proto/codec.h"

namespace scale::mme {
namespace {

struct Harness {
  sim::Engine engine;
  sim::CpuModel cpu{engine};
  std::vector<std::string> outbox;  // "iface:MessageName"
  std::vector<proto::S1apMessage> to_enb;
  std::vector<proto::S11Message> to_sgw;
  std::vector<proto::S6Message> to_hss;
  /// Optional probe run inside the to_enb hook, i.e. mid-procedure.
  std::function<void()> on_to_enb;
  std::unique_ptr<MmeApp> app;

  explicit Harness(MmeApp::Config cfg = {}) {
    cfg.hop_ref = 42;
    app = std::make_unique<MmeApp>(
        engine, cpu, cfg,
        MmeAppHooks{
            .to_enb =
                [this](sim::NodeId, proto::S1apMessage m) {
                  outbox.push_back(std::string("s1ap:") + proto::s1ap_name(m));
                  to_enb.push_back(std::move(m));
                  if (on_to_enb) on_to_enb();
                },
            .to_sgw =
                [this](const UeContext&, proto::S11Message m) {
                  outbox.push_back(std::string("s11:") + proto::s11_name(m));
                  to_sgw.push_back(std::move(m));
                },
            .to_hss =
                [this](proto::S6Message m) {
                  outbox.push_back(std::string("s6:") + proto::s6_name(m));
                  to_hss.push_back(std::move(m));
                },
            .paging_enbs = [](proto::Tac) {
              return std::vector<sim::NodeId>{501, 502};
            },
            .admission = nullptr,
            .after_procedure = nullptr,
            .on_idle = nullptr,
            .before_detach = nullptr,
        });
  }

  // Each step runs 100 ms of simulated time: enough for every CPU slice of
  // one procedure step, while the 5 s inactivity timer stays pending and
  // out of the message sequences.
  void settle() { engine.run_until(engine.now() + Duration::ms(100.0)); }
  void s1ap(const proto::S1apMessage& m) {
    app->handle_s1ap(/*enb=*/500, m);
    settle();
  }
  void s11(const proto::S11Message& m) {
    app->handle_s11(m);
    settle();
  }
  void s6(const proto::S6Message& m) {
    app->handle_s6(m);
    settle();
  }

  proto::InitialUeMessage initial(proto::NasMessage nas) {
    proto::InitialUeMessage msg;
    msg.enb_id = 500;
    msg.enb_ue_id = 71;
    msg.tac = 9;
    msg.nas = std::move(nas);
    return msg;
  }
};

TEST(MmeAppUnit, ColdAttachEmitsExactSequence) {
  Harness h;
  proto::NasAttachRequest attach;
  attach.imsi = 12345;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  // Step 1: EPS-AKA vector request.
  ASSERT_EQ(h.outbox, (std::vector<std::string>{"s6:AuthInfoRequest"}));
  EXPECT_EQ(std::get<proto::AuthInfoRequest>(h.to_hss[0]).hop_ref, 42u);

  proto::AuthInfoAnswer ans;
  ans.imsi = 12345;
  ans.rand = 7;
  ans.autn = 8;
  ans.xres = 0xFEED;
  h.s6(proto::S6Message{ans});
  ASSERT_EQ(h.outbox.back(), "s1ap:DownlinkNasTransport");
  // Copy (not reference): to_enb grows on later steps and may reallocate.
  const auto dl = std::get<proto::DownlinkNasTransport>(h.to_enb.back());
  ASSERT_TRUE(
      std::holds_alternative<proto::NasAuthenticationRequest>(dl.nas));

  proto::UplinkNasTransport auth_resp;
  auth_resp.enb_ue_id = 71;
  auth_resp.mme_ue_id = dl.mme_ue_id;
  auth_resp.nas =
      proto::NasMessage{proto::NasAuthenticationResponse{0xFEED}};
  h.s1ap(proto::S1apMessage{auth_resp});
  ASSERT_TRUE(std::holds_alternative<proto::NasSecurityModeCommand>(
      std::get<proto::DownlinkNasTransport>(h.to_enb.back()).nas));

  proto::UplinkNasTransport smc;
  smc.enb_ue_id = 71;
  smc.mme_ue_id = dl.mme_ue_id;
  smc.nas = proto::NasMessage{proto::NasSecurityModeComplete{}};
  h.s1ap(proto::S1apMessage{smc});
  // Update Location + Create Session follow the security establishment.
  ASSERT_GE(h.outbox.size(), 2u);
  EXPECT_EQ(h.outbox[h.outbox.size() - 2], "s6:UpdateLocationRequest");
  EXPECT_EQ(h.outbox.back(), "s11:CreateSessionRequest");

  proto::CreateSessionResponse csr;
  csr.mme_teid = std::get<proto::CreateSessionRequest>(h.to_sgw.back())
                     .mme_teid;
  csr.sgw_teid = proto::Teid{99};
  h.s11(proto::S11Message{csr});

  // Accept + radio context setup close the procedure.
  const auto n = h.outbox.size();
  ASSERT_GE(n, 2u);
  EXPECT_EQ(h.outbox[n - 2], "s1ap:DownlinkNasTransport");
  EXPECT_EQ(h.outbox[n - 1], "s1ap:InitialContextSetupRequest");
  const auto& accept_dl =
      std::get<proto::DownlinkNasTransport>(h.to_enb[h.to_enb.size() - 2]);
  ASSERT_TRUE(std::holds_alternative<proto::NasAttachAccept>(accept_dl.nas));
  EXPECT_EQ(
      h.app->counters().procedures[static_cast<int>(
          proto::ProcedureType::kAttach)],
      1u);
  // The context is fully indexed and active.
  auto* ctx = h.app->store().find_by_imsi(12345);
  ASSERT_NE(ctx, nullptr);
  EXPECT_TRUE(ctx->rec.active);
  EXPECT_EQ(ctx->rec.sgw_teid, proto::Teid{99});
}

TEST(MmeAppUnit, WrongResRejectsAndAbortsTransaction) {
  Harness h;
  proto::NasAttachRequest attach;
  attach.imsi = 777;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  proto::AuthInfoAnswer ans;
  ans.imsi = 777;
  ans.xres = 1111;
  h.s6(proto::S6Message{ans});
  const auto mme_ue_id =
      std::get<proto::DownlinkNasTransport>(h.to_enb.back()).mme_ue_id;

  proto::UplinkNasTransport bad;
  bad.enb_ue_id = 71;
  bad.mme_ue_id = mme_ue_id;
  bad.nas = proto::NasMessage{proto::NasAuthenticationResponse{2222}};
  h.s1ap(proto::S1apMessage{bad});

  EXPECT_EQ(h.app->counters().auth_failures, 1u);
  ASSERT_TRUE(std::holds_alternative<proto::NasServiceReject>(
      std::get<proto::DownlinkNasTransport>(h.to_enb.back()).nas));
  EXPECT_FALSE(h.app->has_transaction(
      h.app->store().find_by_imsi(777)->rec.guti.key()));
  // No session was ever created.
  EXPECT_TRUE(h.to_sgw.empty());
}

TEST(MmeAppUnit, DownlinkDataNotificationPagesWholeTrackingArea) {
  Harness h;
  // Install a registered idle context directly.
  proto::UeContextRecord rec;
  rec.imsi = 31337;
  rec.guti = proto::Guti{1, 1, 1, 555};
  rec.tac = 9;
  rec.mme_teid = proto::Teid::make(1, 77);
  rec.sgw_teid = proto::Teid{88};
  h.app->adopt(rec, epc::ContextRole::kMaster);

  proto::DownlinkDataNotification ddn;
  ddn.mme_teid = proto::Teid::make(1, 77);
  h.s11(proto::S11Message{ddn});

  // Ack to the S-GW plus one Paging per eNodeB in the TA (hook returns 2).
  EXPECT_EQ(h.outbox, (std::vector<std::string>{
                          "s11:DownlinkDataNotificationAck", "s1ap:Paging",
                          "s1ap:Paging"}));
  EXPECT_EQ(std::get<proto::Paging>(h.to_enb[0]).m_tmsi, 555u);
  EXPECT_EQ(h.app->counters().pagings_sent, 1u);
}

TEST(MmeAppUnit, TauRebrandsForeignGuti) {
  MmeApp::Config cfg;
  cfg.mme_code = 5;  // this MME's identity
  Harness h(cfg);
  // A context transferred from MME code 2 (reassignment).
  proto::UeContextRecord rec;
  rec.imsi = 999;
  rec.guti = proto::Guti{1, 1, /*code=*/2, 10};
  h.app->adopt(rec, epc::ContextRole::kMaster);

  proto::NasTauRequest tau;
  tau.guti = rec.guti;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{tau})});

  const auto& dl = std::get<proto::DownlinkNasTransport>(h.to_enb.back());
  const auto& accept = std::get<proto::NasTauAccept>(dl.nas);
  ASSERT_TRUE(accept.new_guti.has_value());
  EXPECT_EQ(accept.new_guti->mme_code, 5)
      << "an adopting MME must re-brand the GUTI so the eNodeB routes here";
  EXPECT_EQ(h.app->store().find_by_imsi(999)->rec.guti.mme_code, 5);
}

// A re-brand moves the context to a fresh GUTI key mid-procedure; the
// transaction must move with it, intact (the replies still carry the
// original eNodeB connection), and leave nothing behind under either key.
TEST(MmeAppUnit, AttachRebrandKeepsTransactionUnderNewKey) {
  MmeApp::Config cfg;
  cfg.mme_code = 5;
  Harness h(cfg);
  proto::UeContextRecord rec;
  rec.imsi = 4242;
  rec.guti = proto::Guti{1, 1, /*code=*/2, 10};
  rec.kasme = 0x77;  // intact security context: no HSS round trip
  h.app->adopt(rec, epc::ContextRole::kMaster);

  proto::NasAttachRequest attach;
  attach.imsi = 4242;
  attach.old_guti = rec.guti;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  ASSERT_EQ(h.outbox.back(), "s11:CreateSessionRequest");
  EXPECT_TRUE(h.app->has_transaction(rec.guti.key()));

  int probes = 0;
  h.on_to_enb = [&]() {
    const UeContext* ctx = h.app->store().find_by_imsi(4242);
    ASSERT_NE(ctx, nullptr);
    EXPECT_EQ(ctx->rec.guti.mme_code, 5);
    EXPECT_TRUE(h.app->has_transaction(ctx->key()));
    EXPECT_FALSE(h.app->has_transaction(rec.guti.key()));
    EXPECT_EQ(h.app->in_flight(), 1u);
    ++probes;
  };
  proto::CreateSessionResponse csr;
  csr.mme_teid =
      std::get<proto::CreateSessionRequest>(h.to_sgw.back()).mme_teid;
  csr.sgw_teid = proto::Teid{99};
  h.s11(proto::S11Message{csr});
  EXPECT_EQ(probes, 2);  // AttachAccept + InitialContextSetupRequest

  const auto& dl =
      std::get<proto::DownlinkNasTransport>(h.to_enb[h.to_enb.size() - 2]);
  EXPECT_EQ(dl.enb_ue_id, 71u);
  EXPECT_EQ(std::get<proto::NasAttachAccept>(dl.nas).guti.mme_code, 5);
  const auto& ics =
      std::get<proto::InitialContextSetupRequest>(h.to_enb.back());
  EXPECT_EQ(ics.enb_id, 500u);
  EXPECT_EQ(ics.enb_ue_id, 71u);
  EXPECT_EQ(h.app->in_flight(), 0u);
  EXPECT_EQ(h.app->counters().procedures[static_cast<int>(
                proto::ProcedureType::kAttach)],
            1u);
}

TEST(MmeAppUnit, TauRebrandKeepsTransactionUnderNewKey) {
  MmeApp::Config cfg;
  cfg.mme_code = 5;
  Harness h(cfg);
  proto::UeContextRecord rec;
  rec.imsi = 4343;
  rec.guti = proto::Guti{1, 1, /*code=*/2, 11};
  h.app->adopt(rec, epc::ContextRole::kMaster);

  int probes = 0;
  h.on_to_enb = [&]() {
    const UeContext* ctx = h.app->store().find_by_imsi(4343);
    ASSERT_NE(ctx, nullptr);
    EXPECT_TRUE(h.app->has_transaction(ctx->key()));
    EXPECT_FALSE(h.app->has_transaction(rec.guti.key()));
    ++probes;
  };
  proto::NasTauRequest tau;
  tau.guti = rec.guti;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{tau})});
  EXPECT_EQ(probes, 1);
  const auto& dl = std::get<proto::DownlinkNasTransport>(h.to_enb.back());
  EXPECT_EQ(dl.enb_id, 500u);
  EXPECT_EQ(dl.enb_ue_id, 71u);
  ASSERT_TRUE(std::get<proto::NasTauAccept>(dl.nas).new_guti.has_value());
  EXPECT_EQ(h.app->in_flight(), 0u);
}

TEST(MmeAppUnit, CpuCostsChargedPerStep) {
  Harness h;
  proto::NasAttachRequest attach;
  attach.imsi = 1;
  const Duration before = h.cpu.cumulative_busy();
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{attach})});
  const Duration after = h.cpu.cumulative_busy();
  // First step = parse + attach_ctx from the default profile.
  const ServiceProfile profile;
  EXPECT_EQ(after - before, profile.parse + profile.attach_ctx);
}

TEST(MmeAppUnit, ServiceRequestForValidContextSkipsHss) {
  Harness h;
  proto::UeContextRecord rec;
  rec.imsi = 55;
  rec.guti = proto::Guti{1, 1, 1, 20};
  rec.sgw_teid = proto::Teid{66};
  rec.kasme = 0xABC;
  h.app->adopt(rec, epc::ContextRole::kMaster);

  proto::NasServiceRequest sr;
  sr.mme_code = 1;
  sr.m_tmsi = 20;
  h.s1ap(proto::S1apMessage{h.initial(proto::NasMessage{sr})});
  // Straight to bearer re-activation: no HSS traffic at all.
  EXPECT_EQ(h.outbox, (std::vector<std::string>{"s11:ModifyBearerRequest"}));
}

}  // namespace
}  // namespace scale::mme
