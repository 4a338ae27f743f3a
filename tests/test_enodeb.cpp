// eNodeB emulator behaviours in isolation, observed through a scripted
// MME-side probe endpoint: static assignment rules, weighted selection,
// exclusion on redirect, S1 connection bookkeeping, OverloadStart pacing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "epc/enodeb.h"
#include "epc/ue.h"
#include "testbed/testbed.h"

namespace scale::epc {
namespace {

class MmeProbe : public Endpoint {
 public:
  explicit MmeProbe(Fabric& fabric) : fabric_(fabric) {
    node_ = fabric.add_endpoint(this);
  }
  ~MmeProbe() override { fabric_.remove_endpoint(node_); }

  void receive(NodeId, const proto::Pdu& pdu) override {
    if (const auto* s1ap = std::get_if<proto::S1apMessage>(&pdu)) {
      if (std::holds_alternative<proto::InitialUeMessage>(*s1ap)) {
        ++initial_count;
        initial_at.push_back(fabric_.engine().now());
      }
    }
  }

  NodeId node() const { return node_; }
  int initial_count = 0;
  std::vector<Time> initial_at;  ///< arrival time of each initial

 private:
  Fabric& fabric_;
  NodeId node_ = 0;
};

struct World {
  sim::Engine engine;
  sim::Network network{Duration::us(100)};
  Fabric fabric{engine, network};
  EnodeB enb{fabric};
  MmeProbe mme_a{fabric};
  MmeProbe mme_b{fabric};
  MmeProbe mme_c{fabric};
};

std::unique_ptr<Ue> make_ue(World& w, proto::Imsi imsi) {
  Ue::Config cfg;
  cfg.imsi = imsi;
  cfg.secret_key = imsi * 7;
  cfg.guard_timeout = Duration::zero();  // disabled: probes never answer
  return std::make_unique<Ue>(w.engine, &w.enb, cfg);
}

TEST(EnodeB, WeightedSelectionFollowsWeights) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, /*weight=*/1.0);
  w.enb.add_mme(w.mme_b.node(), 2, /*weight=*/3.0);

  std::vector<std::unique_ptr<Ue>> ues;
  for (int i = 0; i < 2000; ++i) {
    ues.push_back(make_ue(w, 1000 + i));
    ues.back()->attach();  // unregistered → weighted pick
  }
  w.engine.run();
  const double share_b =
      static_cast<double>(w.mme_b.initial_count) /
      (w.mme_a.initial_count + w.mme_b.initial_count);
  EXPECT_NEAR(share_b, 0.75, 0.04);
}

TEST(EnodeB, OverloadStartPacesInitialsAndCapsAtHorizon) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  proto::OverloadStart start;
  start.level = 1;
  start.window_us = 1'000'000;  // outlasts the whole herd below
  w.fabric.send(w.mme_a.node(), w.enb.node(),
                proto::make_pdu(proto::S1apMessage{start}));
  w.engine.run_until(Time::from_sec(0.01));

  // A herd arriving at one instant: the grid takes kOverloadPaceHorizon /
  // kOverloadPace initials, one per kOverloadPace; the rest pass straight
  // through, ahead of the grid.
  const auto depth = static_cast<std::size_t>(EnodeB::kOverloadPaceHorizon /
                                              EnodeB::kOverloadPace);
  ASSERT_EQ(depth, 25u);
  const std::size_t extra = 5;
  std::vector<std::unique_ptr<Ue>> ues;
  for (std::size_t i = 0; i < depth + extra; ++i) {
    ues.push_back(make_ue(w, 3000 + i));
    ues.back()->attach();
  }
  w.engine.run();

  EXPECT_EQ(w.enb.paced_initials(), depth);
  auto& at = w.mme_a.initial_at;
  ASSERT_EQ(at.size(), depth + extra);
  std::sort(at.begin(), at.end());
  for (std::size_t i = 0; i < extra; ++i)
    EXPECT_EQ(at[i], at[0]) << "unpaced initial " << i;
  for (std::size_t k = 1; k <= depth; ++k)
    EXPECT_EQ(at[extra + k - 1] - at[0],
              EnodeB::kOverloadPace * static_cast<double>(k))
        << "grid slot " << k;
}

TEST(EnodeB, GutiCodePinsRegisteredDevices) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  w.enb.add_mme(w.mme_b.node(), 2, 1.0);

  // A TAU carries the GUTI; its MME code must fully determine the target.
  for (int i = 0; i < 50; ++i) {
    proto::NasTauRequest tau;
    tau.guti = proto::Guti{1, 1, /*code=*/2, static_cast<std::uint32_t>(i)};
    auto ue = make_ue(w, 5000 + i);
    // Force registered+idle state through the public radio API is heavy;
    // send via the initial-NAS entry point directly instead.
    w.enb.ue_initial_nas(*ue, proto::NasMessage{tau});
    w.engine.run();
  }
  EXPECT_EQ(w.mme_a.initial_count, 0);
  EXPECT_EQ(w.mme_b.initial_count, 50);
}

TEST(EnodeB, ExclusionOverridesGutiRoute) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  w.enb.add_mme(w.mme_b.node(), 2, 1.0);

  proto::NasAttachRequest attach;
  attach.imsi = 777;
  attach.old_guti = proto::Guti{1, 1, /*code=*/1, 42};  // points at A
  auto ue = make_ue(w, 777);
  w.enb.ue_initial_nas(*ue, proto::NasMessage{attach},
                       /*exclude=*/w.mme_a.node());
  w.engine.run();
  EXPECT_EQ(w.mme_a.initial_count, 0);
  EXPECT_EQ(w.mme_b.initial_count, 1);
}

TEST(EnodeB, UnknownCodeFallsBackToWeightedPick) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);

  proto::NasServiceRequest sr;
  sr.mme_code = 99;  // no pool member has this code
  sr.m_tmsi = 5;
  auto ue = make_ue(w, 888);
  w.enb.ue_initial_nas(*ue, proto::NasMessage{sr});
  w.engine.run();
  EXPECT_EQ(w.mme_a.initial_count, 1);
}

TEST(EnodeB, SameCodeSplitsAcrossFrontEnds) {
  // Two "MMEs" with the same code (multiple MLB VMs of one pool): GUTI
  // routing must spread between them, not always pick the first.
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  w.enb.add_mme(w.mme_b.node(), 1, 1.0);

  for (int i = 0; i < 600; ++i) {
    proto::NasTauRequest tau;
    tau.guti = proto::Guti{1, 1, 1, static_cast<std::uint32_t>(i)};
    auto ue = make_ue(w, 9000 + i);
    w.enb.ue_initial_nas(*ue, proto::NasMessage{tau});
    w.engine.run();
  }
  EXPECT_GT(w.mme_a.initial_count, 200);
  EXPECT_GT(w.mme_b.initial_count, 200);
}

TEST(EnodeB, ConnectionsEraseOnRelease) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  auto ue = make_ue(w, 4242);
  ue->attach();
  w.engine.run();
  ASSERT_EQ(w.enb.connection_count(), 1u);

  proto::UeContextReleaseCommand rel;
  rel.enb_id = w.enb.node();
  rel.enb_ue_id = ue->s1_conn();
  rel.cause = proto::ReleaseCause::kUserInactivity;
  w.fabric.send(w.mme_a.node(), w.enb.node(), proto::make_pdu(rel));
  w.engine.run();
  EXPECT_EQ(w.enb.connection_count(), 0u);
}

TEST(EnodeB, ReattachReplacesStaleConnection) {
  World w;
  w.enb.add_mme(w.mme_a.node(), 1, 1.0);
  auto ue = make_ue(w, 31337);
  ue->attach();
  w.engine.run();
  EXPECT_EQ(w.enb.connection_count(), 1u);
  // The probe never answers; a retry via the radio API must replace, not
  // leak, the S1 connection.
  proto::NasAttachRequest retry;
  retry.imsi = ue->imsi();
  w.enb.ue_initial_nas(*ue, proto::NasMessage{retry});
  w.engine.run();
  EXPECT_EQ(w.enb.connection_count(), 1u) << "stale S1 connection leaked";
}

TEST(EnodeB, RrcSupervisionReleasesStaleConnections) {
  // With supervision enabled, a connection whose MME never answers (dead
  // core node) is released locally and the UE returns to Idle.
  sim::Engine engine;
  sim::Network network{Duration::us(100)};
  Fabric fabric{engine, network};
  EnodeB::Config cfg;
  cfg.rrc_inactivity = Duration::sec(2.0);
  EnodeB enb(fabric, cfg);
  MmeProbe dead(fabric);
  enb.add_mme(dead.node(), 1, 1.0);

  Ue::Config ue_cfg;
  ue_cfg.imsi = 99;
  ue_cfg.secret_key = 1;
  ue_cfg.guard_timeout = Duration::zero();
  Ue ue(engine, &enb, ue_cfg);
  ue.attach();
  engine.run_until(Time::from_sec(0.5));
  ASSERT_EQ(enb.connection_count(), 1u);

  engine.run_until(Time::from_sec(5.0));
  EXPECT_EQ(enb.connection_count(), 0u);
  EXPECT_GE(enb.rrc_releases(), 1u);
  EXPECT_FALSE(ue.connected());
  // The sweep stops once no connections remain (the engine can drain).
  engine.run();
  EXPECT_TRUE(engine.idle());
}

TEST(EnodeB, RrcSupervisionSparesActiveConnections) {
  sim::Engine engine;
  sim::Network network{Duration::us(100)};
  Fabric fabric{engine, network};
  EnodeB::Config cfg;
  cfg.rrc_inactivity = Duration::sec(2.0);
  EnodeB enb(fabric, cfg);
  MmeProbe mme(fabric);
  enb.add_mme(mme.node(), 1, 1.0);

  Ue::Config ue_cfg;
  ue_cfg.imsi = 98;
  ue_cfg.secret_key = 1;
  ue_cfg.guard_timeout = Duration::zero();
  Ue ue(engine, &enb, ue_cfg);
  ue.attach();
  engine.run_until(Time::from_sec(0.5));
  ASSERT_EQ(enb.connection_count(), 1u);

  // Keep the connection chatty: uplink NAS every second.
  for (int i = 1; i <= 6; ++i) {
    engine.at(Time::from_sec(static_cast<double>(i)), [&]() {
      enb.ue_uplink_nas(ue, proto::NasMessage{proto::NasAttachComplete{}});
    });
  }
  engine.run_until(Time::from_sec(6.5));
  EXPECT_EQ(enb.connection_count(), 1u)
      << "activity must keep the RRC connection alive";
  EXPECT_EQ(enb.rrc_releases(), 0u);
}

/// MME side that answers every InitialUeMessage with an
/// InitialContextSetupRequest, then goes silent.
class SetupOnlyMme : public Endpoint {
 public:
  explicit SetupOnlyMme(Fabric& fabric) : fabric_(fabric) {
    node_ = fabric.add_endpoint(this);
  }
  ~SetupOnlyMme() override { fabric_.remove_endpoint(node_); }

  void receive(NodeId from, const proto::Pdu& pdu) override {
    const auto* s1ap = std::get_if<proto::S1apMessage>(&pdu);
    if (s1ap == nullptr) return;
    const auto* init = std::get_if<proto::InitialUeMessage>(s1ap);
    if (init == nullptr) return;
    proto::InitialContextSetupRequest ics;
    ics.enb_id = from;
    ics.enb_ue_id = init->enb_ue_id;
    ics.mme_ue_id = proto::MmeUeId::make(1, init->enb_ue_id);
    fabric_.send(node_, from, proto::make_pdu(ics));
  }

  NodeId node() const { return node_; }

 private:
  Fabric& fabric_;
  NodeId node_ = 0;
};

TEST(EnodeB, RrcSupervisionReleasesInConnectionIdOrder) {
  // Many connections go stale in one sweep. Each release schedules its own
  // event, so the order is part of the trajectory: ascending eNB-UE id,
  // whatever order the connection table holds them in.
  sim::Engine engine;
  sim::Network network{Duration::us(100)};
  Fabric fabric{engine, network};
  EnodeB::Config cfg;
  cfg.rrc_inactivity = Duration::sec(2.0);
  EnodeB enb(fabric, cfg);
  SetupOnlyMme mme(fabric);
  enb.add_mme(mme.node(), 1, 1.0);

  constexpr std::size_t kUes = 48;
  std::vector<std::unique_ptr<Ue>> ues;
  for (std::size_t i = 0; i < kUes; ++i) {
    Ue::Config ue_cfg;
    ue_cfg.imsi = 1000 + i;
    ue_cfg.secret_key = 1;
    ue_cfg.guard_timeout = Duration::zero();
    ues.push_back(std::make_unique<Ue>(engine, &enb, ue_cfg));
    ues.back()->attach();
  }
  engine.run_until(Time::from_sec(0.5));
  ASSERT_EQ(enb.connection_count(), kUes);
  for (const auto& ue : ues) ASSERT_TRUE(ue->connected());

  // Step one event at a time: each release event idles exactly one UE.
  std::vector<proto::EnbUeId> order;
  std::vector<bool> released(kUes, false);
  while (order.size() < kUes && engine.now() < Time::from_sec(10.0)) {
    engine.run(1);
    for (std::size_t i = 0; i < kUes; ++i) {
      if (released[i] || ues[i]->connected()) continue;
      released[i] = true;
      order.push_back(ues[i]->s1_conn());
    }
  }
  ASSERT_EQ(order.size(), kUes);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(enb.rrc_releases(), kUes);
}

}  // namespace
}  // namespace scale::epc
