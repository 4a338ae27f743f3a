// MLB unit behaviours: statelessness, GUTI assignment, ring routing,
// least-loaded choice, code-based Active-mode stickiness.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "testbed/testbed.h"

namespace scale {
namespace {

using testbed::Testbed;

struct ScaleWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<core::ScaleCluster> cluster;

  explicit ScaleWorld(std::size_t mmps = 2, std::size_t enbs = 2) {
    site = &tb.add_site(enbs);
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = mmps;
    cluster = std::make_unique<core::ScaleCluster>(
        tb.fabric(), site->sgw->node(), tb.hss().node(), cfg);
    for (auto& enb : site->enbs) cluster->connect_enb(*enb);
  }
};

TEST(Mlb, MembershipBuildsRingAndCodeMap) {
  ScaleWorld w(3);
  EXPECT_EQ(w.cluster->mlb().ring().node_count(), 3u);
  // Ring nodes are the MMP fabric ids.
  for (auto& mmp : w.cluster->mmps())
    EXPECT_TRUE(w.cluster->mlb().ring().contains(mmp->node()));
}

TEST(Mlb, StaleMembershipVersionIgnored) {
  ScaleWorld w(2);
  std::vector<proto::RingUpdate::Member> empty;
  w.cluster->mlb().apply_membership(empty, /*version=*/0);
  EXPECT_EQ(w.cluster->mlb().ring().node_count(), 2u);
}

TEST(Mlb, AttachAssignsGutiWithMlbCode) {
  ScaleWorld w;
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.registered());
  // §4.3.1: the MLB assigns the GUTI; its MME code is the MLB's logical id.
  EXPECT_EQ(ue.guti()->mme_code, w.cluster->mlb().mme_code());
  EXPECT_GE(w.cluster->mlb().initial_routed(), 1u);
}

TEST(Mlb, DeviceLandsOnPreferenceListVm) {
  ScaleWorld w(4);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.registered());
  const std::uint64_t key = ue.guti()->key();
  std::vector<hash::RingNodeId> prefs;
  w.cluster->ring().preference_list(key, 2, prefs);
  ASSERT_EQ(prefs.size(), 2u);
  // The context must live on the master or the replica target VM.
  bool found = false;
  for (auto& mmp : w.cluster->mmps()) {
    if (mmp->app().store().contains(key)) {
      found = found || (mmp->node() == prefs[0] || mmp->node() == prefs[1]);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Mlb, ActiveModeRequestsStickToServingVm) {
  ScaleWorld w(4);
  epc::Ue& ue = w.tb.make_ue(*w.site, 0, 0.5);
  ue.attach();
  w.tb.run_for(Duration::sec(2.0));
  ASSERT_TRUE(ue.connected());
  // The mme_ue_id the UE learned carries the serving VM's code; handover
  // (an Active-mode request) must be processed by that same VM.
  const std::uint8_t serving_code = ue.mme_ue_id().mmp_id();
  const auto before = w.cluster->mlb().sticky_routed();
  ue.handover(w.site->enb(1));
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(ue.completed(proto::ProcedureType::kHandover), 1u);
  EXPECT_GT(w.cluster->mlb().sticky_routed(), before);
  EXPECT_EQ(ue.mme_ue_id().mmp_id(), serving_code);
}

TEST(Mlb, KeepsNoPerDeviceState) {
  // Register many devices: the MLB's memory is the ring plus a load scalar
  // per VM — nothing grows with the population (contrast with SimpleLb's
  // routing_table_size()). We verify indirectly: routing still works after
  // the ring is rebuilt from scratch, which would lose any per-device map.
  ScaleWorld w(3);
  auto ues = w.tb.make_ues(*w.site, 60, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(8.0));

  std::vector<proto::RingUpdate::Member> members;
  for (auto& mmp : w.cluster->mmps())
    members.push_back({mmp->node(), mmp->vm_code()});
  w.cluster->mlb().apply_membership(members, /*version=*/1000);

  std::size_t ok = 0;
  for (epc::Ue* ue : ues)
    if (ue->registered() && !ue->connected() && ue->service_request()) ++ok;
  w.tb.run_for(Duration::sec(3.0));
  std::size_t connected = 0;
  for (epc::Ue* ue : ues)
    if (ue->connected()) ++connected;
  EXPECT_GT(ok, 40u);
  EXPECT_GE(connected, ok * 9 / 10);
}

}  // namespace
}  // namespace scale
