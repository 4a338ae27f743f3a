// Elastic provisioning: VM addition/removal with ring migration, and the
// epoch loop (load estimation, β, resize).
#include <gtest/gtest.h>

#include "common/check.h"

#include "core/cluster.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using epc::ContextRole;
using testbed::Testbed;

struct ElasticWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<core::ScaleCluster> cluster;

  explicit ElasticWorld(core::ScaleCluster::Config cfg = {},
                        std::size_t mmps = 2) {
    site = &tb.add_site(1);
    cfg.initial_mmps = mmps;
    cluster = std::make_unique<core::ScaleCluster>(
        tb.fabric(), site->sgw->node(), tb.hss().node(), cfg);
    cluster->connect_enb(site->enb(0));
  }

  // Verify: for every registered device key, the VM the ring names as
  // master actually holds a master copy.
  void expect_ring_consistent(const std::vector<epc::Ue*>& ues) {
    for (epc::Ue* ue : ues) {
      if (!ue->registered()) continue;
      const std::uint64_t key = ue->guti()->key();
      const auto owner = cluster->ring().owner(key);
      bool ok = false;
      for (auto& mmp : cluster->mmps()) {
        if (mmp->node() != owner) continue;
        const auto* ctx = mmp->app().store().find(key);
        ok = ctx != nullptr && ctx->role == ContextRole::kMaster;
      }
      EXPECT_TRUE(ok) << "ring owner lacks master for device "
                      << ue->imsi();
    }
  }
};

TEST(Elasticity, AddMmpMigratesOnlyAffectedMasters) {
  ElasticWorld w;
  auto ues = w.tb.make_ues(*w.site, 120, {0.9});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(8.0));

  // Record who owns what before scale-out.
  std::map<std::uint64_t, sim::NodeId> owner_before;
  for (epc::Ue* ue : ues)
    if (ue->registered())
      owner_before[ue->guti()->key()] =
          w.cluster->ring().owner(ue->guti()->key());

  w.cluster->add_mmp();
  w.tb.run_for(Duration::sec(3.0));  // let transfers land

  const sim::NodeId fresh = w.cluster->mmps().back()->node();
  std::size_t moved = 0;
  for (const auto& [key, old_owner] : owner_before) {
    const auto now_owner = w.cluster->ring().owner(key);
    if (now_owner != old_owner) {
      EXPECT_EQ(now_owner, fresh) << "keys may only move to the new VM";
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, owner_before.size());  // incremental, not wholesale
  w.expect_ring_consistent(ues);
  // The new VM immediately serves its share: it received masters.
  EXPECT_GT(w.cluster->mmps().back()->app().store().count(
                ContextRole::kMaster), 0u);
}

TEST(Elasticity, DevicesRemainServableAfterScaleOut) {
  ElasticWorld w;
  auto ues = w.tb.make_ues(*w.site, 80, {0.9});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(8.0));
  w.cluster->add_mmp();
  w.cluster->add_mmp();
  w.tb.run_for(Duration::sec(3.0));

  std::size_t issued = 0;
  for (epc::Ue* ue : ues)
    if (ue->registered() && !ue->connected() && ue->service_request())
      ++issued;
  w.tb.run_for(Duration::sec(4.0));
  std::size_t served = 0;
  for (epc::Ue* ue : ues)
    if (ue->connected()) ++served;
  EXPECT_GT(issued, 50u);
  EXPECT_GE(served, issued * 9 / 10);
}

TEST(Elasticity, RemoveMmpHandsMastersToNewOwners) {
  ElasticWorld w({}, 4);
  auto ues = w.tb.make_ues(*w.site, 100, {0.9});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(8.0));

  const std::uint64_t before = w.cluster->registered_devices();
  w.cluster->remove_last_mmp();
  w.tb.run_for(Duration::sec(3.0));

  EXPECT_EQ(w.cluster->mmp_count(), 3u);
  // No devices lost: every master re-homed.
  EXPECT_EQ(w.cluster->registered_devices(), before);
  w.expect_ring_consistent(ues);
}

TEST(Elasticity, CannotRemoveLastMmp) {
  ElasticWorld w({}, 1);
  EXPECT_THROW(w.cluster->remove_last_mmp(), CheckError);
}

TEST(Elasticity, EpochProvisionsForLoad) {
  core::ScaleCluster::Config cfg;
  cfg.provisioner.requests_per_vm_epoch = 200;
  cfg.provisioner.alpha = 1.0;  // track the latest epoch exactly
  // Short Active window so 150 devices can sustain 60 req/s.
  cfg.vm_template.app.profile.inactivity_timeout = Duration::sec(1.0);
  ElasticWorld w(cfg, 1);
  auto ues = w.tb.make_ues(*w.site, 150, {0.9});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(8.0));

  // Drive ~600 requests in one epoch: V_C = ceil(600/200) = 3.
  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = 60.0;
  workload::OpenLoopDriver driver(w.tb.engine(), ues, drv);
  w.cluster->run_epoch();  // snapshot baseline
  driver.start(w.tb.engine().now() + Duration::sec(10.0));
  w.tb.run_for(Duration::sec(11.0));

  const auto report = w.cluster->run_epoch();
  EXPECT_GT(report.measured_load, 400u);
  EXPECT_GE(report.decision.vms, 3u);
  EXPECT_EQ(w.cluster->mmp_count(), report.decision.vms);
}

TEST(Elasticity, EpochShrinksWhenLoadSubsides) {
  core::ScaleCluster::Config cfg;
  cfg.provisioner.requests_per_vm_epoch = 100;
  cfg.provisioner.alpha = 1.0;
  ElasticWorld w(cfg, 5);
  w.tb.make_ues(*w.site, 30, {0.9});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(6.0));

  // Nearly idle epoch: provisioning collapses to the storage/min bound.
  w.cluster->run_epoch();
  w.tb.run_for(Duration::sec(5.0));
  const auto report = w.cluster->run_epoch();
  EXPECT_LT(report.decision.vms, 5u);
  EXPECT_EQ(w.cluster->mmp_count(), report.decision.vms);
  w.tb.run_for(Duration::sec(2.0));
}

// An epoch whose own provisioning decision resizes the cluster must repair
// replica placement in the SAME epoch (resize runs before the resync check),
// not one epoch later — a window in which a second fault could lose state.
TEST(Elasticity, EpochThatResizesResyncsImmediately) {
  core::ScaleCluster::Config cfg;
  cfg.provisioner.alpha = 1.0;
  cfg.provisioner.requests_per_vm_epoch = 1000;
  cfg.provisioner.devices_per_vm = 30;  // V_S forces growth: 2·90/30 = 6
  ElasticWorld w(cfg, 2);
  w.tb.make_ues(*w.site, 90, {0.9});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(6.0));

  const auto report = w.cluster->run_epoch();
  EXPECT_GT(w.cluster->mmp_count(), 2u);
  EXPECT_GT(report.resyncs, 0u) << "growth epoch must resync in-epoch";
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(w.cluster->run_epoch().resyncs, 0u) << "repair must not repeat";
}

// Replica resync is a repair action, not a steady-state tax: an epoch with
// no membership change since the last one must push zero resync copies
// (full re-pushes every epoch would tax already-loaded VMs for nothing),
// while the first epoch after a crash must re-push every master so the
// copies destroyed with the dead VM are restored.
TEST(Elasticity, ResyncRunsOnlyAfterMembershipChurn) {
  core::ScaleCluster::Config cfg;
  cfg.provisioner.min_vms = 3;
  cfg.provisioner.max_vms = 3;  // pin the size: no epoch-driven resizes
  ElasticWorld w(cfg, 3);
  auto ues = w.tb.make_ues(*w.site, 90, {0.9});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(6.0));

  // Steady state: consecutive epochs must not re-push replicas.
  EXPECT_EQ(w.cluster->run_epoch().resyncs, 0u);
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(w.cluster->run_epoch().resyncs, 0u);

  // Crash one VM: the next epoch resyncs every surviving master exactly
  // once, and the epoch after that is quiet again.
  w.cluster->crash_mmp(1);
  w.tb.run_for(Duration::sec(1.0));
  const auto repair = w.cluster->run_epoch();
  EXPECT_GT(repair.resyncs, 0u);
  std::size_t masters = 0;
  for (auto& mmp : w.cluster->mmps())
    masters += mmp->app().store().count(epc::ContextRole::kMaster);
  EXPECT_EQ(repair.resyncs, masters);
  w.tb.run_for(Duration::sec(1.0));
  EXPECT_EQ(w.cluster->run_epoch().resyncs, 0u);

  // The repair actually restored redundancy for every device whose master
  // survived the crash (its replica may have died with the victim): ≥2
  // local copies again. Devices whose *master* died stay at one copy until
  // their next request promotes the replica — the lazy-promotion path
  // covered by the churn test, not resync's job.
  w.tb.run_for(Duration::sec(1.0));
  for (epc::Ue* ue : ues) {
    if (!ue->registered()) continue;
    const std::uint64_t key = ue->guti()->key();
    bool master_alive = false;
    std::size_t copies = 0;
    for (auto& mmp : w.cluster->mmps()) {
      const auto* ctx = mmp->app().store().find(key);
      if (ctx == nullptr) continue;
      ++copies;
      if (ctx->role == epc::ContextRole::kMaster) master_alive = true;
    }
    if (master_alive)
      EXPECT_GE(copies, 2u) << "device " << ue->imsi()
                            << " left under-replicated after repair epoch";
  }
}

TEST(Elasticity, ResizedMmpSitsInClusterDc) {
  // A VM added by a later resize() must land in the cluster's DC, not in
  // the network's default DC 0.
  core::ScaleCluster::Config cfg;
  cfg.home_dc = 2;
  ElasticWorld w(cfg, 2);
  auto& net = w.tb.network();
  EXPECT_EQ(net.dc_of(w.cluster->mlb().node()), 2u);
  for (auto& mmp : w.cluster->mmps()) EXPECT_EQ(net.dc_of(mmp->node()), 2u);
  ASSERT_EQ(w.cluster->resize(3), 1u);
  EXPECT_EQ(net.dc_of(w.cluster->mmps().back()->node()), 2u);
}

TEST(Elasticity, AccessFrequencyTracksActivity) {
  core::ScaleCluster::Config cfg;
  ElasticWorld w(cfg, 2);
  epc::Ue& active = w.tb.make_ue(*w.site, 0, 0.9);
  epc::Ue& dormant = w.tb.make_ue(*w.site, 0, 0.1);
  active.attach();
  dormant.attach();
  w.tb.run_for(Duration::sec(10.0));
  w.cluster->run_epoch();  // both were active this epoch

  // Next epochs: only `active` keeps requesting.
  for (int e = 0; e < 3; ++e) {
    if (!active.connected()) active.service_request();
    w.tb.run_for(Duration::sec(10.0));
    w.cluster->run_epoch();
  }
  double w_active = 0.0, w_dormant = 0.0;
  w.cluster->for_each_master([&](mme::UeContext& ctx) {
    if (ctx.rec.imsi == active.imsi()) w_active = ctx.rec.access_freq;
    if (ctx.rec.imsi == dormant.imsi()) w_dormant = ctx.rec.access_freq;
  });
  EXPECT_GT(w_active, 0.7);
  EXPECT_LT(w_dormant, 0.3);
}

TEST(Elasticity, BetaReducesVmsForLowAccessPopulations) {
  // S3's mechanism: many low-wᵢ devices → smaller β → fewer VMs, at equal K.
  core::ScaleCluster::Config cfg;
  cfg.provisioner.devices_per_vm = 20;  // make storage the binding term
  cfg.policy.low_access_threshold = 0.2;
  ElasticWorld w(cfg, 2);
  auto ues = w.tb.make_ues(*w.site, 100, {0.9});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(8.0));

  // Epoch 1: everyone just attached → all look active; β = 1.
  const auto r1 = w.cluster->run_epoch();
  EXPECT_NEAR(r1.beta, 1.0, 0.05);

  // Let most devices go dormant over several epochs so wᵢ decays below x.
  for (int e = 0; e < 6; ++e) {
    w.tb.run_for(Duration::sec(5.0));
    w.cluster->run_epoch();
  }
  const auto r2 = w.cluster->last_epoch();
  EXPECT_LT(r2.beta, 0.8);
  EXPECT_LT(r2.decision.storage_vms, r1.decision.storage_vms);
  (void)ues;
}

}  // namespace
}  // namespace scale
