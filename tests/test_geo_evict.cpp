// Geo eviction (§4.5.2 DC-level (v)): a DC whose external share exceeds its
// shrunk budget evicts lowest-wᵢ external state and asks the owning DCs to
// reduce their share.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "testbed/testbed.h"

namespace scale {
namespace {

using epc::ContextRole;
using testbed::Testbed;

struct EvictWorld {
  Testbed tb;
  std::vector<Testbed::Site*> sites;
  std::vector<std::unique_ptr<core::ScaleCluster>> clusters;

  EvictWorld() {
    for (std::uint32_t dc = 0; dc < 2; ++dc) {
      sites.push_back(&tb.add_site(1, static_cast<proto::Tac>(dc + 1),
                                   Duration::ms(1.0), dc));
      core::ScaleCluster::Config cfg;
      cfg.home_dc = dc;
      cfg.mme_group = static_cast<std::uint16_t>(50 + dc);
      cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 100);
      cfg.initial_mmps = 2;
      cfg.geo.budget_fraction = 0.5;
      cfg.geo.gossip_interval = Duration::ms(200.0);
      cfg.provisioner.devices_per_vm = 100;
      cfg.provisioner.min_vms = 2;
      cfg.provisioner.max_vms = 2;
      clusters.push_back(std::make_unique<core::ScaleCluster>(
          tb.fabric(), sites[dc]->sgw->node(), tb.hss().node(), cfg));
      clusters[dc]->connect_enb(*sites[dc]->enbs[0]);
    }
    for (int a = 0; a < 2; ++a)
      for (int b = 0; b < 2; ++b)
        if (a != b)
          clusters[static_cast<std::size_t>(a)]->geo().add_peer(
              static_cast<std::uint32_t>(b),
              clusters[static_cast<std::size_t>(b)]->mlb().node(),
              Duration::ms(15.0));
    for (auto& c : clusters) c->start();
  }

  std::size_t externals_at(std::size_t dc) {
    std::size_t n = 0;
    for (auto& mmp : clusters[dc]->mmps())
      n += mmp->app().store().count(ContextRole::kExternal);
    return n;
  }

  std::size_t marked_at(std::size_t dc) {
    std::size_t n = 0;
    clusters[dc]->for_each_master([&](mme::UeContext& ctx) {
      if (ctx.rec.external_dc >= 0) ++n;
    });
    return n;
  }
};

TEST(GeoEvict, BudgetShrinkEvictsAndNotifiesOwners) {
  EvictWorld w;
  w.tb.make_ues(*w.sites[0], 60, {0.9});
  w.tb.register_all(*w.sites[0], Duration::sec(4.0), Duration::sec(8.0));
  w.clusters[0]->for_each_master(
      [](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
  w.tb.run_for(Duration::sec(1.0));
  w.clusters[0]->run_epoch();
  w.tb.run_for(Duration::sec(2.0));

  const std::size_t placed = w.externals_at(1);
  ASSERT_GT(placed, 20u);
  ASSERT_EQ(w.marked_at(0), placed);

  // DC1 drastically shrinks its external budget and enforces it.
  w.clusters[1]->set_geo_budget_fraction(0.05);  // S_m: 100 → 10
  w.clusters[1]->run_epoch();
  w.tb.run_for(Duration::sec(2.0));

  EXPECT_LE(w.externals_at(1), 11u);
  EXPECT_LE(w.clusters[1]->geo().used(), 10.5);
  // The owning DC dropped the corresponding external markers.
  EXPECT_LT(w.marked_at(0), placed);
}

TEST(GeoEvict, NoEvictionWithinBudget) {
  EvictWorld w;
  w.tb.make_ues(*w.sites[0], 30, {0.9});
  w.tb.register_all(*w.sites[0], Duration::sec(3.0), Duration::sec(8.0));
  w.clusters[0]->for_each_master(
      [](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
  w.tb.run_for(Duration::sec(1.0));
  w.clusters[0]->run_epoch();
  w.tb.run_for(Duration::sec(2.0));
  const std::size_t placed = w.externals_at(1);
  ASSERT_GT(placed, 0u);

  // Re-running an epoch with ample budget keeps every external replica.
  w.clusters[1]->run_epoch();
  w.tb.run_for(Duration::sec(2.0));
  EXPECT_EQ(w.externals_at(1), placed);
}

TEST(GeoEvict, LowestAccessEvictedFirst) {
  EvictWorld w;
  w.tb.make_ues(*w.sites[0], 40, {0.9});
  w.tb.register_all(*w.sites[0], Duration::sec(3.0), Duration::sec(8.0));
  // Half hot, half lukewarm — all above the geo threshold.
  std::size_t i = 0;
  w.clusters[0]->for_each_master([&i](mme::UeContext& ctx) {
    ctx.rec.access_freq = (i++ % 2 == 0) ? 0.95 : 0.55;
  });
  w.tb.run_for(Duration::sec(1.0));
  w.clusters[0]->run_epoch();
  w.tb.run_for(Duration::sec(2.0));
  ASSERT_GT(w.externals_at(1), 10u);

  w.clusters[1]->set_geo_budget_fraction(0.04);  // S_m: 100 → 8
  w.clusters[1]->run_epoch();
  w.tb.run_for(Duration::sec(2.0));

  // The survivors at DC1 skew hot.
  double min_survivor = 1.0;
  std::size_t survivors = 0;
  for (auto& mmp : w.clusters[1]->mmps()) {
    mmp->app().store().for_each([&](mme::UeContext& ctx) {
      if (ctx.role == ContextRole::kExternal) {
        ++survivors;
        min_survivor = std::min(min_survivor, ctx.rec.access_freq);
      }
    });
  }
  ASSERT_GT(survivors, 0u);
  EXPECT_GT(min_survivor, 0.6) << "hot replicas must outlive lukewarm ones";
}

}  // namespace
}  // namespace scale
