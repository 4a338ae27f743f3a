#include <gtest/gtest.h>

#include "mme/pool.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"
#include "workload/population.h"

namespace scale {
namespace {

using testbed::Testbed;

struct World {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<mme::MmePool> pool;

  World() {
    site = &tb.add_site(2);
    mme::MmePool::Config cfg;
    cfg.node_template.sgw = site->sgw->node();
    cfg.node_template.hss = tb.hss().node();
    cfg.initial_count = 2;
    pool = std::make_unique<mme::MmePool>(tb.fabric(), cfg);
    for (auto& enb : site->enbs) pool->connect_enb(*enb);
  }
};

TEST(Population, UniformAndBimodal) {
  const auto u = workload::uniform_access(10, 0.3);
  EXPECT_EQ(u.size(), 10u);
  for (double w : u) EXPECT_DOUBLE_EQ(w, 0.3);

  const auto b = workload::bimodal_access(10, 0.4, 0.05, 0.8);
  EXPECT_DOUBLE_EQ(b[0], 0.05);
  EXPECT_DOUBLE_EQ(b[3], 0.05);
  EXPECT_DOUBLE_EQ(b[4], 0.8);
  EXPECT_DOUBLE_EQ(b[9], 0.8);
}

TEST(Population, ZipfIsDecreasing) {
  const auto z = workload::zipf_access(20, 1.0, 0.9);
  EXPECT_DOUBLE_EQ(z[0], 0.9);
  for (std::size_t i = 1; i < z.size(); ++i) EXPECT_LT(z[i], z[i - 1]);
}

TEST(Population, RandomWithinBounds) {
  const auto r = workload::random_access(1000, 0.2, 0.6, 7);
  for (double w : r) {
    EXPECT_GE(w, 0.2);
    EXPECT_LE(w, 0.6);
  }
}

TEST(OpenLoopDriver, GeneratesApproximatelyPoissonRate) {
  World w;
  // 400 devices with the default 5 s Active window sustain ≈80 req/s.
  auto ues = w.tb.make_ues(*w.site, 400, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(8.0));

  workload::OpenLoopDriver::Config cfg;
  cfg.rate_per_sec = 50.0;
  cfg.mix.service_request = 1.0;
  workload::OpenLoopDriver driver(w.tb.engine(), ues, cfg);
  const Time start = w.tb.engine().now();
  driver.start(start + Duration::sec(10.0));
  w.tb.run_for(Duration::sec(12.0));

  EXPECT_NEAR(static_cast<double>(driver.arrivals()), 500.0, 90.0);
  // With plenty of idle devices, nearly all arrivals issue.
  EXPECT_GT(driver.issued(), driver.arrivals() * 8 / 10);
  EXPECT_GT(w.tb.delays().total_count(), 100u);
}

TEST(OpenLoopDriver, HandoverMixRequiresTargets) {
  World w;
  auto ues = w.tb.make_ues(*w.site, 20, {0.5});
  w.tb.register_all(*w.site, Duration::sec(2.0), Duration::sec(2.0));
  // Devices still connected (inactivity is 5 s): handovers possible.
  workload::OpenLoopDriver::Config cfg;
  cfg.rate_per_sec = 50.0;
  cfg.mix = {.attach = 0, .service_request = 0, .tau = 0, .handover = 1.0,
             .detach = 0};
  workload::OpenLoopDriver driver(w.tb.engine(), ues, cfg);
  driver.set_handover_targets(w.site->enb_ptrs());
  driver.start(w.tb.engine().now() + Duration::sec(4.0));
  w.tb.run_for(Duration::sec(6.0));
  EXPECT_GT(driver.issued(), 20u);
  EXPECT_TRUE(w.tb.delays().has("handover"));
}

TEST(MassAccessEvent, TriggersBurstWithinSpread) {
  World w;
  auto ues = w.tb.make_ues(*w.site, 100, {0.5});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(8.0));
  w.tb.delays().clear();

  workload::MassAccessEvent burst(w.tb.engine(), ues);
  const Time t0 = w.tb.engine().now();
  burst.schedule(t0 + Duration::sec(1.0), 80, Duration::ms(500.0));
  w.tb.run_for(Duration::sec(5.0));
  EXPECT_GE(burst.issued(), 75u);
  EXPECT_GE(w.tb.delays().bucket("service_request").count(), 60u);
}

}  // namespace
}  // namespace scale
