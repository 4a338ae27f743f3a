// Geo-multiplexing in action: two data centers, one of which gets hit by a
// regional signaling storm. With geo peering, the overloaded DC pushes
// external replicas of its hottest devices to the quiet DC ahead of time
// and then offloads Idle→Active processing there when its own queues grow
// (§4.5.2), trading one inter-DC round trip for seconds of local queueing.
//
//   $ ./build/examples/geo_failover
#include <cstdio>

#include "core/cluster.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

using namespace scale;

namespace {

constexpr Duration kInterDc = Duration::ms(15.0);

double run(bool geo_peering) {
  testbed::Testbed tb;
  std::vector<testbed::Testbed::Site*> sites;
  std::vector<std::unique_ptr<core::ScaleCluster>> clusters;
  for (std::uint32_t dc = 0; dc < 2; ++dc) {
    sites.push_back(&tb.add_site(1, static_cast<proto::Tac>(dc + 1),
                                 Duration::ms(1.0), dc));
    core::ScaleCluster::Config cfg;
    cfg.home_dc = dc;
    cfg.mme_group = static_cast<std::uint16_t>(10 + dc);
    cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 50);
    cfg.initial_mmps = 2;
    cfg.vm_template.cpu_speed = 0.25;
    cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(500.0);
    cfg.provisioner.min_vms = 2;
    cfg.provisioner.max_vms = 2;  // isolate multiplexing from autoscaling
    clusters.push_back(std::make_unique<core::ScaleCluster>(
        tb.fabric(), sites[dc]->sgw->node(), tb.hss().node(), cfg));
    clusters[dc]->connect_enb(*sites[dc]->enbs[0]);
  }
  tb.network().set_dc_latency(0, 1, kInterDc);
  if (geo_peering) {
    clusters[0]->geo().add_peer(1, clusters[1]->mlb().node(), kInterDc);
    clusters[1]->geo().add_peer(0, clusters[0]->mlb().node(), kInterDc);
  }
  for (auto& c : clusters) c->start();

  // DC0 hosts the storm-hit population; DC1 idles along at 20%.
  auto storm = tb.make_ues(*sites[0], 1500, {0.9});
  tb.register_all(*sites[0], Duration::sec(20.0), Duration::sec(4.0));
  auto quiet = tb.make_ues(*sites[1], 300, {0.5});
  tb.register_all(*sites[1], Duration::sec(5.0), Duration::sec(4.0));

  // Profiling epoch: place external replicas of the hot devices remotely
  // (a no-op without peering).
  for (auto& c : clusters) {
    c->for_each_master(
        [](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
    c->run_epoch();
  }
  tb.run_for(Duration::sec(2.0));

  PercentileSampler storm_delays;
  for (epc::Ue* ue : storm)
    ue->set_completion_sink(
        [&storm_delays](epc::Ue&, proto::ProcedureType, Duration d) {
          storm_delays.add(d.to_ms());
        });

  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = 1300.0;  // ≈1.5× DC0's capacity
  drv.mix.service_request = 0.3;
  drv.mix.tau = 0.7;
  workload::OpenLoopDriver driver(tb.engine(), storm, drv);
  driver.start(tb.engine().now() + Duration::sec(15.0));
  tb.run_for(Duration::sec(17.0));

  std::uint64_t offloads = 0, served_remote = 0;
  for (auto& mmp : clusters[0]->mmps()) offloads += mmp->geo_offloads();
  for (auto& mmp : clusters[1]->mmps()) served_remote += mmp->geo_served();
  std::printf("  %-18s p50=%7.1fms  p99=%7.1fms  offloads=%llu  "
              "served_remote=%llu\n",
              geo_peering ? "with geo peering" : "local only",
              storm_delays.percentile(0.5), storm_delays.percentile(0.99),
              static_cast<unsigned long long>(offloads),
              static_cast<unsigned long long>(served_remote));
  return storm_delays.percentile(0.99);
}

}  // namespace

int main() {
  std::printf("regional signaling storm at DC0 (1.5x capacity), DC1 quiet, "
              "%0.0f ms apart:\n",
              kInterDc.to_ms());
  const double without = run(false);
  const double with = run(true);
  std::printf("\ngeo-multiplexing cut the storm's p99 by %.1fx\n",
              without / std::max(1.0, with));
  return 0;
}
