// Figure 8 — E4, "Efficacy of SCALE over current (3GPP) systems" (§5.1).
//
//  (a)   Delay CDF when one VM's devices run above its capacity: the
//        reactive 3GPP path (release + state transfer + re-attach) pushes
//        p99 past 1 s; SCALE's proactive replication keeps it a few 100 ms.
//  (b,c) CPU timelines of both VMs in each system: reactive reassignment
//        burns signaling CPU on both; SCALE offloads cleanly.
//  (d)   Geo-multiplexing across 3 DCs: p99 (mean ± sd over seeds) at DC1
//        for Local-only / Current (split pool) / SCALE as DC1 load grows.
#include <cmath>
#include <cstdlib>
#include <limits>

#include "mme/pool.h"
#include "obs/bench_main.h"
#include "scale_world.h"
#include "workload/arrivals.h"

namespace {

using namespace scale;
using testbed::Testbed;

constexpr double kCpuSpeed = 0.25;  // VM capacity ≈ 380 SR/s
constexpr double kDriveRate = 1000.0;
constexpr Duration kInactivity = Duration::ms(500.0);

struct RunResult {
  PercentileSampler delays;
  TimeSeries vm1;
  TimeSeries vm2;
};

RunResult run_current() {
  Testbed tb;
  auto& site = tb.add_site(1);
  mme::MmePool::Config cfg;
  cfg.node_template.sgw = site.sgw->node();
  cfg.node_template.hss = tb.hss().node();
  cfg.node_template.cpu_speed = kCpuSpeed;
  cfg.node_template.app.profile.inactivity_timeout = kInactivity;
  cfg.node_template.overload_protection = true;  // the reactive mechanism
  cfg.node_template.overload_threshold = 0.85;
  cfg.initial_count = 2;
  mme::MmePool pool(tb.fabric(), cfg);
  pool.connect_enb(site.enb(0));

  auto ues = tb.make_ues(site, 1500, {0.8});
  tb.register_all(site, Duration::sec(20.0), Duration::sec(6.0));

  const std::uint8_t code1 = pool.mme(0).mme_code();
  std::vector<epc::Ue*> mme1_devices;
  for (epc::Ue* ue : ues)
    if (ue->registered() && ue->guti()->mme_code == code1)
      mme1_devices.push_back(ue);

  tb.delays().clear();
  sim::CpuSampler sampler(tb.engine(), Duration::ms(500.0));
  sampler.track("vm1", pool.mme(0).cpu());
  sampler.track("vm2", pool.mme(1).cpu());

  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = kDriveRate;
  drv.mix.service_request = 0.6;
  drv.mix.tau = 0.4;
  workload::OpenLoopDriver driver(tb.engine(), mme1_devices, drv);
  driver.start(tb.engine().now() + Duration::sec(12.0));
  tb.run_for(Duration::sec(14.0));
  sampler.stop();

  RunResult out;
  out.delays = tb.delays().merged();
  out.vm1 = sampler.series("vm1");
  out.vm2 = sampler.series("vm2");
  return out;
}

RunResult run_scale_system() {
  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = 2;
  cfg.vm_template.cpu_speed = kCpuSpeed;
  cfg.vm_template.app.profile.inactivity_timeout = kInactivity;
  bench::ScaleWorld w(cfg, /*enbs=*/1);

  auto ues = w.tb.make_ues(*w.site, 1500, {0.8});
  w.tb.register_all(*w.site, Duration::sec(20.0), Duration::sec(6.0));
  auto vm1_devices = w.devices_of(w.cluster->mmp(0));

  w.tb.delays().clear();
  sim::CpuSampler sampler(w.tb.engine(), Duration::ms(500.0));
  sampler.track("vm1", w.cluster->mmp(0).cpu());
  sampler.track("vm2", w.cluster->mmp(1).cpu());

  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = kDriveRate;
  drv.mix.service_request = 0.6;
  drv.mix.tau = 0.4;
  workload::OpenLoopDriver driver(w.tb.engine(), vm1_devices, drv);
  driver.start(w.tb.engine().now() + Duration::sec(12.0));
  w.tb.run_for(Duration::sec(14.0));
  sampler.stop();

  RunResult out;
  out.delays = w.tb.delays().merged();
  out.vm1 = sampler.series("vm1");
  out.vm2 = sampler.series("vm2");
  return out;
}

void fig8abc(obs::Report& rep) {
  auto current = run_current();
  auto scaled = run_scale_system();

  auto& sec_a =
      rep.section("Fig 8(a): delay CDF, one VM's devices driven past capacity");
  sec_a.cdf("current (3GPP) ", current.delays);
  sec_a.cdf("SCALE          ", scaled.delays);

  auto& sec_b = rep.section("Fig 8(b): CPU of VM1 over time");
  sec_b.columns({"t_sec", "current%", "scale%"});
  const auto& c1 = current.vm1.points();
  for (std::size_t i = 0; i < c1.size(); i += 2) {
    const Time t = c1[i].first;
    sec_b.row({t.to_sec(), c1[i].second * 100.0,
               scaled.vm1.value_at(t) * 100.0});
  }

  auto& sec_c = rep.section("Fig 8(c): CPU of VM2 over time");
  sec_c.columns({"t_sec", "current%", "scale%"});
  const auto& c2 = current.vm2.points();
  for (std::size_t i = 0; i < c2.size(); i += 2) {
    const Time t = c2[i].first;
    sec_c.row({t.to_sec(), c2[i].second * 100.0,
               scaled.vm2.value_at(t) * 100.0});
  }
}

// ---------------------------------------------------------------- Fig 8(d)

enum class GeoMode { kLocalOnly, kCurrentSplitPool, kScale };

// 3 DCs; DC2/DC3 lightly loaded; DC1 load level varies. Returns the 99th
// %tile delay perceived by DC1's devices.
double geo_run(GeoMode mode, double dc1_load_factor, std::uint64_t seed) {
  Testbed::Config tcfg;
  tcfg.seed = seed;
  Testbed tb(tcfg);
  const Duration inter_dc = Duration::ms(40.0);  // WAN-scale netem delays
  constexpr std::size_t kDcs = 3;
  constexpr std::size_t kVmsPerDc = 2;
  const double capacity_per_dc = kVmsPerDc * 380.0;

  std::vector<Testbed::Site*> sites;
  for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
    sites.push_back(&tb.add_site(1, static_cast<proto::Tac>(dc + 1),
                                 Duration::ms(1.0), dc));
    for (std::uint32_t other = 0; other < dc; ++other)
      tb.network().set_dc_latency(dc, other, inter_dc);
  }

  std::vector<std::unique_ptr<core::ScaleCluster>> clusters;
  std::unique_ptr<mme::MmePool> split_pool;

  if (mode == GeoMode::kCurrentSplitPool) {
    // One classic pool whose members sit in the three DCs; every eNodeB
    // connects to all of them (static assignment ignores location).
    mme::MmePool::Config cfg;
    cfg.node_template.sgw = sites[0]->sgw->node();
    cfg.node_template.hss = tb.hss().node();
    cfg.node_template.cpu_speed = kCpuSpeed * kVmsPerDc;
    cfg.node_template.app.profile.inactivity_timeout = kInactivity;
    cfg.initial_count = kDcs;
    split_pool = std::make_unique<mme::MmePool>(tb.fabric(), cfg);
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      tb.assign_dc(split_pool->mme(dc).node(), dc);
      split_pool->connect_enb(*sites[dc]->enbs[0]);
    }
  } else {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      core::ScaleCluster::Config cfg;
      cfg.home_dc = dc;
      cfg.mme_group = static_cast<std::uint16_t>(100 + dc);  // disjoint GUTI spaces
      cfg.initial_mmps = kVmsPerDc;
      cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 50);
      cfg.vm_template.cpu_speed = kCpuSpeed;
      cfg.vm_template.app.profile.inactivity_timeout = kInactivity;
      cfg.geo.gossip_interval = Duration::ms(300.0);
      cfg.geo.budget_fraction = 0.25;  // full external coverage of DC1's hot set
      cfg.provisioner.devices_per_vm = 2000;
      cfg.provisioner.min_vms = kVmsPerDc;  // epochs must not deflate capacity
      cfg.mmp_offload_threshold = 0.8;
      clusters.push_back(std::make_unique<core::ScaleCluster>(
          tb.fabric(), sites[dc]->sgw->node(), tb.hss().node(), cfg));
      clusters[dc]->connect_enb(*sites[dc]->enbs[0]);
    }
    if (mode == GeoMode::kScale) {
      for (std::uint32_t a = 0; a < kDcs; ++a)
        for (std::uint32_t b = 0; b < kDcs; ++b)
          if (a != b)
            clusters[a]->geo().add_peer(b, clusters[b]->mlb().node(),
                                        inter_dc);
    }
    for (auto& c : clusters) c->start();
  }

  // Register device populations per DC.
  std::vector<std::vector<epc::Ue*>> devices(kDcs);
  for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
    devices[dc] = tb.make_ues(*sites[dc], 600, {0.9});
    tb.register_all(*sites[dc], Duration::sec(15.0), Duration::sec(4.0));
  }
  if (mode != GeoMode::kCurrentSplitPool) {
    // Seed profiling data and push geo replicas (no-op without peers).
    for (auto& c : clusters) {
      c->for_each_master(
          [](mme::UeContext& ctx) { ctx.rec.access_freq = 0.9; });
      c->run_epoch();
    }
    tb.run_for(Duration::sec(2.0));
  }

  // Per-DC drivers: DC1 at the requested load, others at 30%.
  std::vector<std::unique_ptr<workload::OpenLoopDriver>> drivers;
  PercentileSampler dc1_delays;
  for (epc::Ue* ue : devices[0]) {
    ue->set_completion_sink(
        [&dc1_delays](epc::Ue&, proto::ProcedureType, Duration d) {
          dc1_delays.add(d.to_ms());
        });
  }
  for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
    workload::OpenLoopDriver::Config drv;
    // Remote DCs carry substantial background load of their own, so under
    // EXTREME DC1 load the split pool's remote members have little spare
    // capacity either (as in the paper's testbed).
    drv.rate_per_sec =
        capacity_per_dc * (dc == 0 ? dc1_load_factor : 0.75);
    drv.mix.service_request = 0.6;
    drv.mix.tau = 0.4;
    drv.seed = seed * 7 + dc;
    drivers.push_back(std::make_unique<workload::OpenLoopDriver>(
        tb.engine(), devices[dc], drv));
    drivers.back()->start(tb.engine().now() + Duration::sec(20.0));
  }
  tb.run_for(Duration::sec(22.0));
  if (std::getenv("SCALE_BENCH_DEBUG") != nullptr && !clusters.empty()) {
    std::uint64_t off = 0, served = 0, rej = 0, pushes = 0;
    for (auto& m : clusters[0]->mmps()) off += m->geo_offloads();
    for (std::uint32_t dc = 1; dc < kDcs; ++dc)
      for (auto& m : clusters[dc]->mmps()) {
        served += m->geo_served();
        rej += m->geo_rejects();
      }
    pushes = clusters[0]->last_epoch().geo_pushes;
    std::printf("[dbg] p50=%.1f p90=%.1f p99=%.1f n=%llu failures=%llu\n",
                dc1_delays.percentile(0.5), dc1_delays.percentile(0.9),
                dc1_delays.percentile(0.99),
                static_cast<unsigned long long>(dc1_delays.count()),
                static_cast<unsigned long long>(tb.failures()));
    std::printf("[dbg] mode=%d load=%.2f vms_dc1=%zu pushes=%llu off=%llu "
                "served=%llu rej=%llu\n",
                static_cast<int>(mode), dc1_load_factor,
                clusters[0]->mmp_count(),
                static_cast<unsigned long long>(pushes),
                static_cast<unsigned long long>(off),
                static_cast<unsigned long long>(served),
                static_cast<unsigned long long>(rej));
  }
  return dc1_delays.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : dc1_delays.percentile(0.99);
}

void fig8d(obs::Report& rep) {
  auto& sec = rep.section(
      "Fig 8(d): 99th %tile at DC1 (mean±sd over 5 seeds) vs DC1 load");
  sec.columns({"dc1_load", "local_ms", "±", "current_ms", "±",
               "scale_ms", "±"});
  struct Level {
    const char* name;
    double factor;
  };
  for (const Level level : {Level{"LOW", 0.4}, Level{"HIGH", 0.9},
                            Level{"EXTREME", 1.8}}) {
    double out[3][2];
    int mi = 0;
    for (GeoMode mode : {GeoMode::kLocalOnly, GeoMode::kCurrentSplitPool,
                         GeoMode::kScale}) {
      OnlineStats stats;
      for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull})
        stats.add(geo_run(mode, level.factor, seed));
      out[mi][0] = stats.mean();
      out[mi][1] = stats.stddev();
      ++mi;
    }
    sec.row(level.name, {out[0][0], out[0][1], out[1][0], out[1][1],
                         out[2][0], out[2][1]});
  }
}

}  // namespace

int main(int argc, char** argv) {
  scale::obs::BenchMain bm(argc, argv, "fig8_statusquo",
                           "E4 — SCALE vs current 3GPP systems");
  fig8abc(bm.report());
  fig8d(bm.report());
  return bm.finish();
}
