// Chaos suite: attach/service-request workloads driven through the
// FaultPlane with the reliability shim enabled. The properties under test
// are the ISSUE's acceptance criteria: no permanent device failures under
// loss or a short partition, bounded retransmission overhead, same-seed
// replayability, and overload shedding that redirects instead of failing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "testbed/crash_world.h"
#include "testbed/testbed.h"

namespace scale {
namespace {

using testbed::CrashWorld;

CrashWorld::Options chaos_options() {
  CrashWorld::Options o;
  o.tb.transport.reliable = true;
  // Chaos adds whole RTO ladders (up to ~4s) to a procedure; give the UE
  // guard room so a retransmitted exchange is slow, not failed.
  o.tb.ue_guard_timeout = Duration::sec(10.0);
  return o;
}

std::uint64_t total_retransmits(CrashWorld& w) {
  std::uint64_t total = 0;
  for (const auto& enb : w.site->enbs) total += enb->transport().retransmits();
  total += w.site->sgw->transport().retransmits();
  total += w.tb.hss().transport().retransmits();
  for (const auto& mlb : w.cluster->mlbs())
    total += mlb->transport().retransmits();
  for (const auto& mmp : w.cluster->mmps())
    total += mmp->transport().retransmits();
  return total;
}

std::uint64_t total_abandoned(CrashWorld& w) {
  std::uint64_t total = 0;
  for (const auto& enb : w.site->enbs) total += enb->transport().abandoned();
  total += w.site->sgw->transport().abandoned();
  total += w.tb.hss().transport().abandoned();
  for (const auto& mlb : w.cluster->mlbs())
    total += mlb->transport().abandoned();
  for (const auto& mmp : w.cluster->mmps())
    total += mmp->transport().abandoned();
  return total;
}

std::size_t registered_count(CrashWorld& w) {
  std::size_t n = 0;
  for (const auto& ue : w.site->ues)
    if (ue->registered()) ++n;
  return n;
}

/// Shared workload: 40 devices attach, then three idle->active cycles.
void run_workload(CrashWorld& w) {
  w.tb.make_ues(*w.site, 40, {0.9, 0.3});
  w.tb.register_all(*w.site, Duration::sec(4.0), Duration::sec(10.0));
  for (int round = 0; round < 3; ++round) {
    for (auto& ue : w.site->ues)
      if (ue->registered() && !ue->connected() && !ue->busy())
        ue->service_request();
    // Serve + fall idle again (MmeApp inactivity timeout is 5s).
    w.tb.run_for(Duration::sec(8.0));
  }
  w.tb.run_for(Duration::sec(10.0));  // settle: reattach stragglers
}

struct RunFingerprint {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  sim::FaultCounters faults;
  std::uint64_t retransmits = 0;
  std::uint64_t ue_failures = 0;
  std::size_t registered = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint lossy_run(double drop_prob, std::uint64_t seed) {
  CrashWorld::Options o = chaos_options();
  o.tb.seed = seed;
  CrashWorld w(o);
  sim::LinkFaults f;
  f.drop_prob = drop_prob;
  f.dup_prob = drop_prob / 5.0;
  f.reorder_prob = drop_prob / 5.0;
  w.tb.network().set_global_faults(f);
  run_workload(w);
  return RunFingerprint{w.tb.network().messages_sent(),
                        w.tb.network().bytes_sent(),
                        w.tb.network().fault_counters(),
                        total_retransmits(w),
                        w.tb.failures(),
                        registered_count(w)};
}

TEST(Chaos, FivePercentLossNoPermanentFailures) {
  // Baseline: same workload, clean wire, shim enabled.
  CrashWorld clean(chaos_options());
  run_workload(clean);
  const std::uint64_t baseline_messages = clean.tb.network().messages_sent();
  ASSERT_EQ(registered_count(clean), clean.site->ues.size());
  ASSERT_EQ(total_retransmits(clean), 0u) << "clean wire must not retransmit";

  CrashWorld w(chaos_options());
  sim::LinkFaults f;
  f.drop_prob = 0.05;
  f.dup_prob = 0.01;
  f.reorder_prob = 0.01;
  w.tb.network().set_global_faults(f);
  run_workload(w);

  EXPECT_GT(w.tb.network().fault_counters().random_drops, 0u);
  // Zero permanent device failures: every device is registered at the end.
  EXPECT_EQ(registered_count(w), w.site->ues.size());
  // The shim worked, and within the overhead budget.
  EXPECT_GT(total_retransmits(w), 0u);
  EXPECT_LT(total_retransmits(w), 3 * baseline_messages);
  EXPECT_EQ(total_abandoned(w), 0u);
}

TEST(Chaos, SameSeedRunsAreByteIdentical) {
  const RunFingerprint a = lossy_run(0.05, 17);
  const RunFingerprint b = lossy_run(0.05, 17);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.faults.random_drops, 0u);

  // And a different seed genuinely perturbs the run (the equality above is
  // not vacuous).
  const RunFingerprint c = lossy_run(0.05, 18);
  EXPECT_NE(a.bytes, c.bytes);
}

TEST(Chaos, TwoSecondPartitionHealsWithoutLosingDevices) {
  CrashWorld::Options o = chaos_options();
  o.cluster_dc = 1;  // whole control plane across the partition from radio
  CrashWorld w(o);
  w.tb.make_ues(*w.site, 30, {0.9});
  w.tb.register_all(*w.site, Duration::sec(3.0), Duration::sec(10.0));
  ASSERT_EQ(registered_count(w), w.site->ues.size());

  const Time t0 = w.tb.engine().now();
  w.tb.network().schedule_partition(0, 1, t0 + Duration::ms(500.0),
                                    t0 + Duration::ms(2500.0));
  // Fire service requests into the outage: they must survive via
  // retransmission, not fail.
  std::size_t issued = 0;
  w.tb.engine().after(Duration::ms(600.0), [&w, &issued]() {
    for (auto& ue : w.site->ues)
      if (ue->registered() && !ue->connected() && !ue->busy() &&
          ue->service_request())
        ++issued;
  });
  w.tb.run_for(Duration::sec(30.0));

  ASSERT_GT(issued, 0u);
  EXPECT_GT(w.tb.network().fault_counters().partition_drops, 0u);
  EXPECT_GT(total_retransmits(w), 0u);
  EXPECT_EQ(w.tb.failures(), 0u)
      << "a 2s partition is inside the retransmission budget";
  EXPECT_EQ(registered_count(w), w.site->ues.size());
  std::size_t served = 0;
  for (const auto& ue : w.site->ues)
    if (ue->completed(proto::ProcedureType::kServiceRequest) > 0) ++served;
  EXPECT_GE(served, issued);
}

TEST(Chaos, SaturatingBurstShedsAndRecovers) {
  CrashWorld::Options o;  // clean wire: shedding is not a fault response
  o.mmps = 3;
  o.cluster.mmp_shed_backlog = Duration::ms(5.0);
  o.cluster.vm_template.cpu_speed = 0.25;  // easier to saturate
  o.tb.ue_guard_timeout = Duration::sec(10.0);
  CrashWorld w(o);

  // 150 devices attach within 10ms: far beyond what 3 quarter-speed VMs
  // absorb without queueing past the shed threshold.
  w.tb.make_ues(*w.site, 150, {0.9, 0.5});
  w.tb.register_all(*w.site, Duration::ms(10.0), Duration::sec(30.0));

  std::uint64_t sheds = 0;
  for (const auto& mmp : w.cluster->mmps()) sheds += mmp->overload_sheds();
  std::uint64_t rejects = 0, resteers = 0;
  for (const auto& mlb : w.cluster->mlbs()) {
    rejects += mlb->overload_rejects();
    resteers += mlb->overload_resteers();
  }
  EXPECT_GT(sheds, 0u) << "burst must trip the shed threshold";
  EXPECT_EQ(rejects, sheds) << "every shed reject reaches the MLB";
  EXPECT_EQ(resteers, rejects)
      << "the MLB re-steers every rejected request to a replica";
  // Shedding redirects; it must not turn the burst into permanent failures.
  EXPECT_EQ(registered_count(w), w.site->ues.size());
}

TEST(Chaos, ShedDisabledKeepsSeedBehaviour) {
  CrashWorld::Options o;
  o.mmps = 3;
  o.cluster.vm_template.cpu_speed = 0.25;
  o.tb.ue_guard_timeout = Duration::sec(10.0);
  CrashWorld w(o);  // mmp_shed_backlog stays zero() = disabled
  w.tb.make_ues(*w.site, 150, {0.9, 0.5});
  w.tb.register_all(*w.site, Duration::ms(10.0), Duration::sec(30.0));
  std::uint64_t sheds = 0;
  for (const auto& mmp : w.cluster->mmps()) sheds += mmp->overload_sheds();
  EXPECT_EQ(sheds, 0u);
  EXPECT_EQ(registered_count(w), w.site->ues.size());
}

struct TwoDcRun {
  std::string trajectory;
  sim::FaultCounters faults;
};

/// Two-DC SCALE world: one site + one small cluster per DC, reliable
/// transport, 3% stochastic loss (plus dups/reorders), and a scripted
/// DC0<->DC1 partition positioned inside DC 1's registration window, so it
/// cuts DC 1's attaches off from the (DC-0) HSS mid-flight. Everything
/// observable is folded into a string so runs compare byte-for-byte.
TwoDcRun two_dc_partition_run() {
  testbed::Testbed::Config tcfg;
  tcfg.seed = 99;
  tcfg.transport.reliable = true;
  tcfg.ue_guard_timeout = Duration::sec(10.0);
  testbed::Testbed tb(tcfg);
  constexpr std::uint32_t kDcs = 2;

  std::vector<testbed::Testbed::Site*> sites;
  for (std::uint32_t dc = 0; dc < kDcs; ++dc)
    sites.push_back(&tb.add_site(1, static_cast<proto::Tac>(dc + 1),
                                 Duration::ms(1.0), dc));
  tb.network().set_dc_latency(0, 1, Duration::ms(15.0));
  sim::LinkFaults f;
  f.drop_prob = 0.03;
  f.dup_prob = 0.01;
  f.reorder_prob = 0.01;
  tb.network().set_global_faults(f);
  // DC 1 registers over [11s, 41s); the partition window sits inside it.
  tb.network().schedule_partition(0, 1, Time::from_us(14'000'000),
                                  Time::from_us(16'000'000));

  std::vector<std::unique_ptr<core::ScaleCluster>> clusters;
  for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
    core::ScaleCluster::Config cfg;
    cfg.home_dc = dc;
    cfg.mme_group = static_cast<std::uint16_t>(100 + dc);
    cfg.initial_mmps = 2;
    cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 50);
    cfg.provisioner.min_vms = 2;
    cfg.provisioner.max_vms = 2;
    cfg.seed = 7 + dc;
    clusters.push_back(std::make_unique<core::ScaleCluster>(
        tb.fabric(), sites[dc]->sgw->node(), tb.hss().node(), cfg));
    clusters[dc]->connect_enb(*sites[dc]->enbs[0]);
  }
  for (auto& c : clusters) c->start();

  for (std::uint32_t dc = 0; dc < kDcs; ++dc)
    tb.make_ues(*sites[dc], 15, {0.9, 0.4});
  tb.register_all(*sites[0], Duration::sec(3.0), Duration::sec(8.0));
  tb.register_all(*sites[1], Duration::sec(10.0), Duration::sec(20.0));
  tb.run_for(Duration::sec(5.0));  // settle reattach stragglers

  std::ostringstream os;
  os << tb.network().messages_sent() << '|' << tb.network().bytes_sent()
     << '|' << tb.failures() << '|' << tb.engine().events_processed();
  for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
    std::size_t registered = 0;
    for (const auto& ue : sites[dc]->ues)
      if (ue->registered()) ++registered;
    os << '|' << registered;
    for (auto& mmp : clusters[dc]->mmps())
      os << ':' << mmp->requests_handled() << ',' << mmp->app().store().size();
  }
  const sim::FaultCounters fc = tb.network().fault_counters();
  os << '|' << fc.random_drops << ':' << fc.partition_drops << ':'
     << fc.duplicates << ':' << fc.reorders;
  const auto merged = tb.delays().merged();
  os << '|' << merged.count();
  if (merged.count() > 0)
    os << ':' << merged.percentile(0.5) << ':' << merged.percentile(0.99);
  return {os.str(), fc};
}

TEST(Chaos, TwoDcPartitionRunReplaysByteIdentical) {
  // Stochastic loss plus a scripted cross-DC partition: the fault draws come
  // from the seeded fault stream and the partition from topology, so the
  // whole trajectory — drops, retransmissions, reattaches — replays.
  const TwoDcRun a = two_dc_partition_run();
  const TwoDcRun b = two_dc_partition_run();
  EXPECT_EQ(a.trajectory, b.trajectory);
  // Non-vacuous: the partition and the stochastic faults actually fired.
  EXPECT_GT(a.faults.partition_drops, 0u);
  EXPECT_GT(a.faults.random_drops, 0u);
}

}  // namespace
}  // namespace scale
