// Ablation: overload protection policy under a mass-access event.
//
// Three arms over the same undersized pool (3 slow MMPs) hit by a burst:
//
//   none      — seed behaviour: every request joins an unbounded queue;
//   binary    — PR 1 shedding: one backlog threshold, shed everything,
//               MLB re-steers with forced accept;
//   graduated — the OverloadGovernor (DESIGN.md §9): watermark pressure
//               bands shed TAU first, Service Request next, Attach last;
//               the MLB drops deferrable sheds when the whole pool is
//               backing off and paces hot eNodeBs with OverloadStart.
//
// Goodput counts completions meeting a 1 s control-plane deadline — work
// that finishes late is work the device already gave up on. The graduated
// arm should beat both others on goodput AND attach p99: it spends its
// shedding budget on deferrable procedures to keep attaches (the reason the
// cluster exists) inside the deadline.
#include <string>

#include "obs/bench_main.h"
#include "scale_world.h"
#include "workload/arrivals.h"

namespace {

using namespace scale;

constexpr double kDeadlineMs = 1000.0;

struct Point {
  double goodput;     ///< completions/s inside the deadline
  double attach_p99;  ///< ms (run window when no attach completed)
  double sr_p99;      ///< ms (same sentinel)
  double sheds;
  double drops;
};

/// p99 with a truthful sentinel: an empty bucket means nothing completed,
/// which is a *worse* outcome than any recorded delay — report the whole
/// measurement window rather than Testbed::p99_ms's 0.0.
double p99_or(const testbed::Testbed& tb, proto::ProcedureType p,
              double sentinel_ms) {
  const double v = tb.p99_ms(p);
  return v > 0.0 ? v : sentinel_ms;
}

Point run(int mode, std::size_t burst) {
  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = 3;
  cfg.vm_template.cpu_speed = 0.05;  // ~60 attach/s per VM: undersized pool
  cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(400.0);
  if (mode == 1) {
    cfg.mmp_shed_backlog = Duration::ms(60.0);
  } else if (mode == 2) {
    cfg.mmp_governor.enabled = true;
    // Deadline-aligned watermarks. A Service Request makes ~2 CPU visits,
    // so its end-to-end latency is ~2x the backlog it admits into: keeping
    // admitted backlog under ~450 ms keeps every admitted SR inside the
    // 1 s deadline. The ladder stays ordered (TAU 400 ms < SR 450 ms <
    // Attach 500 ms of backlog) but tight: beyond it the pool is already
    // incapable of meeting the deadline, and draining a longer queue only
    // manufactures late work.
    cfg.mmp_governor.backlog_ref = Duration::ms(250.0);
    cfg.mmp_governor.low_watermark = 1.7;
    cfg.mmp_governor.high_watermark = 1.8;
    cfg.mmp_governor.overload_watermark = 2.0;
    cfg.mmp_governor.hysteresis = 0.05;
    cfg.mmp_governor.inflight_ref = 2048;
    cfg.mlb.enb_bucket_rate = 120.0;
  }
  // OverloadStart windows pace each eNB at ~125 initials/s
  // (EnodeB::kOverloadPace; two eNBs ≈ the pool's mixed-procedure
  // capacity), so the herd arrives smoothed.
  bench::ScaleWorld w(cfg, /*enbs=*/2);

  const auto registered = w.tb.make_ues(*w.site, 1500, {0.8});
  w.tb.register_all(*w.site, Duration::sec(30.0), Duration::sec(6.0));
  // Fresh devices attach *inside* the burst (mass access mixes Idle→Active
  // wakes of registered devices with first-time registrations).
  w.tb.make_ues(*w.site, 500, {0.8});
  w.tb.delays().clear();

  const Time t0 = w.tb.engine().now();
  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = 40.0;
  drv.mix.service_request = 0.7;
  drv.mix.tau = 0.3;
  workload::OpenLoopDriver driver(w.tb.engine(), registered, drv);
  driver.start(t0 + Duration::sec(14.0));

  workload::MassAccessEvent mass(w.tb.engine(), w.site->ue_ptrs());
  mass.schedule(t0 + Duration::sec(2.0), burst, Duration::sec(2.0));
  w.tb.run_for(Duration::sec(14.0));

  const double window_ms = (w.tb.engine().now() - t0).to_ms();
  std::uint64_t good = 0;
  for (const std::string& name : w.tb.delays().buckets())
    for (double d : w.tb.delays().bucket(name).samples())
      if (d <= kDeadlineMs) ++good;

  double sheds = 0.0;
  for (const auto& mmp : w.cluster->mmps()) sheds += mmp->overload_sheds();
  double drops = 0.0;
  for (const auto& mlb : w.cluster->mlbs()) drops += mlb->overload_drops();

  Point p;
  p.goodput = static_cast<double>(good) / (window_ms / 1000.0);
  p.attach_p99 = p99_or(w.tb, proto::ProcedureType::kAttach, window_ms);
  p.sr_p99 = p99_or(w.tb, proto::ProcedureType::kServiceRequest, window_ms);
  p.sheds = sheds;
  p.drops = drops;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  scale::obs::BenchMain bm(argc, argv, "ablation_overload",
                           "Overload policy under mass access");
  // Sections print eagerly as rows are added: run the full sweep first.
  constexpr std::size_t kBursts[] = {800, 1000, 1200};
  Point results[3][3];
  for (std::size_t b = 0; b < 3; ++b)
    for (int mode : {0, 1, 2}) results[b][mode] = run(mode, kBursts[b]);

  auto& good = bm.report().section(
      "goodput (completions/s meeting 1s deadline) vs burst size");
  good.columns({"burst", "none", "binary", "graduated"});
  for (std::size_t b = 0; b < 3; ++b)
    good.row({static_cast<double>(kBursts[b]), results[b][0].goodput,
              results[b][1].goodput, results[b][2].goodput});

  auto& p99 = bm.report().section(
      "attach p99 ms vs burst size (window sentinel when none completed)");
  p99.columns({"burst", "none", "binary", "graduated"});
  for (std::size_t b = 0; b < 3; ++b)
    p99.row({static_cast<double>(kBursts[b]), results[b][0].attach_p99,
             results[b][1].attach_p99, results[b][2].attach_p99});

  auto& detail = bm.report().section(
      "peak burst detail (policy: 0=none 1=binary 2=graduated)");
  detail.columns({"policy", "goodput", "attach_p99", "sr_p99", "sheds",
                  "mlb_drops"});
  for (int mode : {0, 1, 2}) {
    const Point& p = results[2][mode];
    detail.row({static_cast<double>(mode), p.goodput, p.attach_p99, p.sr_p99,
                p.sheds, p.drops});
  }
  return bm.finish();
}
