// The three SimBench workloads, each driven through the library's public
// API as a user would: build a world (Testbed + ScaleCluster), bring it to
// the measured window, run the window open-loop in simulated time, drain,
// close with one provisioning epoch, audit and tear down.
//
// Every benchmark call into a layer is wrapped in a Scope (a span in the
// traced run). The untraced run advances each scripted window segment with
// one run_for; the traced run cuts it into slices and samples engine and
// CPU state between them. The simulated results (the digest) must match.
#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <variant>

#include "core/cluster.h"
#include "obs/registry.h"
#include "replay.h"
#include "simbench.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"
#include "workload/scenarios.h"

namespace simbench {
namespace {

using namespace scale;
using testbed::Testbed;

/// A p99 is reported only with at least this many samples beyond it.
constexpr std::uint64_t kMinTailSamples = 10;

// ------------------------------------------------------------ sim counters

/// Cumulative simulator counters read through public accessors; window
/// figures are differences of two snapshots.
struct Snapshot {
  std::uint64_t events = 0, scheduled = 0, msgs = 0, bytes = 0;
  std::uint64_t batches = 0, batched = 0, dead = 0, fault_drops = 0;
  std::uint64_t retrans = 0, abandoned = 0, dups = 0;
  std::uint64_t requests = 0, forwards = 0, replicas = 0, to_master = 0;
  std::uint64_t sheds = 0, geo_off = 0, geo_rej = 0;
  std::uint64_t relays = 0, routed = 0, mlb_rejects = 0, mlb_drops = 0;
  std::vector<std::uint64_t> per_mmp;  ///< requests handled per MMP VM
};

template <typename Node>
void add_transport(Snapshot& s, const Node& node) {
  s.retrans += node.transport().retransmits();
  s.abandoned += node.transport().abandoned();
  s.dups += node.transport().duplicates_suppressed();
}

/// A world as the runner sees it: one testbed, one cluster per DC.
struct World {
  std::unique_ptr<Testbed> tb;
  std::vector<std::unique_ptr<core::ScaleCluster>> clusters;

  Snapshot snapshot() {
    Snapshot s;
    s.events = tb->engine().events_processed();
    s.scheduled = tb->engine().events_scheduled();
    s.msgs = tb->network().messages_sent();
    s.bytes = tb->network().bytes_sent();
    s.batches = tb->fabric().delivery_batches();
    s.batched = tb->fabric().batched_pdus();
    s.dead = tb->fabric().dropped();
    s.fault_drops = tb->network().fault_counters().total_drops();
    add_transport(s, tb->hss());
    for (std::size_t i = 0; i < tb->site_count(); ++i) {
      auto& site = tb->site(i);
      add_transport(s, *site.sgw);
      for (auto& enb : site.enbs) add_transport(s, *enb);
    }
    for (auto& c : clusters) {
      for (auto& mlb : c->mlbs()) {
        add_transport(s, *mlb);
        s.relays += mlb->relays();
        s.routed += mlb->initial_routed();
        s.mlb_rejects += mlb->overload_rejects();
        s.mlb_drops += mlb->overload_drops();
      }
      for (auto& m : c->mmps()) {
        add_transport(s, *m);
        s.requests += m->requests_handled();
        s.forwards += m->forwards_out();
        s.replicas += m->replicas_pushed();
        s.to_master += m->forwarded_to_master();
        s.sheds += m->overload_sheds();
        s.geo_off += m->geo_offloads();
        s.geo_rej += m->geo_rejects();
        s.per_mmp.push_back(m->requests_handled());
      }
    }
    return s;
  }

  /// Live engine events, as the engine exports them.
  double queue_depth() const {
    obs::MetricsRegistry reg;
    tb->engine().export_metrics(reg, "e");
    return reg.gauge("e.queue_depth");
  }

  std::uint64_t busy_ues() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < tb->site_count(); ++i)
      for (const auto& ue : tb->site(i).ues) if (ue->busy()) ++n;
    return n;
  }
};

/// Procedure accounting of one window: what the generators issued, and
/// what became of each procedure by the end of the drain.
struct Procs {
  std::uint64_t issued = 0;
  std::uint64_t carried_in = 0;  ///< busy when the window opened
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      ///< failed or rejected
  std::uint64_t unfinished = 0;  ///< still open after the drain
  std::uint64_t arrivals = 0;    ///< open-loop arrivals (issued or dropped)
  std::uint64_t arrival_issued = 0;
};

double seconds_since(double t0) { return host_now_s() - t0; }

std::size_t scaled(double n, double scale) {
  return static_cast<std::size_t>(n * scale + 0.5);
}

// --------------------------------------------------------------- the runner

/// Phase timing, allocation and RSS bookkeeping shared by the workloads.
class Runner {
 public:
  Runner(const Options& opt, Result& res) : opt_(opt), res_(res) {
    t_start_ = host_now_s();
    root_ = tracer().enabled ? tracer().open("run", "bench") : -1;
  }

  const Options& opt() const { return opt_; }
  Result& res() { return res_; }
  bool traced() const { return tracer().enabled; }

  /// Time a setup step; `metric` names its per-layer seconds.
  template <typename F>
  void step(const char* name, const char* layer, const char* metric, F&& fn) {
    const double t0 = host_now_s();
    {
      Scope s(name, layer);
      fn();
    }
    if (metric != nullptr) res_.set(metric, seconds_since(t0));
  }

  /// Context load into the UE store: host time, allocations, RSS growth.
  template <typename F>
  void load(const char* name, const char* layer, std::size_t ues, F&& fn) {
    const double t0 = host_now_s();
    const std::uint64_t a0 = alloc_calls();
    const std::uint64_t rss0 = proc_status_bytes("VmRSS");
    {
      Scope s(name, layer);
      fn();
    }
    const double dt = seconds_since(t0);
    const double n = static_cast<double>(std::max<std::size_t>(1, ues));
    const std::uint64_t rss1 = proc_status_bytes("VmRSS");
    res_.set("testbed.register_s", dt);
    res_.set("epc.ue_context.load_ns_per_ue", dt * 1e9 / n);
    res_.set("epc.ue_context.allocs_per_ue",
             static_cast<double>(alloc_calls() - a0) / n);
    res_.set("epc.ue_context.bytes_per_ue",
             rss1 > rss0 ? static_cast<double>(rss1 - rss0) / n : 0.0);
  }

  /// Setup ends and the measured window starts.
  void open_window(World& w) {
    if (setup_span_ >= 0) tracer().close(setup_span_);
    t_window_ = host_now_s();
    allocs0_ = alloc_calls();
    before_ = w.snapshot();
    window_span_ = traced() ? tracer().open("window", "bench") : -1;
  }

  void open_setup() {
    setup_span_ = traced() ? tracer().open("setup", "bench") : -1;
  }

  /// Advance the window by `d` of simulated time: one run_for untraced,
  /// `slices` sampled slices traced.
  void advance(World& w, Duration d, int slices) {
    if (!traced()) {
      w.tb->run_for(d);
      return;
    }
    const Time end = w.tb->engine().now() + d;
    const Duration step = d * (1.0 / static_cast<double>(slices));
    for (int i = 1; i <= slices; ++i) {
      const Time t = i == slices ? end : w.tb->engine().now() + step;
      {
        Scope s("run_for.slice", "sim");
        w.tb->run_until(t);
      }
      sample(w);
    }
  }

  /// A mid-window provisioning epoch on every cluster.
  void epoch(World& w) {
    const double t0 = host_now_s();
    for (auto& c : w.clusters) {
      Scope s("cluster.run_epoch", "core");
      c->run_epoch();
    }
    epoch_s_ += seconds_since(t0);
  }

  void close_window(World& w, std::uint64_t completed_in_window) {
    t_window_end_ = host_now_s();
    allocs_window_ = alloc_calls() - allocs0_;
    after_ = w.snapshot();
    completed_window_ = completed_in_window;
    if (window_span_ >= 0) tracer().close(window_span_);
  }

  /// Let every open procedure finish or give up: one retry horizon of the
  /// fabric's transport.
  void drain(World& w) {
    Scope phase("drain", "bench");
    Scope s("drain.run_for", "sim");
    w.tb->run_for(w.tb->fabric().transport().retry_horizon());
  }

  /// The closing provisioning epoch, then UeContextStore::audit() on every
  /// MMP.
  void close(World& w) {
    Scope phase("close", "bench");
    epoch(w);
    {
      Scope s("epoch.run_for", "sim");
      w.tb->run_for(Duration::ms(500.0));
    }
    std::size_t contexts = 0, footprint = 0;
    for (auto& c : w.clusters)
      for (auto& m : c->mmps()) {
        const epc::UeContextStore* store = nullptr;
        {
          Scope s("app.store", "mme");
          store = &m->app().store();
        }
        Scope s("store.audit", "epc");
        contexts += store->size();
        footprint += store->footprint_bytes();
        try {
          store->audit();
        } catch (const std::exception& e) {
          res_.check(false, std::string("UeContextStore::audit: ") + e.what());
        }
      }
    res_.set("epc.ue_context.footprint_per_ue",
             contexts == 0 ? 0.0
                           : static_cast<double>(footprint) /
                                 static_cast<double>(contexts));
  }

  /// Simulated results: sim metrics, output checks and the digest.
  void finish_sim(World& w, const Procs& p);
  /// Host metrics and the per-layer counters of the window.
  void finish_host();
  /// Replays on the workload's inputs (traced run only).
  void replays(World& w, const Mix& mix);
  /// Destroy the world (timed) and close the run.
  void teardown(World& w);

 private:
  void sample(World& w) {
    depth_max_ = std::max(depth_max_, w.queue_depth());
    for (auto& c : w.clusters) {
      for (auto& m : c->mmps()) {
        util_max_ = std::max(util_max_, m->utilization());
        backlog_max_ = std::max(backlog_max_, m->cpu().backlog().to_ms());
      }
      for (auto& mlb : c->mlbs())
        mlb_util_max_ = std::max(mlb_util_max_, mlb->utilization());
    }
  }

  const Options& opt_;
  Result& res_;
  int root_ = -1, setup_span_ = -1, window_span_ = -1;
  double t_start_ = 0.0, t_window_ = 0.0, t_window_end_ = 0.0;
  double epoch_s_ = 0.0;
  std::uint64_t allocs0_ = 0, allocs_window_ = 0, completed_window_ = 0;
  Snapshot before_, after_;
  Procs procs_;
  double depth_max_ = 0.0, util_max_ = 0.0, backlog_max_ = 0.0;
  double mlb_util_max_ = 0.0;
};

void Runner::finish_sim(World& w, const Procs& p) {
  procs_ = p;
  const std::uint64_t attempted = p.issued + p.carried_in;
  res_.counts["attempted"] = attempted;
  res_.counts["completed"] = p.completed;
  res_.counts["failed"] = p.failed + p.unfinished;
  res_.counts["failed_or_rejected"] = p.failed;
  res_.counts["unfinished"] = p.unfinished;
  res_.counts["carried_in"] = p.carried_in;
  res_.counts["completed_window"] = completed_window_;
  res_.check(attempted == p.completed + p.failed + p.unfinished,
             "issued != completed + failed + unfinished");
  res_.check(p.completed > 0, "no procedure completed");

  Digest d;
  for (std::uint64_t v : {p.issued, p.carried_in, p.completed, p.failed,
                          p.unfinished, p.arrivals, completed_window_})
    d.add(v);
  const Snapshot end = w.snapshot();
  for (std::uint64_t v :
       {end.events, end.scheduled, end.msgs, end.bytes, end.batches,
        end.retrans, end.abandoned, end.dups, end.requests, end.replicas,
        end.sheds, end.geo_off, end.fault_drops})
    d.add(v);
  for (std::uint64_t v : end.per_mmp) d.add(v);

  const sim::DelayRecorder& rec = w.tb->delays();
  PercentileSampler all;
  for (const std::string& b : rec.buckets()) {
    std::vector<double> xs = rec.bucket(b).samples();
    std::sort(xs.begin(), xs.end());
    d.add(static_cast<std::uint64_t>(xs.size()));
    for (double x : xs) {
      d.add(x);
      all.add(x);
    }
    res_.samples[b] = std::move(xs);
  }
  if (all.count() >= 100 * kMinTailSamples) {
    res_.set("delay_p50_ms", all.percentile(0.50));
    res_.set("delay_p99_ms", all.percentile(0.99));
  }
  const struct {
    proto::ProcedureType type;
    const char* metric;
    const char* count;
  } classes[] = {
      {proto::ProcedureType::kAttach, "attach_p99_ms", "attach_n"},
      {proto::ProcedureType::kServiceRequest, "sr_p99_ms", "sr_n"},
      {proto::ProcedureType::kTrackingAreaUpdate, "tau_p99_ms", "tau_n"},
  };
  for (const auto& c : classes) {
    const std::uint64_t n = rec.has(c.type) ? rec.bucket(c.type).count() : 0;
    res_.counts[c.count] = n;
    if (n >= 100 * kMinTailSamples)  // else absent, never 0
      res_.set(c.metric, rec.bucket(c.type).percentile(0.99));
  }
  if (attempted > 0)
    res_.set("proc_ok_ratio", static_cast<double>(p.completed) /
                                  static_cast<double>(attempted));
  res_.digest = d.value();
}

void Runner::finish_host() {
  const double window_s = t_window_end_ - t_window_;
  const double done =
      static_cast<double>(std::max<std::uint64_t>(1, completed_window_));
  res_.set("setup_s", t_window_ - t_start_);
  res_.set("window_s", window_s);
  res_.set("procs_per_s",
           static_cast<double>(completed_window_) / window_s);
  res_.set("allocs_per_proc", static_cast<double>(allocs_window_) / done);
  res_.counts["window_allocs"] = allocs_window_;

  const Snapshot& a = before_;
  const Snapshot& b = after_;
  const auto per = [done](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x) / done;
  };
  const auto delta = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  res_.counts["window_events"] = b.events - a.events;
  res_.counts["window_msgs"] = b.msgs - a.msgs;
  res_.counts["window_requests"] = b.requests - a.requests;
  res_.counts["window_routed"] = b.routed - a.routed;
  res_.set("sim.engine.events_per_proc", per(a.events, b.events));
  res_.set("sim.engine.scheduled_per_proc", per(a.scheduled, b.scheduled));
  res_.set("sim.engine.queue_depth_max", depth_max_);
  res_.set("sim.cpu.mmp_util_max", util_max_);
  res_.set("sim.cpu.mmp_backlog_ms_max", backlog_max_);
  res_.set("sim.network.msgs_per_proc", per(a.msgs, b.msgs));
  res_.set("sim.network.bytes_per_proc", per(a.bytes, b.bytes));
  res_.set("sim.network.fault_drops", delta(a.fault_drops, b.fault_drops));
  const double folded = delta(a.batched, b.batched);
  const double batches = delta(a.batches, b.batches);
  res_.set("epc.fabric.batch_fold_ratio",
           folded + batches > 0.0 ? folded / (folded + batches) : 0.0);
  res_.set("epc.fabric.dead_drops", delta(a.dead, b.dead));
  res_.set("epc.reliable.retransmits_per_proc", per(a.retrans, b.retrans));
  res_.set("epc.reliable.abandoned", delta(a.abandoned, b.abandoned));
  res_.set("epc.reliable.dups_suppressed", delta(a.dups, b.dups));
  res_.set("mme.vm.requests_per_proc", per(a.requests, b.requests));
  res_.set("mme.vm.forwards_per_proc", per(a.forwards, b.forwards));
  res_.set("mme.vm.replicas_pushed_per_proc", per(a.replicas, b.replicas));
  res_.set("core.mlb.relays_per_proc", per(a.relays, b.relays));
  res_.set("core.mlb.util_max", mlb_util_max_);
  res_.set("core.mlb.overload_rejects", delta(a.mlb_rejects, b.mlb_rejects));
  res_.set("core.mlb.overload_drops", delta(a.mlb_drops, b.mlb_drops));
  res_.set("core.mmp.overload_sheds", delta(a.sheds, b.sheds));
  res_.set("core.mmp.forwarded_to_master", delta(a.to_master, b.to_master));
  res_.set("core.geo.offloads", delta(a.geo_off, b.geo_off));
  res_.set("core.geo.rejects", delta(a.geo_rej, b.geo_rej));
  // Steering imbalance: the busiest MMP's window requests over the mean.
  double mx = 0.0, sum = 0.0;
  const std::size_t n = std::min(a.per_mmp.size(), b.per_mmp.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double r = delta(a.per_mmp[i], b.per_mmp[i]);
    mx = std::max(mx, r);
    sum += r;
  }
  res_.set("core.steering.imbalance",
           sum > 0.0 ? mx * static_cast<double>(n) / sum : 0.0);
  res_.set("core.cluster.epoch_s", epoch_s_);
  const double arrivals = static_cast<double>(procs_.arrivals);
  res_.set("workload.arrival_drop_ratio",
           arrivals > 0.0
               ? (arrivals - static_cast<double>(procs_.arrival_issued)) /
                     arrivals
               : 0.0);
}

void Runner::replays(World& w, const Mix& mix) {
  if (!traced()) return;
  Scope phase("replays", "bench");
  const std::vector<proto::Pdu> pdus = pdu_mix(mix);
  const auto timed = [](const char* name, auto&& fn) {
    Scope s(name, "replay");
    return fn();
  };
  const auto depth = static_cast<std::size_t>(std::max(1.0, depth_max_));
  const Cost ev = timed("replay.event", [&] { return replay_event(depth); });
  const Cost ws = timed("replay.wire_size", [&] { return replay_wire_size(pdus); });
  const Cost en = timed("replay.encode", [&] { return replay_encode(pdus); });
  const Cost de = timed("replay.decode", [&] { return replay_decode(pdus); });
  const Cost hop = timed("replay.hop", [&] { return replay_hop(pdus); });

  // The workload's keys: master contexts (at most kMaxKeys, evenly
  // strided), each looked up at the store that holds it.
  std::vector<std::pair<const epc::UeContextStore*, std::uint64_t>> lookups;
  constexpr std::size_t kMaxKeys = 200'000;
  for (auto& c : w.clusters)
    for (auto& m : c->mmps()) {
      const epc::UeContextStore& store = m->app().store();
      for (std::uint64_t k : store.keys_if([](const epc::UeContext& ctx) {
             return ctx.role == epc::ContextRole::kMaster;
           }))
        lookups.emplace_back(&store, k);
    }
  const std::size_t stride = lookups.size() / kMaxKeys + 1;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < lookups.size(); i += stride)
    lookups[kept++] = lookups[i];
  lookups.resize(kept);
  // Interleave stores so lookups don't walk one store's keys in order.
  Rng shuffle(opt_.seed ^ 0x5EEDull);
  shuffle.shuffle(lookups);
  std::vector<std::uint64_t> keys;
  keys.reserve(lookups.size());
  for (const auto& l : lookups) keys.push_back(l.second);
  const Cost find = timed("replay.find", [&] { return replay_find(lookups); });
  const Cost owner = timed("replay.owner",
                           [&] { return replay_owner(w.clusters.front()->ring(), keys); });

  res_.set("sim.engine.event_ns", ev.ns);
  res_.set("proto.codec.wire_size_ns", ws.ns);
  res_.set("proto.codec.encode_ns", en.ns);
  res_.set("proto.codec.decode_ns", de.ns);
  res_.set("proto.codec.allocs_per_encode", en.allocs);
  res_.set("epc.fabric.hop_ns", hop.ns);
  res_.set("epc.fabric.allocs_per_hop", hop.allocs);
  res_.set("epc.ue_context.find_ns", find.ns);
  res_.set("hash.ring.owner_ns", owner.ns);

  // Σ replay cost × window call count: a hop per message (its delivery
  // event and wire_size included), an event per remaining event, a store
  // lookup per MMP request and a ring lookup per initial route.
  const auto c = [&](const char* k) {
    return static_cast<double>(res_.counts[k]);
  };
  const double other_events =
      std::max(0.0, c("window_events") - c("window_msgs"));
  const double attributed_ns = c("window_msgs") * hop.ns +
                               other_events * ev.ns +
                               c("window_requests") * find.ns +
                               c("window_routed") * owner.ns;
  res_.set("run.attributed_s", attributed_ns * 1e-9);
}

void Runner::teardown(World& w) {
  const double t0 = host_now_s();
  {
    Scope s("world.destroy", "teardown");
    w.clusters.clear();
    w.tb.reset();
  }
  res_.set("teardown_s", seconds_since(t0));
  res_.set("wall_s", seconds_since(t_start_));
  if (root_ >= 0) tracer().close(root_);
  res_.set("peak_rss_mb",
           static_cast<double>(proc_status_bytes("VmHWM")) / (1024.0 * 1024.0));
}

// ------------------------------------------------------------- s1_steady

/// The paper's S1 world (fig 10(a)): one DC, 30 MMP VMs, R = 2, 24 K UEs,
/// mild (L1) skew, an SR/TAU/attach/detach mix at 0.6 of nominal capacity.
void s1_steady(Runner& run, World& w) {
  const Options& o = run.opt();
  constexpr std::size_t kVms = 30;
  constexpr double kCapacity = kVms * 150.0;  // SR/s at cpu_speed 0.1
  const std::size_t devices = scaled(24'000, o.scale);
  Testbed::Site* site = nullptr;

  run.step("testbed.build", "testbed", "testbed.build_s", [&] {
    Testbed::Config tcfg;
    tcfg.seed = o.seed;
    tcfg.auto_reattach = false;  // every procedure comes from the generators
    w.tb = std::make_unique<Testbed>(tcfg);
    site = &w.tb->add_site(2);
  });
  run.step("cluster.build", "core", nullptr, [&] {
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = kVms;
    cfg.policy.local_copies = 2;
    cfg.vm_template.cpu_speed = 0.1;
    cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(400.0);
    cfg.provisioner.devices_per_vm = 100'000;  // provisioning out of the way
    cfg.seed = o.seed * 7 + 3;
    w.clusters.push_back(std::make_unique<core::ScaleCluster>(
        w.tb->fabric(), site->sgw->node(), w.tb->hss().node(), cfg));
    for (auto& enb : site->enbs) w.clusters[0]->connect_enb(*enb);
  });
  run.step("testbed.make_ues", "testbed", "testbed.make_ues_s",
           [&] { w.tb->make_ues(*site, devices, {0.8}); });
  std::size_t registered = 0;
  run.load("testbed.register_all", "testbed", devices, [&] {
    registered = w.tb->register_all(*site, Duration::sec(40.0),
                                    Duration::sec(4.0));
  });
  run.res().check(registered == devices, "not every UE registered in setup");

  // L1 skew: devices mastered on the first 20% of VMs get 1.5x the share.
  std::unique_ptr<workload::OpenLoopDriver> hot, cold;
  run.step("driver.build", "workload", nullptr, [&] {
    std::set<sim::NodeId> hot_vms;
    core::ScaleCluster& c = *w.clusters[0];
    for (std::size_t i = 0; i < kVms / 5; ++i) hot_vms.insert(c.mmp(i).node());
    const auto split = workload::make_skewed_split(
        site->ue_ptrs(), 0.6 * kCapacity, 1.5, [&](const epc::Ue& ue) {
          return ue.guti().has_value() &&
                 hot_vms.count(c.ring().owner(ue.guti()->key())) > 0;
        });
    workload::OpenLoopDriver::Config d;
    d.mix.service_request = 0.65;
    d.mix.tau = 0.25;
    d.mix.attach = 0.05;
    d.mix.detach = 0.05;
    d.rate_per_sec = split.hot_rate_per_sec;
    d.seed = o.seed * 13 + 1;
    hot = std::make_unique<workload::OpenLoopDriver>(w.tb->engine(), split.hot, d);
    d.rate_per_sec = split.cold_rate_per_sec;
    d.seed = o.seed * 13 + 2;
    cold = std::make_unique<workload::OpenLoopDriver>(w.tb->engine(), split.cold, d);
  });

  Procs p;
  p.carried_in = w.busy_ues();
  w.tb->delays().clear();
  const std::uint64_t fail0 = w.tb->failures();
  run.open_window(w);
  const Duration window = Duration::sec(15.0);
  run.step("driver.start", "workload", nullptr, [&] {
    const Time until = w.tb->engine().now() + window;
    hot->start(until);
    cold->start(until);
  });
  run.advance(w, window, 20);
  run.close_window(w, w.tb->delays().total_count());
  run.drain(w);

  p.issued = hot->issued() + cold->issued();
  p.arrival_issued = p.issued;
  p.arrivals = hot->arrivals() + cold->arrivals();
  p.completed = w.tb->delays().total_count();
  p.failed = w.tb->failures() - fail0;
  p.unfinished = w.busy_ues();
  run.close(w);
  run.finish_sim(w, p);
  run.finish_host();
  run.replays(w, Mix{0.65, 0.25, 0.05, 0.05, true});
  run.teardown(w);
}

// ------------------------------------------------------------- geo_chaos

/// The fig 10(b) topology with every robustness feature on at once:
/// 4 DCs x 2 MMPs (DC2 far away), reliable transport over a lossy network,
/// graduated governor, p2c steering, a throttled DC3 VM, a mass-access
/// herd and a mid-window epoch, TAU-heavy load at 1.3x on DC1/DC3.
void geo_chaos(Runner& run, World& w) {
  const Options& o = run.opt();
  constexpr std::uint32_t kDcs = 4;
  constexpr std::size_t kVmsPerDc = 2;
  constexpr double kCpu = 0.25;
  constexpr double kDcCapacity = kVmsPerDc * 380.0;  // mixed procedures/s
  const std::size_t per_dc = scaled(2000, o.scale);
  const std::size_t herd = scaled(300, o.scale);
  std::vector<Testbed::Site*> sites;

  run.step("testbed.build", "testbed", "testbed.build_s", [&] {
    Testbed::Config tcfg;
    tcfg.seed = o.seed;
    tcfg.auto_reattach = false;
    tcfg.transport.reliable = true;
    w.tb = std::make_unique<Testbed>(tcfg);
    for (std::uint32_t dc = 0; dc < kDcs; ++dc)
      sites.push_back(&w.tb->add_site(1, static_cast<proto::Tac>(dc + 1),
                                      Duration::ms(1.0), dc));
    for (std::uint32_t a = 0; a < kDcs; ++a)
      for (std::uint32_t b = a + 1; b < kDcs; ++b)
        w.tb->network().set_dc_latency(
            a, b, (a == 1 || b == 1) ? Duration::ms(150.0) : Duration::ms(15.0));
    sim::LinkFaults faults;
    faults.drop_prob = 0.002;
    faults.dup_prob = 0.002;
    faults.reorder_prob = 0.002;
    w.tb->network().set_fault_seed(o.seed * 31 + 7);
    w.tb->network().set_global_faults(faults);
  });
  run.step("cluster.build", "core", nullptr, [&] {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      core::ScaleCluster::Config cfg;
      cfg.home_dc = dc;
      cfg.mme_group = static_cast<std::uint16_t>(100 + dc);
      cfg.initial_mmps = kVmsPerDc;
      cfg.first_vm_code = static_cast<std::uint8_t>(1 + dc * 50);
      cfg.vm_template.cpu_speed = kCpu;
      cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(500.0);
      cfg.geo.gossip_interval = Duration::ms(300.0);
      cfg.geo.budget_fraction = 0.05;
      cfg.geo.selection = core::GeoManager::Selection::kScale;
      cfg.ring_tokens = 32;
      cfg.provisioner.devices_per_vm = 40'000;
      cfg.provisioner.min_vms = kVmsPerDc;
      cfg.provisioner.max_vms = kVmsPerDc;
      cfg.mmp_offload_threshold = 0.8;
      cfg.mlb.steering.policy = core::SteeringPolicyKind::kPowerOfTwoChoices;
      cfg.mmp_governor.enabled = true;
      cfg.mmp_governor.backlog_ref = Duration::ms(250.0);
      cfg.mmp_governor.low_watermark = 1.7;
      cfg.mmp_governor.high_watermark = 1.8;
      cfg.mmp_governor.overload_watermark = 2.0;
      cfg.mmp_governor.hysteresis = 0.05;
      cfg.mmp_governor.inflight_ref = 2048;
      cfg.seed = o.seed * 7 + dc;
      w.clusters.push_back(std::make_unique<core::ScaleCluster>(
          w.tb->fabric(), sites[dc]->sgw->node(), w.tb->hss().node(), cfg));
      core::ScaleCluster& c = *w.clusters.back();
      c.connect_enb(*sites[dc]->enbs[0]);
      w.tb->assign_dc(c.mlb().node(), dc);
      for (auto& m : c.mmps()) w.tb->assign_dc(m->node(), dc);
    }
    for (std::uint32_t a = 0; a < kDcs; ++a)
      for (std::uint32_t b = 0; b < kDcs; ++b)
        if (a != b)
          w.clusters[a]->geo().add_peer(b, w.clusters[b]->mlb().node(),
                                        w.tb->network().dc_latency(a, b));
    for (auto& c : w.clusters) c->start();
  });

  std::vector<std::vector<epc::Ue*>> devices(kDcs);
  run.step("testbed.make_ues", "testbed", "testbed.make_ues_s", [&] {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc)
      devices[dc] = w.tb->make_ues(*sites[dc], per_dc, {0.9});
  });
  std::size_t registered = 0;
  run.load("testbed.register_all", "testbed", per_dc * kDcs, [&] {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc)
      registered += w.tb->register_all(*sites[dc], Duration::sec(25.0),
                                       Duration::sec(4.0));
  });
  run.res().check(registered >= per_dc * kDcs * 99 / 100,
                  "fewer than 99% of UEs registered in setup");
  // The herd's first-time devices exist but have not attached yet.
  run.step("testbed.make_ues", "testbed", nullptr,
           [&] { w.tb->make_ues(*sites[0], herd, {0.9}); });
  run.epoch(w);  // geo placement from the registered population
  {
    Scope s("setup.run_for", "sim");
    w.tb->run_for(Duration::sec(2.0));
  }

  std::vector<std::unique_ptr<workload::OpenLoopDriver>> drivers;
  std::unique_ptr<workload::MassAccessEvent> mass;
  run.step("driver.build", "workload", nullptr, [&] {
    for (std::uint32_t dc = 0; dc < kDcs; ++dc) {
      workload::OpenLoopDriver::Config d;
      d.rate_per_sec = kDcCapacity * ((dc == 0 || dc == 2) ? 1.3 : 0.3);
      d.mix.service_request = 0.25;
      d.mix.tau = 0.65;
      d.mix.attach = 0.05;
      d.mix.detach = 0.05;
      d.seed = o.seed * 13 + dc;
      drivers.push_back(std::make_unique<workload::OpenLoopDriver>(
          w.tb->engine(), devices[dc], d));
    }
    mass = std::make_unique<workload::MassAccessEvent>(
        w.tb->engine(), sites[0]->ue_ptrs(), o.seed * 17 + 5);
  });

  Procs p;
  p.carried_in = w.busy_ues();
  w.tb->delays().clear();
  const std::uint64_t fail0 = w.tb->failures();
  run.open_window(w);
  const Duration third = Duration::sec(6.0);
  run.step("driver.start", "workload", nullptr, [&] {
    const Time t0 = w.tb->engine().now();
    for (auto& d : drivers) d->start(t0 + third * 3.0);
    mass->schedule(t0 + Duration::sec(7.0), 2 * herd, Duration::sec(1.0));
  });
  run.advance(w, third, 8);
  run.step("cpu.throttle", "sim", nullptr, [&] {
    w.clusters[2]->mmp(0).cpu().set_speed_factor(kCpu * 0.2);
  });
  run.advance(w, third, 8);
  run.epoch(w);
  run.advance(w, third, 8);
  run.close_window(w, w.tb->delays().total_count());
  run.drain(w);

  for (auto& d : drivers) {
    p.issued += d->issued();
    p.arrivals += d->arrivals();
  }
  p.arrival_issued = p.issued;
  p.issued += mass->issued();
  p.completed = w.tb->delays().total_count();
  p.failed = w.tb->failures() - fail0;
  p.unfinished = w.busy_ues();
  run.close(w);
  run.finish_sim(w, p);
  run.finish_host();
  run.replays(w, Mix{0.25, 0.65, 0.05, 0.05, true});
  run.teardown(w);
}

// -------------------------------------------------------------- storm_1m

/// The storm's eNodeB: fires seeded Service Requests and TAUs for loaded
/// contexts at the MLB (open loop, Poisson) and times each one from send
/// to its accept.
class StormEnb final : public epc::Endpoint {
 public:
  StormEnb(Testbed& tb, sim::NodeId mlb, std::uint64_t seed,
           std::uint64_t budget, std::uint32_t first_tmsi, std::uint32_t ues)
      : tb_(tb), mlb_(mlb), rng_(seed), budget_(budget),
        first_tmsi_(first_tmsi), ues_(ues) {
    self_ = tb.fabric().add_endpoint(this);
    sent_at_.reserve(budget);
    kind_.reserve(budget);
  }
  ~StormEnb() override = default;
  StormEnb(const StormEnb&) = delete;
  StormEnb& operator=(const StormEnb&) = delete;

  /// Sends from `at`, one per `interval` on average.
  void start(Time at, Duration interval) {
    interval_ = interval;
    tb_.engine().at(at, [this] { send_one(); });
  }

  void receive(sim::NodeId, const proto::Pdu& pdu) override {
    const auto* s1 = std::get_if<proto::S1apMessage>(&pdu);
    if (s1 == nullptr) return;
    const auto* dl = std::get_if<proto::DownlinkNasTransport>(s1);
    if (dl == nullptr || dl->enb_ue_id == 0 || dl->enb_ue_id > sent_at_.size())
      return;
    const std::size_t i = dl->enb_ue_id - 1;
    if (kind_[i] == kDone) return;
    const bool sr = kind_[i] == kSr;
    if (std::holds_alternative<proto::NasServiceAccept>(dl->nas) ||
        std::holds_alternative<proto::NasTauAccept>(dl->nas)) {
      tb_.delays().record(sr ? proto::ProcedureType::kServiceRequest
                             : proto::ProcedureType::kTrackingAreaUpdate,
                          tb_.engine().now() - sent_at_[i]);
      ++(sr ? sr_accepts : tau_accepts);
      kind_[i] = kDone;
    } else if (std::holds_alternative<proto::NasServiceReject>(dl->nas)) {
      ++rejects;
      kind_[i] = kDone;
    }
  }

  std::uint64_t sent() const { return sent_at_.size(); }
  std::uint64_t sr_accepts = 0, tau_accepts = 0, rejects = 0;
  std::uint64_t sr_sent = 0;

 private:
  enum : std::uint8_t { kSr, kTau, kDone };

  void send_one() {
    const auto ue = static_cast<std::uint32_t>(rng_.next_below(ues_));
    const proto::Guti guti{1, 1, 1, first_tmsi_ + ue};
    const bool sr = rng_.uniform(0.0, 1.0) < 0.75;
    proto::InitialUeMessage msg;
    msg.enb_id = static_cast<std::uint32_t>(self_);  // replies route back
    msg.enb_ue_id = static_cast<proto::EnbUeId>(sent_at_.size() + 1);
    msg.tac = 7;
    if (sr) {
      proto::NasServiceRequest req;
      req.mme_code = guti.mme_code;
      req.m_tmsi = guti.m_tmsi;
      msg.nas = proto::NasMessage{req};
      ++sr_sent;
    } else {
      proto::NasTauRequest req;
      req.guti = guti;
      req.tac = 7;
      msg.nas = proto::NasMessage{req};
    }
    sent_at_.push_back(tb_.engine().now());
    kind_.push_back(sr ? kSr : kTau);
    tb_.fabric().send(self_, mlb_, proto::make_pdu(msg));
    if (sent_at_.size() < budget_)  // Poisson arrivals, mean `interval_`
      tb_.engine().after(
          Duration::sec(rng_.exponential(1.0 / interval_.to_sec())),
          [this] { send_one(); });
  }

  Testbed& tb_;
  sim::NodeId self_ = 0;
  sim::NodeId mlb_;
  Rng rng_;
  std::uint64_t budget_;
  std::uint32_t first_tmsi_;
  std::uint32_t ues_;
  Duration interval_ = Duration::us(10);
  std::vector<Time> sent_at_;
  std::vector<std::uint8_t> kind_;
};

/// The perf_core capacity world rebuilt: 10^6 contexts loaded by
/// MmeApp::adopt on 8 MMPs, then a ~2x10^5-procedure SR/TAU/first-attach
/// storm at 10^5/s through MLB steering, closed by one run_epoch.
void storm_1m(Runner& run, World& w) {
  const Options& o = run.opt();
  const std::size_t ues = scaled(1'000'000, o.scale);
  const std::size_t sends = scaled(190'000, o.scale);
  const std::size_t attachers = scaled(10'000, o.scale);
  constexpr std::uint32_t kFirstTmsi = 0x10000000;  // clear of MLB-assigned
  const Duration interval = Duration::us(10);       // 10^5 sends/s
  Testbed::Site* site = nullptr;

  run.step("testbed.build", "testbed", "testbed.build_s", [&] {
    Testbed::Config tcfg;
    tcfg.seed = o.seed;
    tcfg.auto_reattach = false;
    w.tb = std::make_unique<Testbed>(tcfg);
    // Link jitter: without it the storm's fixed-latency path would give
    // every seed the same median delay.
    w.tb->network().set_jitter(0.2);
    site = &w.tb->add_site(1, 7);
  });
  run.step("cluster.build", "core", nullptr, [&] {
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = 8;
    cfg.mlb.cpu_speed = 50.0;
    cfg.vm_template.cpu_speed = 10.5;  // ~0.9 MMP utilization in the storm
    cfg.vm_template.app.profile.inactivity_timeout = Duration::ms(400.0);
    // Eq. 1 reproduces the running pool: V_S = ceil(R*K/S) with R = 2 and
    // S = K/4 keeps the closing epoch at 8 VMs (K counts the attachers).
    cfg.provisioner.devices_per_vm = (ues + attachers) / 4 + 1;
    cfg.provisioner.requests_per_vm_epoch = 100'000'000;
    cfg.seed = o.seed * 7 + 3;
    w.clusters.push_back(std::make_unique<core::ScaleCluster>(
        w.tb->fabric(), site->sgw->node(), w.tb->hss().node(), cfg));
    w.clusters[0]->connect_enb(*site->enbs[0]);
  });
  std::vector<epc::Ue*> fresh;
  run.step("testbed.make_ues", "testbed", "testbed.make_ues_s",
           [&] { fresh = w.tb->make_ues(*site, attachers, {0.5}); });

  core::ScaleCluster& c = *w.clusters[0];
  run.load("mme.adopt_load", "mme", ues, [&] {
    std::unordered_map<sim::NodeId, core::MmpNode*> by_node;
    for (auto& m : c.mmps()) by_node[m->node()] = m.get();
    for (std::size_t i = 0; i < ues; ++i) {
      proto::UeContextRecord rec;
      rec.imsi = 200'000'000'000'000ull + i;
      rec.guti = proto::Guti{1, 1, 1, kFirstTmsi + static_cast<std::uint32_t>(i)};
      rec.access_freq = 0.5;
      rec.tac = 7;
      rec.sgw_node = static_cast<std::uint32_t>(site->sgw->node());
      by_node.at(c.ring().owner(rec.guti.key()))
          ->app()
          .adopt(rec, epc::ContextRole::kMaster);
    }
  });
  run.res().check(c.registered_devices() == ues,
                  "storm_1m did not load every context");

  std::unique_ptr<StormEnb> enb;
  std::unique_ptr<workload::MassAccessEvent> mass;
  const Duration span = interval * static_cast<double>(sends);
  run.step("driver.build", "workload", nullptr, [&] {
    enb = std::make_unique<StormEnb>(*w.tb, c.mlb().node(), o.seed * 11 + 1,
                                     sends, kFirstTmsi,
                                     static_cast<std::uint32_t>(ues));
    mass = std::make_unique<workload::MassAccessEvent>(w.tb->engine(), fresh,
                                                       o.seed * 17 + 5);
  });

  Procs p;
  w.tb->delays().clear();
  const std::uint64_t fail0 = w.tb->failures();
  run.open_window(w);
  run.step("driver.start", "workload", nullptr, [&] {
    const Time t0 = w.tb->engine().now() + Duration::us(1);
    enb->start(t0, interval);
    mass->schedule(t0, attachers, span);
  });
  run.advance(w, span + Duration::ms(300.0), 20);
  run.close_window(w, w.tb->delays().total_count());
  run.drain(w);

  p.issued = enb->sent() + mass->issued();
  p.completed = w.tb->delays().total_count();
  p.failed = (w.tb->failures() - fail0) + enb->rejects;
  p.unfinished = w.busy_ues() +
                 (enb->sent() - enb->sr_accepts - enb->tau_accepts - enb->rejects);
  run.res().check(enb->sent() == sends, "storm_1m sent fewer than its budget");
  run.res().check(static_cast<double>(enb->sr_accepts) >=
                      0.995 * static_cast<double>(enb->sr_sent),
                  "storm_1m accepted fewer than 99.5% of its SRs");
  run.close(w);
  run.res().check(c.last_epoch().registered >= ues &&
                      c.last_epoch().decision.vms == 8,
                  "storm_1m closing epoch changed the pool");
  run.finish_sim(w, p);
  run.finish_host();
  run.replays(w, Mix{0.7, 0.25, 0.05, 0.0, false});
  run.teardown(w);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"s1_steady", "geo_chaos",
                                                 "storm_1m"};
  return names;
}

Result run_workload(const Options& opt) {
  Result res;
  Runner run(opt, res);
  World w;
  run.open_setup();
  if (opt.workload == "s1_steady")
    s1_steady(run, w);
  else if (opt.workload == "geo_chaos")
    geo_chaos(run, w);
  else if (opt.workload == "storm_1m")
    storm_1m(run, w);
  else
    throw std::invalid_argument("unknown workload: " + opt.workload);
  return res;
}

}  // namespace simbench
