// Steering unit behaviours (DESIGN.md §11): MmpLoadView sentinel
// semantics, golden pick sequences for both policies at fixed inputs,
// per-policy cluster determinism (golden digests and replay across runs),
// and the ablation bench's byte-identity gate.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/steering.h"
#include "obs/registry.h"
#include "testbed/testbed.h"
#include "workload/arrivals.h"

namespace scale {
namespace {

using core::kNoLoadReport;
using core::MmpLoadView;
using core::SteeringContext;
using core::SteeringDecision;
using core::SteeringPolicyKind;
using core::SteerReason;
using testbed::Testbed;

Time at_sec(double s) { return Time::zero() + Duration::sec(s); }

using PickFn = SteeringDecision (*)(const SteeringContext&);

SteeringDecision pick(PickFn policy, const MmpLoadView& view,
                      const std::vector<hash::RingNodeId>& prefs, Time now,
                      std::uint64_t key = 1) {
  return policy(SteeringContext{key, prefs, view, now});
}

// ------------------------------------------------------------ MmpLoadView

TEST(MmpLoadView, NeverReportedIsASentinelNotZero) {
  MmpLoadView view;
  EXPECT_FALSE(view.has_report(7));
  EXPECT_EQ(view.load_of(7), kNoLoadReport);
  // Steering comparisons are optimistic about unknowns (a fresh VM must
  // receive traffic immediately — the seed's defaulted-map behaviour)...
  EXPECT_EQ(view.effective_load(7), 0.0);

  view.on_report(7, 0.0);
  // ...but the accessor distinguishes "reported load 0" from "never heard".
  EXPECT_TRUE(view.has_report(7));
  EXPECT_EQ(view.load_of(7), 0.0);
  EXPECT_EQ(view.load_of(8), kNoLoadReport);
}

TEST(MmpLoadView, EwmaAlphaOneKeepsRawReports) {
  MmpLoadView view;  // the last report, unsmoothed: the seed behaviour
  view.on_report(1, 0.8);
  view.on_report(1, 0.2);
  EXPECT_DOUBLE_EQ(view.load_of(1), 0.2);
}

TEST(MmpLoadView, BackoffAndPoolAggregates) {
  MmpLoadView view;
  view.on_report(1, 0.4);
  view.on_report(2, 1.2);
  view.on_reject(2, at_sec(3.0));

  EXPECT_TRUE(view.in_backoff(2, at_sec(2.0)));
  EXPECT_FALSE(view.in_backoff(2, at_sec(3.0)));  // window end is exclusive
  EXPECT_FALSE(view.in_backoff(1, at_sec(2.0)));
  EXPECT_TRUE(view.any_backoff(at_sec(2.0)));
  EXPECT_FALSE(view.any_backoff(at_sec(4.0)));

  EXPECT_TRUE(view.any_load_at_least(1.2));
  EXPECT_FALSE(view.any_load_at_least(1.3));
}

// --------------------------------------------------------- RingLeastLoaded

TEST(RingLeastLoaded, GoldenPickSequence) {
  MmpLoadView view;
  const PickFn policy = core::pick_ring_least_loaded;
  const std::vector<hash::RingNodeId> prefs{1, 2, 3};
  const Time t = at_sec(1.0);

  // No reports: everything ties at optimistic 0 — first in list wins.
  auto d = pick(policy, view, prefs, t);
  EXPECT_EQ(d.target, 1u);
  EXPECT_EQ(d.reason, SteerReason::kLeastLoaded);

  view.on_report(1, 0.5);
  view.on_report(2, 0.1);
  view.on_report(3, 0.7);
  EXPECT_EQ(pick(policy, view, prefs, t).target, 2u);

  // A candidate in a shed-backoff window loses to any candidate outside.
  view.on_reject(2, at_sec(5.0));
  EXPECT_EQ(pick(policy, view, prefs, t).target, 1u);

  // All shed: least loaded among the shed class.
  view.on_reject(1, at_sec(5.0));
  view.on_reject(3, at_sec(5.0));
  EXPECT_EQ(pick(policy, view, prefs, t).target, 2u);

  // Backoff expiry restores the load order.
  EXPECT_EQ(pick(policy, view, prefs, at_sec(6.0)).target, 2u);
}

TEST(RingLeastLoaded, SingleCandidateShortCircuits) {
  MmpLoadView view;
  const PickFn policy = core::pick_ring_least_loaded;
  const std::vector<hash::RingNodeId> prefs{1};
  const auto d = pick(policy, view, prefs, at_sec(1.0));
  EXPECT_EQ(d.target, 1u);
  EXPECT_EQ(d.reason, SteerReason::kOnlyCandidate);
}

TEST(RingLeastLoaded, FreshVmOutranksAnyReportedLoad) {
  // "No report yet" is not "load 0" in the accessors, but steering is
  // deliberately optimistic: a VM that never reported beats one reporting
  // 0.3 — new capacity gets traffic before its first report lands.
  MmpLoadView view;
  view.on_report(1, 0.3);
  const PickFn policy = core::pick_ring_least_loaded;
  const std::vector<hash::RingNodeId> prefs{1, 2};
  EXPECT_EQ(pick(policy, view, prefs, at_sec(1.0)).target, 2u);
}

// ------------------------------------------------------- PowerOfTwoChoices

TEST(PowerOfTwoChoices, TwoCandidatesLowerLoadWins) {
  MmpLoadView view;
  view.on_report(1, 0.9);
  view.on_report(2, 0.1);
  const PickFn policy = core::pick_p2c;
  const std::vector<hash::RingNodeId> prefs{1, 2};

  auto d = pick(policy, view, prefs, at_sec(1.0));
  EXPECT_EQ(d.target, 2u);
  EXPECT_EQ(d.reason, SteerReason::kP2cWinner);

  // Backoff disqualifies the otherwise-lighter candidate.
  view.on_reject(2, at_sec(5.0));
  EXPECT_EQ(pick(policy, view, prefs, at_sec(1.0)).target, 1u);

  // On a load tie, locality wins: the earlier preference-list entry.
  MmpLoadView tied;
  tied.on_report(1, 0.4);
  tied.on_report(2, 0.4);
  EXPECT_EQ(pick(policy, tied, prefs, at_sec(1.0)).target, 1u);
}

TEST(PowerOfTwoChoices, HashedPairIsDeterministicAndInBounds) {
  MmpLoadView view;
  const PickFn policy = core::pick_p2c;
  const std::vector<hash::RingNodeId> prefs{1, 2, 3, 4};
  bool spread = false;
  std::uint64_t first_target = 0;
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const auto a = pick(policy, view, prefs, at_sec(1.0), key);
    const auto b = pick(policy, view, prefs, at_sec(1.0), key);
    EXPECT_EQ(a.target, b.target) << "key " << key;
    EXPECT_NE(std::find(prefs.begin(), prefs.end(), a.target), prefs.end());
    if (key == 1) first_target = a.target;
    spread = spread || a.target != first_target;
  }
  // 64 keys over a 4-wide list must not all sample the same pair head.
  EXPECT_TRUE(spread);
}

// ----------------------------------------------------------- Mlb plumbing

struct SteeringWorld {
  Testbed tb;
  Testbed::Site* site;
  std::unique_ptr<core::ScaleCluster> cluster;

  explicit SteeringWorld(core::SteeringConfig steering,
                         std::size_t mmps = 3) {
    site = &tb.add_site(2);
    core::ScaleCluster::Config cfg;
    cfg.initial_mmps = mmps;
    cfg.mlb.steering = steering;
    cluster = std::make_unique<core::ScaleCluster>(
        tb.fabric(), site->sgw->node(), tb.hss().node(), cfg);
    for (auto& enb : site->enbs) cluster->connect_enb(*enb);
  }
};

TEST(MlbSteering, LoadOfBeforeFirstReportIsTheSentinel) {
  SteeringWorld w{core::SteeringConfig{}};
  const sim::NodeId mmp = w.cluster->mmp(0).node();
  // The cluster is built but no 100 ms report cycle has completed yet.
  EXPECT_FALSE(w.cluster->mlb().has_load_report(mmp));
  EXPECT_EQ(w.cluster->mlb().load_of(mmp), kNoLoadReport);

  w.tb.run_for(Duration::ms(350.0));
  EXPECT_TRUE(w.cluster->mlb().has_load_report(mmp));
  EXPECT_GE(w.cluster->mlb().load_of(mmp), 0.0);
}

TEST(MlbSteering, DefaultPolicyExportsNoSteeringMetrics) {
  // The paper-default config must keep fig10's metric export byte-identical
  // to the seed: no "mlb.steer.*" keys appear.
  SteeringWorld w{core::SteeringConfig{}};
  w.tb.make_ue(*w.site, 0, 0.5).attach();
  w.tb.run_for(Duration::sec(1.0));
  obs::MetricsRegistry reg;
  w.cluster->mlb().export_metrics(reg, "mlb");
  EXPECT_TRUE(reg.names_with_prefix("mlb.steer.").empty());
}

TEST(MlbSteering, AlternatePolicyExportsPickReasonCounters) {
  core::SteeringConfig steering;
  steering.policy = SteeringPolicyKind::kPowerOfTwoChoices;
  SteeringWorld w{steering};
  for (int i = 0; i < 8; ++i) w.tb.make_ue(*w.site, i % 2, 0.5).attach();
  w.tb.run_for(Duration::sec(2.0));

  ASSERT_GE(w.cluster->mlb().initial_routed(), 8u);
  EXPECT_GE(w.cluster->mlb().steer_picks(SteerReason::kP2cWinner), 1u);

  obs::MetricsRegistry reg;
  w.cluster->mlb().export_metrics(reg, "mlb");
  ASSERT_TRUE(reg.has("mlb.steer.p2c.picks.p2c_winner"));
  EXPECT_GE(reg.counter("mlb.steer.p2c.picks.p2c_winner"), 1u);
}

// ------------------------------------------- determinism across policies

/// A small cluster trajectory under one policy; the digest covers the
/// event and message totals, the pick reasons, per-VM requests, and the
/// merged delay distribution.
std::string run_policy_digest(SteeringPolicyKind kind) {
  Testbed::Config tcfg;
  tcfg.seed = 4242;
  Testbed tb(tcfg);
  auto& site = tb.add_site(2);
  core::ScaleCluster::Config cfg;
  cfg.initial_mmps = 3;
  cfg.mlb.steering.policy = kind;
  core::ScaleCluster cluster(tb.fabric(), site.sgw->node(), tb.hss().node(),
                             cfg);
  for (auto& enb : site.enbs) cluster.connect_enb(*enb);

  auto ues = tb.make_ues(site, 80, {0.8});
  tb.register_all(site, Duration::sec(3.0), Duration::sec(2.0));
  workload::OpenLoopDriver::Config drv;
  drv.rate_per_sec = 120.0;
  drv.mix.service_request = 0.6;
  drv.mix.tau = 0.4;
  workload::OpenLoopDriver driver(tb.engine(), ues, drv);
  driver.start(tb.engine().now() + Duration::ms(100.0));
  tb.run_for(Duration::sec(2.0));

  std::ostringstream os;
  os << tb.engine().events_processed() << '|' << tb.network().messages_sent();
  for (std::size_t r = 0; r < core::kSteerReasonCount; ++r)
    os << '|' << cluster.mlb().steer_picks(static_cast<SteerReason>(r));
  for (auto& mmp : cluster.mmps()) os << '|' << mmp->requests_handled();
  const auto merged = tb.delays().merged();
  os << '|' << merged.count() << ':' << merged.percentile(0.99);
  return os.str();
}

TEST(SteeringDeterminism, EveryPolicyReplaysAcrossRuns) {
  for (const SteeringPolicyKind kind : {SteeringPolicyKind::kRingLeastLoaded,
                                        SteeringPolicyKind::kPowerOfTwoChoices}) {
    const std::string base = run_policy_digest(kind);
    ASSERT_FALSE(base.empty());
    EXPECT_EQ(run_policy_digest(kind), base) << steering_policy_name(kind);
  }
}

TEST(SteeringDeterminism, RingAndP2cMatchGoldenDigests) {
  // Captured before the policy class hierarchy became two free functions:
  // events | messages | picks (only_candidate, least_loaded, p2c_winner) |
  // requests per MMP | delay samples : merged p99 ms.
  EXPECT_EQ(run_policy_digest(SteeringPolicyKind::kRingLeastLoaded),
            "7115|3306|0|81|0|29|27|25|81:17.465");
  EXPECT_EQ(run_policy_digest(SteeringPolicyKind::kPowerOfTwoChoices),
            "7116|3307|0|0|81|25|29|27|81:17.465");
}

// -------------------------------------------------------------- ablation

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int run_bench_json(const std::string& out_path) {
  const std::string cmd = std::string(SCALE_ABLATION_STEERING_BIN) +
                          " --quick --json " + out_path + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SteeringAblation, QuickJsonIsByteIdenticalAcrossRuns) {
  const std::string a = ::testing::TempDir() + "ablation_steering_a.json";
  const std::string b = ::testing::TempDir() + "ablation_steering_b.json";
  ASSERT_EQ(run_bench_json(a), 0);
  ASSERT_EQ(run_bench_json(b), 0);
  const std::string ja = slurp(a);
  const std::string jb = slurp(b);
  ASSERT_FALSE(ja.empty());
  EXPECT_EQ(ja, jb) << "steering ablation must be bit-reproducible";
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SteeringAblation, CommittedEvidenceIsPresent) {
  // The acceptance gate (an alternative beating the ring under slow-VM) is
  // enforced by the full bench's exit code; the committed JSON is the
  // evidence the gate passed. Keep it present and well-formed.
  const std::string json = slurp(std::string(SCALE_REPO_ROOT) +
                                 "/BENCH_steering.json");
  ASSERT_FALSE(json.empty()) << "BENCH_steering.json missing at repo root";
  EXPECT_NE(json.find("\"ablation_steering\""), std::string::npos);
  EXPECT_NE(json.find("slow-VM detail"), std::string::npos);
}

}  // namespace
}  // namespace scale
