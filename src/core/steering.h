// Steering — the MLB's Idle→Active routing rule (DESIGN.md §11).
//
// The paper fixes one steering design point: MD5(GUTI) on the consistent
// hash ring, then least-loaded-of-R=2 over the preference list (§4.6). Two
// stateless policies read the MLB's per-MMP metadata (MmpLoadView) plus the
// ring preference list for the key and return a pick with a reason code:
//
//   * `pick_ring_least_loaded` is the paper's default, byte-identical to
//     the seed behaviour (the determinism fingerprint pins this);
//   * `pick_p2c` samples two candidates by a stateless hash of the key and
//     keeps the lower reported load.
//
// Determinism contract (DESIGN.md §6): every pick is a pure function of
// (key, candidate list, view state, sim time) — no wall clock, no entropy,
// no unordered iteration — so both policies replay byte-identically across
// runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/time.h"
#include "hash/ring.h"
#include "sim/network.h"

namespace scale::core {

using sim::NodeId;

/// Sentinel returned by load accessors for a VM that has never sent a
/// LoadReport. Distinct from a genuine "load 0.0" report: a fresh VM is an
/// unknown, not a provably idle server (see MmpLoadView::effective_load for
/// how steering treats it).
inline constexpr double kNoLoadReport = -1.0;

/// Everything the MLB knows about one MMP VM.
struct MmpLoadInfo {
  /// Most recent LoadReport value (the MMP already smooths its CPU
  /// utilization before reporting, so the MLB keeps it raw).
  double load = 0.0;
  bool reported = false;  ///< at least one LoadReport arrived
  Time shed_until;        ///< OverloadReject backoff window end
};

/// The MLB's per-MMP metadata table. Ordered (std::map) so every walk is
/// deterministic without waivers. Policies read it; only the MLB writes it.
class MmpLoadView {
 public:
  void on_report(NodeId mmp, double load);
  void on_reject(NodeId mmp, Time backoff_until);

  bool has_report(NodeId mmp) const;
  /// Last reported load, or kNoLoadReport when the VM never reported.
  double load_of(NodeId mmp) const;
  /// Load used for steering comparisons: optimistic 0.0 before the first
  /// report (a fresh VM must receive traffic immediately — and this is
  /// exactly the seed's defaulted-map behaviour, so the ring policy stays
  /// byte-identical), the last report afterwards.
  double effective_load(NodeId mmp) const;
  bool in_backoff(NodeId mmp, Time now) const;

  /// Any VM still inside a shed-backoff window.
  bool any_backoff(Time now) const;
  /// Any reported load at or above `limit`.
  bool any_load_at_least(double limit) const;

  const std::map<NodeId, MmpLoadInfo>& entries() const { return mmps_; }

 private:
  std::map<NodeId, MmpLoadInfo> mmps_;
};

/// Why a policy picked the VM it picked (one counter per reason under
/// "mlb.steer.<policy>.picks.*").
enum class SteerReason : std::uint8_t {
  kOnlyCandidate = 0,  ///< candidate list had a single entry
  kLeastLoaded = 1,    ///< lowest effective load among the candidates
  kP2cWinner = 2,      ///< won the hashed two-candidate comparison
};
inline constexpr std::size_t kSteerReasonCount = 3;

const char* steer_reason_name(SteerReason r);

struct SteeringDecision {
  NodeId target = 0;
  SteerReason reason = SteerReason::kLeastLoaded;
};

/// One routing question. `prefs` is the ring preference list for `key`,
/// already cut to the policy's candidate width (re-steer paths may have
/// filtered entries out — e.g. the shedding VM). Never empty.
struct SteeringContext {
  std::uint64_t key = 0;
  const std::vector<hash::RingNodeId>& prefs;
  const MmpLoadView& view;
  Time now;
};

/// The paper's §4.6 rule: least effective load among the R preference-list
/// nodes, candidates inside a shed-backoff window lose to any candidate
/// outside one, first-in-list tie-break. Byte-identical to the seed MLB.
SteeringDecision pick_ring_least_loaded(const SteeringContext& ctx);

/// Power-of-two-choices over the reported load: two candidates are drawn
/// from the preference list by a stateless FNV-1a hash of the key (no RNG —
/// the same key always samples the same pair, so runs replay), and the
/// lower effective load wins. Mitzenmacher's exponential improvement over
/// one random choice, with the ring providing state locality.
SteeringDecision pick_p2c(const SteeringContext& ctx);

/// Preference-list width p2c samples its pair from (at least R).
inline constexpr unsigned kP2cWidth = 4;

/// The numeric values are the policy ids of `ablation_steering`'s
/// slow-VM detail rows (BENCH_steering.json).
enum class SteeringPolicyKind : std::uint8_t {
  kRingLeastLoaded = 0,
  kPowerOfTwoChoices = 2,
};

/// Short stable identifier used in metric names ("ring", "p2c").
const char* steering_policy_name(SteeringPolicyKind kind);

/// The steering knob group (nested into Mlb::Config as Config::Steering).
/// Defaults reproduce the paper's design point exactly.
struct SteeringConfig {
  SteeringPolicyKind policy = SteeringPolicyKind::kRingLeastLoaded;
  /// R: preference-list width for the ring policy (SCALE uses 2; the
  /// cluster overwrites it from ReplicationPolicy::local_copies).
  unsigned choices = 2;
  hash::ConsistentHashRing::Config ring;
};

}  // namespace scale::core
