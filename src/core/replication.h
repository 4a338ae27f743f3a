// Replication policy — who gets a second local copy (§4.3.2, §4.5.1).
//
// The stochastic analysis (Appendix A1, reproduced in src/analysis) shows
// R = 2 captures nearly all load-balancing benefit, so SCALE keeps at most
// one replica besides the master. Under memory pressure the policy turns
// access-aware: devices with wᵢ ≤ x keep a single copy (Eq. 2 feeds the
// resulting β into provisioning), and the remaining replica budget is spent
// proportionally to wᵢ (Eq. 3). The access-unaware baseline of Fig. 6(b)
// (uniform random) is analytic only: analysis::AccessModel::average_cost.
#pragma once

#include "common/rng.h"

namespace scale::core {

struct ReplicationPolicy {
  /// R — local copies including the master. 1 disables local replication;
  /// 2 is SCALE's default.
  unsigned local_copies = 2;

  /// x — devices with wᵢ ≤ x are not replicated beyond the master.
  double low_access_threshold = 0.0;

  /// Eq. 3 scaling: P(replicate | wᵢ > x) = min(1, wᵢ · probability_scale).
  /// +inf means "replicate every eligible device" (no memory pressure).
  double probability_scale = 1e18;

  /// When false, replicas are synchronized only at the Active→Idle
  /// transition (the E2 bulk sync) instead of after every procedure —
  /// trades replica staleness during an Active run for replication CPU.
  /// bench/ablation_replication measures the trade.
  bool sync_every_procedure = true;

  /// Decide whether this device's state gets a local replica.
  bool should_replicate(double wi, Rng& rng) const;
};

}  // namespace scale::core
