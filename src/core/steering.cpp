#include "core/steering.h"

#include <algorithm>

#include "common/check.h"
#include "hash/md5.h"

namespace scale::core {

// ------------------------------------------------------------ MmpLoadView

void MmpLoadView::on_report(NodeId mmp, double load) {
  MmpLoadInfo& info = mmps_[mmp];
  info.load = load;
  info.reported = true;
}

void MmpLoadView::on_reject(NodeId mmp, Time backoff_until) {
  mmps_[mmp].shed_until = backoff_until;
}

bool MmpLoadView::has_report(NodeId mmp) const {
  const auto it = mmps_.find(mmp);
  return it != mmps_.end() && it->second.reported;
}

double MmpLoadView::load_of(NodeId mmp) const {
  const auto it = mmps_.find(mmp);
  if (it == mmps_.end() || !it->second.reported) return kNoLoadReport;
  return it->second.load;
}

double MmpLoadView::effective_load(NodeId mmp) const {
  const double load = load_of(mmp);
  return load == kNoLoadReport ? 0.0 : load;
}

bool MmpLoadView::in_backoff(NodeId mmp, Time now) const {
  const auto it = mmps_.find(mmp);
  return it != mmps_.end() && now < it->second.shed_until;
}

bool MmpLoadView::any_backoff(Time now) const {
  for (const auto& [mmp, info] : mmps_)
    if (now < info.shed_until) return true;
  return false;
}

bool MmpLoadView::any_load_at_least(double limit) const {
  for (const auto& [mmp, info] : mmps_)
    if (info.reported && info.load >= limit) return true;
  return false;
}

// ----------------------------------------------------------------- naming

const char* steer_reason_name(SteerReason r) {
  switch (r) {
    case SteerReason::kOnlyCandidate: return "only_candidate";
    case SteerReason::kLeastLoaded: return "least_loaded";
    case SteerReason::kP2cWinner: return "p2c_winner";
  }
  return "unknown";
}

const char* steering_policy_name(SteeringPolicyKind kind) {
  switch (kind) {
    case SteeringPolicyKind::kRingLeastLoaded: return "ring";
    case SteeringPolicyKind::kPowerOfTwoChoices: return "p2c";
  }
  return "unknown";
}

// --------------------------------------------------------------- policies

SteeringDecision pick_ring_least_loaded(const SteeringContext& ctx) {
  SCALE_CHECK(!ctx.prefs.empty());
  if (ctx.prefs.size() == 1)
    return {ctx.prefs.front(), SteerReason::kOnlyCandidate};
  // The seed loop, verbatim: candidates inside a shed-backoff window lose
  // to any candidate outside one; within a class, least load wins with
  // first-in-list tie-break.
  NodeId best = 0;
  bool best_shed = true;
  double best_load = 0.0;
  for (const hash::RingNodeId candidate : ctx.prefs) {
    const bool shed = ctx.view.in_backoff(candidate, ctx.now);
    const double load = ctx.view.effective_load(candidate);
    if (best == 0 || (!shed && best_shed) ||
        (shed == best_shed && load < best_load)) {
      best = candidate;
      best_shed = shed;
      best_load = load;
    }
  }
  return {best, SteerReason::kLeastLoaded};
}

SteeringDecision pick_p2c(const SteeringContext& ctx) {
  SCALE_CHECK(!ctx.prefs.empty());
  const std::size_t n = ctx.prefs.size();
  if (n == 1) return {ctx.prefs.front(), SteerReason::kOnlyCandidate};
  // Stateless sampling: FNV-1a of the key yields the pair, so the same
  // device always races the same two candidates — deterministic across
  // runs and MLB peers, yet uniform across devices.
  const std::uint64_t h = hash::fnv1a_u64(ctx.key ^ 0x9E3779B97F4A7C15ull);
  const std::size_t i = static_cast<std::size_t>(h % n);
  const std::size_t j =
      (i + 1 + static_cast<std::size_t>((h >> 32) % (n - 1))) % n;
  const hash::RingNodeId a = ctx.prefs[std::min(i, j)];
  const hash::RingNodeId b = ctx.prefs[std::max(i, j)];
  const bool shed_a = ctx.view.in_backoff(a, ctx.now);
  const bool shed_b = ctx.view.in_backoff(b, ctx.now);
  if (shed_a != shed_b)
    return {shed_a ? b : a, SteerReason::kP2cWinner};
  const double load_a = ctx.view.effective_load(a);
  const double load_b = ctx.view.effective_load(b);
  // Tie goes to the earlier preference-list entry (the ring master):
  // locality is worth keeping when the load signal cannot separate them.
  return {load_b < load_a ? b : a, SteerReason::kP2cWinner};
}

}  // namespace scale::core
