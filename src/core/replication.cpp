#include "core/replication.h"

#include <algorithm>

namespace scale::core {

bool ReplicationPolicy::should_replicate(double wi, Rng& rng) const {
  if (local_copies <= 1) return false;
  // x = 0 disables the low-access cut (every device is above it).
  if (low_access_threshold > 0.0 && wi <= low_access_threshold) return false;
  if (probability_scale >= 1e17) return true;  // no memory pressure
  const double p = std::min(1.0, wi * probability_scale);
  return rng.chance(p);
}

}  // namespace scale::core
