#include <gtest/gtest.h>

#include "core/replication.h"

namespace scale::core {
namespace {

TEST(ReplicationPolicy, SingleCopyNeverReplicates) {
  ReplicationPolicy p;
  p.local_copies = 1;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(p.should_replicate(0.9, rng));
}

TEST(ReplicationPolicy, DefaultReplicatesEverything) {
  ReplicationPolicy p;  // R=2, threshold 0, scale huge
  Rng rng(1);
  for (double wi : {0.01, 0.5, 1.0})
    EXPECT_TRUE(p.should_replicate(wi, rng));
}

TEST(ReplicationPolicy, LowAccessDevicesSkipped) {
  ReplicationPolicy p;
  p.low_access_threshold = 0.2;
  Rng rng(1);
  EXPECT_FALSE(p.should_replicate(0.1, rng));
  EXPECT_FALSE(p.should_replicate(0.2, rng));
  EXPECT_TRUE(p.should_replicate(0.21, rng));
}

TEST(ReplicationPolicy, ProbabilityScaleProportionalToWi) {
  ReplicationPolicy p;
  p.probability_scale = 1.0;  // P = wi
  Rng rng(7);
  const int n = 100000;
  int hi = 0, lo = 0;
  for (int i = 0; i < n; ++i) {
    hi += p.should_replicate(0.8, rng) ? 1 : 0;
    lo += p.should_replicate(0.2, rng) ? 1 : 0;
  }
  EXPECT_NEAR(hi / static_cast<double>(n), 0.8, 0.01);
  EXPECT_NEAR(lo / static_cast<double>(n), 0.2, 0.01);
}

TEST(ReplicationPolicy, ZeroScaleBlocksAll) {
  ReplicationPolicy p;
  p.probability_scale = 0.0;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(p.should_replicate(1.0, rng));
}

}  // namespace
}  // namespace scale::core
