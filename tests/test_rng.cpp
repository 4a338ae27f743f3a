#include <gtest/gtest.h>

#include "common/check.h"

#include <array>
#include <span>
#include <vector>

#include "common/rng.h"

namespace scale {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyMatches) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexDistribution) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.weighted_index(weights)]++;
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(41);
  EXPECT_THROW(rng.weighted_index(std::vector<double>{0.0, 0.0}), CheckError);
}

// The span overload must keep the draw sequence of the vector-taking one it
// replaced: one next_double() per pick, cumulative-subtraction selection.
// A reference copy of that algorithm runs on a twin stream; picks and the
// stream state afterwards must match, whether the weights come from a
// vector, a std::array or a sub-span.
TEST(Rng, WeightedIndexSpanKeepsTheVectorDrawSequence) {
  const auto reference = [](Rng& rng, const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    double target = rng.next_double() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      target -= weights[i];
      if (target < 0.0) return i;
    }
    return weights.size() - 1;
  };
  const std::vector<double> mix = {0.2, 0.5, 0.0, 0.25, 0.05};
  const std::array<double, 5> mix_array = {0.2, 0.5, 0.0, 0.25, 0.05};
  Rng rng(2024);
  Rng twin(2024);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(rng.weighted_index(mix), reference(twin, mix)) << "draw " << i;
    ASSERT_EQ(rng.weighted_index(mix_array), reference(twin, mix));
    const std::span<const double> head(mix.data(), 2);
    ASSERT_EQ(rng.weighted_index(head), reference(twin, {0.2, 0.5}));
  }
  EXPECT_EQ(rng.next_u64(), twin.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(47);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace scale
