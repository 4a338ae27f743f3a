#include <gtest/gtest.h>

#include "common/check.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "hash/md5.h"
#include "hash/ring.h"

namespace scale::hash {
namespace {

ConsistentHashRing make_ring(unsigned tokens, std::initializer_list<RingNodeId> nodes) {
  ConsistentHashRing ring(ConsistentHashRing::Config{tokens});
  for (RingNodeId n : nodes) ring.add_node(n);
  return ring;
}

TEST(Ring, EmptyRingRejectsLookups) {
  ConsistentHashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW(ring.owner(1), scale::CheckError);
  std::vector<RingNodeId> prefs;
  EXPECT_THROW(ring.preference_list(1, 2, prefs), scale::CheckError);
}

TEST(Ring, AddRemoveMembership) {
  auto ring = make_ring(5, {1, 2, 3});
  EXPECT_EQ(ring.node_count(), 3u);
  EXPECT_EQ(ring.token_count(), 15u);
  EXPECT_TRUE(ring.contains(2));
  ring.remove_node(2);
  EXPECT_FALSE(ring.contains(2));
  EXPECT_EQ(ring.token_count(), 10u);
}

TEST(Ring, DuplicateAddRejected) {
  auto ring = make_ring(5, {1});
  EXPECT_THROW(ring.add_node(1), scale::CheckError);
}

TEST(Ring, RemoveUnknownRejected) {
  auto ring = make_ring(5, {1});
  EXPECT_THROW(ring.remove_node(9), scale::CheckError);
}

TEST(Ring, OwnerIsDeterministic) {
  auto a = make_ring(5, {1, 2, 3, 4});
  auto b = make_ring(5, {4, 3, 2, 1});  // insertion order must not matter
  for (std::uint64_t key = 0; key < 2000; ++key)
    EXPECT_EQ(a.owner(key), b.owner(key));
}

TEST(Ring, PreferenceListDistinctAndStartsAtOwner) {
  auto ring = make_ring(5, {10, 20, 30, 40, 50});
  std::vector<RingNodeId> prefs;
  for (std::uint64_t key = 0; key < 500; ++key) {
    ring.preference_list(key, 3, prefs);
    ASSERT_EQ(prefs.size(), 3u);
    EXPECT_EQ(prefs[0], ring.owner(key));
    std::set<RingNodeId> uniq(prefs.begin(), prefs.end());
    EXPECT_EQ(uniq.size(), 3u);
  }
}

TEST(Ring, PreferenceListCappedByNodeCount) {
  auto ring = make_ring(5, {1, 2});
  std::vector<RingNodeId> prefs;
  ring.preference_list(7, 10, prefs);
  EXPECT_EQ(prefs.size(), 2u);
}

TEST(Ring, PreferenceListIntoCallerVectorMatchesAndReuses) {
  auto ring = make_ring(5, {10, 20, 30, 40, 50});
  std::vector<RingNodeId> scratch = {99, 98, 97, 96, 95, 94};  // stale
  for (std::uint64_t key = 0; key < 500; ++key) {
    const std::size_t n = 1 + key % 6;  // up to more than the node count
    ring.preference_list(key, n, scratch);
    std::vector<RingNodeId> fresh;
    ring.preference_list(key, n, fresh);
    EXPECT_EQ(scratch, fresh) << "key " << key;
  }
  const RingNodeId* storage = scratch.data();
  ring.preference_list(7, 3, scratch);
  EXPECT_EQ(scratch.data(), storage) << "refill must reuse the capacity";
  EXPECT_THROW(ConsistentHashRing{}.preference_list(1, 2, scratch),
               scale::CheckError);
}

TEST(Ring, ReplicaOfSingleNodeIsNull) {
  auto ring = make_ring(5, {1});
  std::vector<RingNodeId> prefs;
  ring.preference_list(123, 2, prefs);
  EXPECT_EQ(prefs.size(), 1u) << "no replica target besides the owner";
}

TEST(Ring, ReplicaDiffersFromOwner) {
  auto ring = make_ring(5, {1, 2, 3});
  std::vector<RingNodeId> prefs;
  for (std::uint64_t key = 0; key < 300; ++key) {
    ring.preference_list(key, 2, prefs);
    ASSERT_EQ(prefs.size(), 2u);
    EXPECT_NE(prefs[1], ring.owner(key));
  }
}

TEST(Ring, NodeRemovalOnlyMovesItsKeys) {
  // The consistent-hashing contract (§4.3.1): removing a VM only remaps
  // the keys it owned; every other key keeps its owner.
  auto ring = make_ring(5, {1, 2, 3, 4, 5, 6});
  std::map<std::uint64_t, RingNodeId> before;
  for (std::uint64_t key = 0; key < 5000; ++key) before[key] = ring.owner(key);
  ring.remove_node(3);
  for (const auto& [key, owner] : before) {
    if (owner == 3) {
      EXPECT_NE(ring.owner(key), 3u);
    } else {
      EXPECT_EQ(ring.owner(key), owner) << "key " << key << " moved needlessly";
    }
  }
}

TEST(Ring, NodeAdditionOnlyStealsKeys) {
  auto ring = make_ring(5, {1, 2, 3, 4, 5});
  std::map<std::uint64_t, RingNodeId> before;
  for (std::uint64_t key = 0; key < 5000; ++key) before[key] = ring.owner(key);
  ring.add_node(99);
  std::size_t moved = 0;
  for (const auto& [key, owner] : before) {
    const RingNodeId now = ring.owner(key);
    if (now != owner) {
      EXPECT_EQ(now, 99u) << "key moved to a node other than the new one";
      ++moved;
    }
  }
  // New node takes roughly 1/6 of the space.
  EXPECT_GT(moved, 5000 / 6 / 3);
  EXPECT_LT(moved, 5000 / 2);
}

TEST(Ring, TokensImproveBalanceOverTokenless) {
  // Fig. 10(a)'s "basic consistent hashing" baseline: 1 token per node
  // yields much worse balance than 5+ tokens.
  auto balance_spread = [](unsigned tokens) {
    ConsistentHashRing ring(ConsistentHashRing::Config{tokens});
    for (RingNodeId n = 1; n <= 10; ++n) ring.add_node(n);
    std::map<RingNodeId, std::size_t> counts;
    for (std::uint64_t key = 0; key < 40000; ++key) ++counts[ring.owner(key)];
    std::size_t min_c = SIZE_MAX, max_c = 0;
    for (const auto& [n, c] : counts) {
      min_c = std::min(min_c, c);
      max_c = std::max(max_c, c);
    }
    return static_cast<double>(max_c) / static_cast<double>(std::max<std::size_t>(1, min_c));
  };
  EXPECT_LT(balance_spread(32), balance_spread(1));
}

TEST(Ring, OwnershipFractionsSumToOne) {
  auto ring = make_ring(7, {1, 2, 3, 4});
  double total = 0.0;
  for (RingNodeId n : ring.nodes()) total += ring.ownership_fraction(n);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Ring, OwnershipFractionMatchesEmpiricalShare) {
  auto ring = make_ring(16, {1, 2, 3});
  std::map<RingNodeId, std::size_t> counts;
  const std::uint64_t n_keys = 60000;
  for (std::uint64_t key = 0; key < n_keys; ++key) ++counts[ring.owner(key)];
  for (RingNodeId n : ring.nodes()) {
    const double empirical =
        static_cast<double>(counts[n]) / static_cast<double>(n_keys);
    EXPECT_NEAR(ring.ownership_fraction(n), empirical, 0.02);
  }
}

// Placement is the paper's MD5 (§4.3, §5): a key's ring position is its
// md5_u64, and its owner is the first token at or after that position.
TEST(Ring, KeyPositionIsMd5) {
  const auto ring = make_ring(5, {1, 2, 3, 4});
  for (std::uint64_t key = 0; key < 200; ++key) {
    const std::uint64_t pos = md5_u64(key);
    ASSERT_EQ(ring.position_of_key(key), pos) << "key " << key;
    const auto& tokens = ring.tokens();
    const auto it = std::lower_bound(
        tokens.begin(), tokens.end(), pos,
        [](const auto& t, std::uint64_t p) { return t.first < p; });
    const RingNodeId want =
        it == tokens.end() ? tokens.front().second : it->second;
    EXPECT_EQ(ring.owner(key), want) << "key " << key;
  }
  // Fixed anchors: the first 8 bytes (little-endian) of the MD5 of each
  // key's 8 little-endian bytes, taken from an independent MD5.
  EXPECT_EQ(ring.position_of_key(0), 0x008EAC3F2B36EA7Dull);
  EXPECT_EQ(ring.position_of_key(42), 0x6D6E095844C3BDE8ull);
}

class RingTokenSweep : public ::testing::TestWithParam<unsigned> {};

// Property sweep: for any token count, preference lists are duplicate-free
// prefixes of ring order and owners are stable across rebuilds.
TEST_P(RingTokenSweep, PreferenceListInvariants) {
  const unsigned tokens = GetParam();
  ConsistentHashRing ring(ConsistentHashRing::Config{tokens});
  for (RingNodeId n = 1; n <= 8; ++n) ring.add_node(n);
  std::vector<RingNodeId> prefs;
  for (std::uint64_t key = 1; key < 400; key += 7) {
    ring.preference_list(key, 4, prefs);
    ASSERT_EQ(prefs.size(), 4u);
    std::set<RingNodeId> uniq(prefs.begin(), prefs.end());
    EXPECT_EQ(uniq.size(), prefs.size());
    EXPECT_EQ(prefs[0], ring.owner(key));
  }
}

INSTANTIATE_TEST_SUITE_P(TokenCounts, RingTokenSweep,
                         ::testing::Values(1u, 2u, 5u, 16u, 64u));

}  // namespace
}  // namespace scale::hash
