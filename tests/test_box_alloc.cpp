// BoxAlloc unit tests — the thread-local block free list behind
// proto::box(). The suite runs under the ASan tier-1 leg, so the recycle
// paths are also checked for use-after-free and double-free.
#include <gtest/gtest.h>

#include <variant>

#include "proto/pdu.h"

namespace scale::proto {
namespace {

TEST(BoxAlloc, BoxedPduBlocksAreRecycled) {
  // Box a Pdu, note the block address, drop the ref, box again: the
  // thread-local free list must hand back the same combined block (LIFO).
  // ASan additionally proves the first ref was fully released first.
  PduRef first = box(make_pdu(Paging{1, 2}));
  const void* block = first.get();
  first.reset();
  PduRef second = box(make_pdu(Paging{3, 4}));
  EXPECT_EQ(static_cast<const void*>(second.get()), block);
  ASSERT_TRUE(std::holds_alternative<S1apMessage>(second->value));
}

TEST(BoxAlloc, LiveBoxesGetDistinctBlocks) {
  PduRef a = box(make_pdu(Paging{1, 1}));
  PduRef b = box(make_pdu(Paging{2, 2}));
  EXPECT_NE(a.get(), b.get());
  const auto& pg = std::get<Paging>(std::get<S1apMessage>(a->value));
  EXPECT_EQ(pg.m_tmsi, 1u);
  EXPECT_EQ(pg.tac, 1);
}

}  // namespace
}  // namespace scale::proto
