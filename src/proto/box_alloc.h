// BoxAlloc — free-list recycling for PduBox heap blocks.
//
// Every envelope hop (MLB forward, MMP reply, reliability-shim segment)
// boxes a Pdu behind a shared_ptr; unpooled, that is a heap allocation per
// simulated message, and at the million-procedure scales of Figs. 7-11 the
// allocator would dominate the profile. BoxAlloc<T> is a fixed-size block
// free list plugged into std::allocate_shared, so proto::box() reuses one
// combined control-block+PduBox allocation instead of hitting the heap
// twice.
//
// The free list is thread_local: the simulator is single-threaded per
// engine, and a per-thread list keeps any future parallel work race-free
// with zero locking. Recycling is LIFO; nothing observable depends on block
// identity, so determinism is unaffected (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace scale::proto {

namespace detail {

/// Per-type, per-thread fixed-block cache (blocks of exactly sizeof(T)).
/// Parked blocks are real heap allocations, so the destructor returns them
/// at thread exit — otherwise every cached block is a leak report under the
/// ASan tier-1 leg.
template <typename T>
struct BlockCache {
  std::vector<void*> blocks;
  ~BlockCache() {
    for (void* p : blocks) std::allocator<T>{}.deallocate(static_cast<T*>(p), 1);
  }
};

template <typename T>
inline std::vector<void*>& block_freelist() {
  // lint: shard-local — thread_local: per-thread free list; a block parked
  // by one thread is never handed to another.
  static thread_local BlockCache<T> cache;
  return cache.blocks;
}

inline constexpr std::size_t kMaxIdleBlocks = 4096;

}  // namespace detail

/// Allocator handed to std::allocate_shared by proto::box(): single-object
/// allocations come from (and return to) a per-thread free list, so the
/// steady-state cost of boxing a Pdu is a pop + placement-construct.
template <typename T>
struct BoxAlloc {
  using value_type = T;

  BoxAlloc() = default;
  template <typename U>
  BoxAlloc(const BoxAlloc<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 1) {
      auto& cache = detail::block_freelist<T>();
      if (!cache.empty()) {
        void* p = cache.back();
        cache.pop_back();
        return static_cast<T*>(p);
      }
    }
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* p, std::size_t n) {
    if (n == 1) {
      auto& cache = detail::block_freelist<T>();
      if (cache.size() < detail::kMaxIdleBlocks) {
        cache.push_back(p);
        return;
      }
    }
    std::allocator<T>{}.deallocate(p, n);
  }

  template <typename U>
  bool operator==(const BoxAlloc<U>&) const noexcept {
    return true;
  }
};

}  // namespace scale::proto
