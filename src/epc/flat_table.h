// FlatTable — a 64-bit-keyed table of values with no per-entry heap node:
// a FlatIndex maps key → slot, values live in one slot vector, and erased
// slots go on a LIFO free list for the next insert to reuse.
//
// Used for the per-procedure state of the simulated control plane (MME
// transactions, eNodeB S1 connections and camped UEs, S-GW sessions), where
// an unordered_map would allocate a node per procedure. Once the table has
// grown to its peak population, insert and erase allocate nothing.
//
// Pointers and references to values stay valid until the next insert (which
// may grow the slot vector); erase never moves other values.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "epc/flat_index.h"

namespace scale::epc {

template <class T>
class FlatTable {
 public:
  T* find(std::uint64_t key) {
    const std::uint32_t slot = index_.find(key);
    return slot == FlatIndex::kNone ? nullptr : &values_[slot];
  }
  const T* find(std::uint64_t key) const {
    const std::uint32_t slot = index_.find(key);
    return slot == FlatIndex::kNone ? nullptr : &values_[slot];
  }
  bool contains(std::uint64_t key) const { return index_.contains(key); }

  /// Insert `value` under `key`, or overwrite the value already there.
  T& put(std::uint64_t key, T value) {
    if (T* existing = find(key)) return *existing = std::move(value);
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      values_[slot] = std::move(value);
    } else {
      slot = static_cast<std::uint32_t>(values_.size());
      values_.push_back(std::move(value));
    }
    index_.insert(key, slot);
    return values_[slot];
  }

  /// Removes `key`; returns false if it was absent.
  bool erase(std::uint64_t key) {
    const std::uint32_t slot = index_.find(key);
    if (slot == FlatIndex::kNone) return false;
    index_.erase(key);
    values_[slot] = T{};  // drop whatever the value holds
    free_.push_back(slot);
    return true;
  }

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// Visit every (key, value) in index-table order, which depends on
  /// insertion history: callers that act on the order must sort first.
  template <class Fn>
  void for_each(Fn&& fn) const {
    index_.for_each_entry([&](std::uint64_t key, std::uint32_t slot) {
      fn(key, values_[slot]);
    });
  }

 private:
  FlatIndex index_;
  std::vector<T> values_;
  std::vector<std::uint32_t> free_;
};

}  // namespace scale::epc
