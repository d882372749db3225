/// \file edge_storage.hpp
/// Storage policies for the CSR adjacency array of a graph partition.
///
/// The paper stores each local partition as compressed sparse row
/// (§III-A1); in the external-memory experiments the edge array lives on
/// NAND Flash behind the user-space page cache (§VII-C).  Both policies
/// expose the same minimal API (ranged for_each and for_each_while, ranged
/// binary search, readahead), so `distributed_graph<Store>` is oblivious
/// to where its edges live — exactly the property that let the paper run
/// the same algorithm DRAM-only and at 32x DRAM size.
///
/// Readahead: `prefetch(n, range_of)` reads the pages of a prefix of n
/// ascending element ranges as one batch and returns the prefix length.
/// `paged` tells callers at compile time whether there is anything to
/// read ahead, so DRAM-only scans compile without the readahead walk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/paged_array.hpp"

namespace sfg::graph {

/// Adjacency bits held in DRAM (the "DRAM-only" configuration).
class in_memory_edges {
 public:
  in_memory_edges() = default;
  explicit in_memory_edges(std::vector<std::uint64_t> bits)
      : bits_(std::move(bits)) {}

  static constexpr bool paged = false;

  [[nodiscard]] std::size_t size() const noexcept { return bits_.size(); }

  template <typename Fn>
  void for_each(std::size_t begin, std::size_t end, Fn&& fn) const {
    for (std::size_t i = begin; i < end; ++i) fn(bits_[i]);
  }

  /// Like for_each, but `fn` returns false to stop.  Returns true iff the
  /// whole range was visited.
  template <typename Fn>
  bool for_each_while(std::size_t begin, std::size_t end, Fn&& fn) const {
    for (std::size_t i = begin; i < end; ++i) {
      if (!fn(bits_[i])) return false;
    }
    return true;
  }

  /// Nothing to read ahead in DRAM: every range is covered.
  template <typename RangeOf>
  static constexpr std::size_t prefetch(std::size_t n, RangeOf&&) noexcept {
    return n;
  }

  /// True if `key` occurs in the *sorted* range [begin, end).
  [[nodiscard]] bool contains_in_range(std::size_t begin, std::size_t end,
                                       std::uint64_t key) const {
    return std::binary_search(bits_.begin() + static_cast<std::ptrdiff_t>(begin),
                              bits_.begin() + static_cast<std::ptrdiff_t>(end),
                              key);
  }

 private:
  std::vector<std::uint64_t> bits_;
};

/// Adjacency bits on a block device behind a page cache (the NVRAM
/// configuration).  Constructed from a paged_array previously populated
/// with write_array(); the cache bounds DRAM use.
class external_edges {
 public:
  external_edges(storage::page_cache& cache, std::uint64_t base_offset,
                 std::size_t count)
      : arr_(cache, base_offset, count) {}

  static constexpr bool paged = true;

  [[nodiscard]] std::size_t size() const noexcept { return arr_.size(); }

  template <typename Fn>
  void for_each(std::size_t begin, std::size_t end, Fn&& fn) const {
    arr_.for_each(begin, end,
                  [&fn](std::size_t, std::uint64_t v) { fn(v); });
  }

  /// Like for_each, but `fn` returns false to stop; pins each page once.
  template <typename Fn>
  bool for_each_while(std::size_t begin, std::size_t end, Fn&& fn) const {
    return arr_.for_each_while(begin, end, fn);
  }

  /// Read ahead the pages of ranges `range_of(0..n)` ([begin, end) element
  /// pairs, ascending): the pages of the longest prefix that fits in the
  /// cache's prefetch window go to page_cache::prefetch as one batch.  The
  /// first non-empty range always counts, truncated to the window if it
  /// is longer.  Returns the prefix length.  Not thread-safe: the page
  /// list is a reused member buffer (each rank owns its graph).
  template <typename RangeOf>
  std::size_t prefetch(std::size_t n, RangeOf&& range_of) const {
    const std::size_t window = arr_.cache().prefetch_window();
    pages_.clear();
    std::size_t k = 0;
    for (; k < n; ++k) {
      const auto [begin, end] = range_of(k);
      if (begin >= end) continue;
      std::uint64_t p = arr_.page_of(begin);
      const std::uint64_t last = arr_.page_of(end - 1);
      // Consecutive rows share pages; list each page once.
      if (!pages_.empty() && p <= pages_.back()) p = pages_.back() + 1;
      const std::size_t need = p <= last ? last - p + 1 : 0;
      if (!pages_.empty() && pages_.size() + need > window) break;
      for (; p <= last && pages_.size() < window; ++p) pages_.push_back(p);
    }
    arr_.cache().prefetch(pages_);
    return k;
  }

  [[nodiscard]] bool contains_in_range(std::size_t begin, std::size_t end,
                                       std::uint64_t key) const {
    // Classic binary search over the paged array; O(lg n) page touches
    // worst case, usually 1-2 thanks to the cache.
    std::size_t lo = begin;
    std::size_t hi = end;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const std::uint64_t v = arr_[mid];
      if (v < key) {
        lo = mid + 1;
      } else if (v > key) {
        hi = mid;
      } else {
        return true;
      }
    }
    return false;
  }

 private:
  storage::paged_array<std::uint64_t> arr_;
  mutable std::vector<std::uint64_t> pages_;  ///< prefetch() page list
};

}  // namespace sfg::graph
