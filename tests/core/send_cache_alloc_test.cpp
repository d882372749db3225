/// \file send_cache_alloc_test.cpp
/// Zero-allocation gate for visitor_queue::push's sender-side filters:
/// the send cache is sized once in the queue's constructor, so a push
/// that the send cache, a hub ghost or an inline pre_visit rejection
/// filters must never touch the heap, and must leave the mailbox alone.
///
/// Own test binary: this TU replaces global operator new/delete with
/// counting versions (pattern from tests/core/frontier_alloc_test.cpp),
/// and a binary can hold only one such replacement.  The counter is
/// thread-local because every rank is a thread of the same process.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/bfs.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "runtime/runtime.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The graph build's std::stable_sort takes its buffer through the nothrow
// form; it must come from the same malloc that operator delete frees into.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
// GCC inlines these into callers of the standard operator new and then
// warns that malloc'd memory meets free; both sides here use malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sfg::core {
namespace {

TEST(SendCacheAlloc, FilteredPushesAllocateNothing) {
  constexpr int kRanks = 4;
  gen::rmat_config rc{.scale = 9, .edge_factor = 16, .seed = 1209};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  runtime::launch(kRanks, [&](runtime::comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), kRanks);
    std::vector<gen::edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = graph::build_in_memory_graph(c, mine, {.num_ghosts = 16});
    auto state = g.make_state<bfs_state>({});
    using graph_t = decltype(g);
    visitor_queue<graph_t, bfs_visitor, decltype(state)> vq(g, state);
    ASSERT_GT(vq.send_cache_slots(), 0u);

    std::vector<bfs_visitor> pushes;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      g.for_each_out_edge(s, [&](graph::vertex_locator t) {
        pushes.push_back(bfs_visitor{t, 1, g.locator_of(s).bits()});
      });
    }

    // Each visitor first goes out at level 1 (unmeasured: it may open
    // mailbox arenas or grow the local queue), then again at level 2,
    // which every filter path must drop without allocating.
    std::uint64_t allocations = 0;
    std::uint64_t leaked_records = 0;
    for (bfs_visitor v : pushes) {
      vq.push(v);
      v.length = 2;
      const std::uint64_t records = vq.mail().stats().records_sent;
      const std::uint64_t before = t_allocations;
      vq.push(v);
      allocations += t_allocations - before;
      leaked_records += vq.mail().stats().records_sent - records;
    }
    EXPECT_EQ(allocations, 0u) << "rank " << c.rank();
    EXPECT_EQ(leaked_records, 0u) << "rank " << c.rank();

    const auto sum = [&](std::uint64_t v) {
      return c.all_reduce(v, std::plus<>());
    };
    // All three filter paths were exercised.
    EXPECT_GT(sum(vq.stats().cache_filtered), 0u);
    EXPECT_GT(sum(vq.stats().ghost_filtered), 0u);
    EXPECT_GT(sum(vq.stats().pre_visit_rejected), 0u);
    vq.do_traversal();  // collective: drain what the first round sent
  });
}

}  // namespace
}  // namespace sfg::core
