/// \file bfsmodes_test.cpp
/// The cross-mode BFS equivalence matrix (ctest -L bfsmodes): every
/// traversal mode (async / topdown / bottomup / hybrid) on every
/// partitioner (edge_list / DBH / HDRF / SNE) on every graph family
/// ({RMAT, ER, path, star-hub}) at {1, 4} ranks, against the serial
/// reference.
///
/// Levels must match the serial BFS exactly in every cell.  Parents are
/// mode-dependent (any BFS tree is valid — which claim wins a level race
/// differs between the async queue and the level-synchronous scans), so
/// the parent check is the Graph500-style structural one: validate_bfs
/// must accept every mode's tree on the same graph.
///
/// This suite is also the acceptance gate for the α/β heuristic: on the
/// low-diameter families (rmat, er, star_hub) the hybrid traversal must
/// actually take bottom-up levels (direction_switch_level >= 0), and on
/// the path graph — frontier of one vertex per level — it must never
/// leave top-down.
///
/// The level-synchronous modes also run on an external-memory RMAT graph
/// (BfsModesExternal): adjacency on simulated NVRAM behind a page cache
/// of at most 1/8 of each rank's pages, with injected evictions and I/O
/// delays, so the per-level readahead (prefetched pages dropped before
/// their scan, windows cut short by pinned or loading frames) is checked
/// against the same serial reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/bfs_hybrid.hpp"
#include "core/bfs_validate.hpp"
#include "core/test_helpers.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/partitioner.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"
#include "storage/block_device.hpp"
#include "storage/page_cache.hpp"
#include "util/rng.hpp"

namespace sfg::core {
namespace {

using gen::edge64;
using graph::build_in_memory_graph;
using graph::graph_build_config;
using graph::partitioner_kind;
using runtime::comm;
using runtime::launch;
using testing::gather_global;

enum class family { rmat, er, path, star_hub };

const char* family_name(family f) {
  switch (f) {
    case family::rmat:
      return "rmat";
    case family::er:
      return "er";
    case family::path:
      return "path";
    case family::star_hub:
      return "star_hub";
  }
  return "?";
}

std::vector<edge64> make_family(family f) {
  switch (f) {
    case family::rmat: {
      gen::rmat_config rc{.scale = 6, .edge_factor = 8, .seed = 1201};
      return gen::rmat_slice(rc, 0, rc.num_edges());
    }
    case family::er: {
      util::xoshiro256 rng(77);
      std::vector<edge64> edges;
      for (int i = 0; i < 1200; ++i) {
        edges.push_back({rng.uniform_below(200), rng.uniform_below(200)});
      }
      return edges;
    }
    case family::path: {
      std::vector<edge64> edges;
      for (std::uint64_t v = 0; v < 300; ++v) edges.push_back({v, v + 1});
      return edges;
    }
    case family::star_hub: {
      std::vector<edge64> edges;
      for (std::uint64_t t = 1; t <= 400; ++t) edges.push_back({0, t});
      for (std::uint64_t t = 1; t < 400; ++t) edges.push_back({t, t + 1});
      return edges;
    }
  }
  return {};
}

class BfsModes
    : public ::testing::TestWithParam<std::tuple<partitioner_kind, family, int>> {
};

TEST_P(BfsModes, AllModesMatchSerial) {
  const auto [kind, fam, p] = GetParam();
  const auto edges = make_family(fam);
  const std::uint64_t source_gid = edges.front().src;

  const auto ref = reference::serial_graph::from_edges(edges);
  const auto exp = reference::serial_bfs(ref, source_gid);

  launch(p, [&, kind = kind, fam = fam, p = p](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), p);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    graph_build_config gcfg;
    gcfg.partitioner.kind = kind;
    auto g = build_in_memory_graph(c, mine, gcfg);
    const auto source = g.locate(source_gid);
    ASSERT_TRUE(source.valid());

    for (const bfs_mode mode : kAllBfsModes) {
      SCOPED_TRACE(std::string("mode=") + bfs_mode_name(mode));
      hybrid_bfs_config cfg;
      cfg.mode = mode;
      auto result = run_bfs_mode(g, source, cfg);

      const auto levels = gather_global(c, g, [&](std::size_t s) {
        return result.state.local(s).level;
      });
      for (const auto& [gid, level] : levels) {
        ASSERT_EQ(level, exp[gid]) << "vertex " << gid;
      }

      // The tree itself (parents are mode-dependent but must be valid).
      const auto v = validate_bfs(g, source, result.state, {});
      EXPECT_TRUE(v.valid);
      EXPECT_EQ(v.level_violations, 0u);
      EXPECT_EQ(v.structural_violations, 0u);
      EXPECT_EQ(v.tree_edges_found, v.tree_edges_expected);

      // Mode-shape assertions on the level trace (identical on all ranks).
      if (mode == bfs_mode::async) {
        EXPECT_TRUE(result.levels.empty());
        EXPECT_EQ(result.direction_switch_level, -1);
      } else {
        ASSERT_FALSE(result.levels.empty());
        std::uint64_t reached = 0;
        for (const auto& [gid, level] : levels) {
          if (level != std::numeric_limits<std::uint64_t>::max()) ++reached;
        }
        std::uint64_t frontier_sum = 0;
        for (const auto& ls : result.levels) {
          frontier_sum += ls.frontier_vertices;
        }
        EXPECT_EQ(frontier_sum, reached);
      }
      if (mode == bfs_mode::topdown) {
        for (const auto& ls : result.levels) EXPECT_FALSE(ls.bottom_up);
        EXPECT_EQ(result.direction_switch_level, -1);
      }
      if (mode == bfs_mode::bottomup) {
        for (const auto& ls : result.levels) EXPECT_TRUE(ls.bottom_up);
        EXPECT_EQ(result.direction_switch_level, 0);
      }
      if (mode == bfs_mode::hybrid) {
        if (fam == family::path) {
          // One-vertex frontiers: the α threshold is only crossed when
          // the unvisited mass has collapsed, i.e. deep in the tail of
          // the traversal (Beamer's heuristic legitimately takes the
          // last few levels bottom-up once m_u < α·m_f).  An early
          // switch here would mean the heuristic is reading the wrong
          // masses.
          if (result.direction_switch_level >= 0) {
            EXPECT_GT(result.direction_switch_level,
                      static_cast<std::int64_t>(result.levels.size() * 3 / 4));
          }
        } else {
          // Low-diameter scale-free / dense families must actually take
          // bottom-up levels, or the heuristic is dead code.
          EXPECT_GE(result.direction_switch_level, 0)
              << "hybrid never switched on " << family_name(fam);
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BfsModes,
    ::testing::Combine(::testing::ValuesIn(graph::kAllPartitioners),
                       ::testing::Values(family::rmat, family::er,
                                         family::path, family::star_hub),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<BfsModes::ParamType>& info) {
      return std::string(graph::partitioner_name(std::get<0>(info.param))) +
             "_" + family_name(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param));
    });

class BfsModesExternal
    : public ::testing::TestWithParam<std::tuple<bfs_mode, int>> {};

TEST_P(BfsModesExternal, ReadaheadMatchesSerial) {
  const auto [mode, p] = GetParam();
  gen::rmat_config rc{.scale = 10, .edge_factor = 8, .seed = 1207};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const std::uint64_t source_gid = edges.front().src;
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto exp = reference::serial_bfs(ref, source_gid);

  launch(p, [&, mode = mode, p = p](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), p);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    constexpr std::size_t kPage = 256;
    graph::partition_blueprint bp =
        graph::build_partition(c, std::move(mine), {});
    storage::memory_device raw;
    storage::sim_nvram_device nvram(
        raw, {std::chrono::microseconds(10), std::chrono::microseconds(10), 8});
    storage::write_array<std::uint64_t>(nvram, 0, bp.adj_bits);
    const std::size_t pages =
        (bp.adj_bits.size() * sizeof(std::uint64_t) + kPage - 1) / kPage;
    storage::page_cache::config ccfg{kPage,
                                     std::max<std::size_t>(1, pages / 8)};
    ccfg.faults.seed = 31 + static_cast<std::uint64_t>(c.rank());
    ccfg.faults.evict_prob = 0.05;
    ccfg.faults.io_delay_prob = 0.05;
    ccfg.faults.max_io_delay = std::chrono::microseconds(200);
    storage::page_cache cache(nvram, ccfg);
    graph::external_edges store(cache, 0, bp.adj_bits.size());
    bp.adj_bits.clear();
    graph::distributed_graph<graph::external_edges> g(c, std::move(bp),
                                                      std::move(store));
    const auto source = g.locate(source_gid);
    ASSERT_TRUE(source.valid());

    hybrid_bfs_config cfg;
    cfg.mode = mode;
    auto result = run_bfs_mode(g, source, cfg);
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, exp[gid]) << "vertex " << gid;
    }
    const auto v = validate_bfs(g, source, result.state, {});
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.level_violations, 0u);
    EXPECT_EQ(v.structural_violations, 0u);
    EXPECT_EQ(v.tree_edges_found, v.tree_edges_expected);
    if (mode == bfs_mode::hybrid) {
      EXPECT_GE(result.direction_switch_level, 0);
    }

    // The readahead ran on every rank, and the faults it must survive
    // fired (summed over ranks: a small rank draws few of them).
    const auto st = cache.stats();
    EXPECT_GT(st.prefetched, 0u);
    EXPECT_EQ(st.dev_bytes_read, (st.misses + st.prefetched) * kPage);
    const auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
    EXPECT_GT(c.all_reduce(st.fault_evictions, sum), 0u);
    EXPECT_GT(c.all_reduce(st.fault_io_delays, sum), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Em, BfsModesExternal,
    ::testing::Combine(::testing::Values(bfs_mode::topdown, bfs_mode::bottomup,
                                         bfs_mode::hybrid),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<BfsModesExternal::ParamType>& info) {
      return std::string(bfs_mode_name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// The α/β config fields must reach the heuristic: α so small top-down
// always wins, and α/β so large the traversal stays bottom-up throughout.
TEST(BfsModesEnv, AlphaBetaKnobs) {
  const auto edges = make_family(family::star_hub);
  const std::uint64_t source_gid = edges.front().src;
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto exp = reference::serial_bfs(ref, source_gid);
  launch(2, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 2);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {});
    const auto source = g.locate(source_gid);

    // α tiny: the switch threshold m_u/α is astronomically high, so the
    // hybrid degenerates to pure top-down and still matches serial.
    hybrid_bfs_config never;
    never.alpha = 1e-9;
    auto r1 = run_bfs_mode(g, source, never);
    EXPECT_EQ(r1.direction_switch_level, -1);

    // α huge: threshold ~0, switches at level 0; β huge: the return
    // threshold n/β is ~0, so it stays bottom-up to the end.
    hybrid_bfs_config always;
    always.alpha = 1e18;
    always.beta = 1e18;
    auto r2 = run_bfs_mode(g, source, always);
    EXPECT_EQ(r2.direction_switch_level, 0);
    for (const auto& ls : r2.levels) EXPECT_TRUE(ls.bottom_up);

    for (auto* r : {&r1, &r2}) {
      const auto levels = gather_global(c, g, [&](std::size_t s) {
        return r->state.local(s).level;
      });
      for (const auto& [gid, level] : levels) {
        ASSERT_EQ(level, exp[gid]) << "vertex " << gid;
      }
    }
  });
}

}  // namespace
}  // namespace sfg::core
