/// \file bfs_report_test.cpp
/// The per-traversal metrics report from both BFS drivers (DESIGN.md §7,
/// §13): the async visitor queue and the level-synchronous driver share
/// one traversal lifecycle, so with every lens on, every mode's entry
/// carries the same sections (plus "bfs" for the level-synchronous
/// modes).  And when a span ring overflows and the critical path cannot
/// be analyzed, the entry says so with the drop count instead of
/// silently leaving the section out.  The other visitor-queue algorithms
/// go through the same lifecycle and carry the same sections, and every
/// driver's traversal loop dispatches memory-pressure callbacks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/bfs_hybrid.hpp"
#include "core/connected_components.hpp"
#include "core/kcore.hpp"
#include "core/sssp.hpp"
#include "core/test_helpers.hpp"
#include "core/triangles.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "obs/critpath.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/span.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"
#include "storage/block_device.hpp"
#include "storage/page_cache.hpp"

namespace sfg::core {
namespace {

using gen::edge64;
using runtime::comm;
using in_memory_graph = graph::distributed_graph<graph::in_memory_edges>;

/// Restores every lens toggle the tests flip, and drops collected
/// entries, so the tests cannot leak state into each other.
struct lens_guard {
  bool metrics = obs::metrics_on();
  bool matrix = obs::detail::toggles().comm_matrix.load();
  bool spans = obs::spans_on();
  std::size_t span_cap = obs::span_capacity();
  bool mem = obs::detail::toggles().mem.load();
  std::string report = obs::metrics_report_path();
  ~lens_guard() {
    obs::set_metrics_enabled(metrics);
    obs::set_comm_matrix_enabled(matrix);
    obs::set_spans_enabled(spans);
    obs::set_span_capacity(span_cap);
    obs::set_mem_enabled(mem);
    obs::set_metrics_report_path(report);
    obs::clear_traversal_reports();
  }
};

std::vector<edge64> rmat_edges(unsigned scale) {
  gen::rmat_config rc{.scale = scale, .edge_factor = 8, .seed = 4242};
  return gen::rmat_slice(rc, 0, rc.num_edges());
}

/// Run `algo` once per rank on an in-memory graph over `p` ranks and
/// return the report's last entry.
obs::json run_and_report(const std::vector<edge64>& edges, int p,
                         const std::string& path,
                         const std::function<void(in_memory_graph&)>& algo,
                         const graph::graph_build_config& gcfg = {}) {
  obs::clear_traversal_reports();
  obs::span_clear();
  runtime::launch(p, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), c.size());
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = graph::build_in_memory_graph(c, mine, gcfg);
    algo(g);
  });
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = obs::json::parse(ss.str());
  if (!doc) return {};
  const obs::json* traversals = doc->find("traversals");
  if (traversals == nullptr || traversals->size() == 0) return {};
  return traversals->at(traversals->size() - 1);
}

/// Run one BFS in `mode` on `p` ranks and return the report's last entry.
obs::json run_bfs_and_report(const std::vector<edge64>& edges, bfs_mode mode,
                             int p, const std::string& path) {
  const std::uint64_t root = edges.front().src;
  return run_and_report(edges, p, path, [&](in_memory_graph& g) {
    hybrid_bfs_config cfg;
    cfg.mode = mode;
    (void)run_bfs_mode(g, g.locate(root), cfg);
  });
}

std::set<std::string> keys_of(const obs::json& o) {
  std::set<std::string> keys;
  if (!o.is_object()) return keys;
  for (const auto& [k, v] : o.items()) keys.insert(k);
  return keys;
}

/// Turn every lens on, with a span ring large enough not to wrap, and
/// point the report at `path`.
void enable_every_lens(const std::string& path) {
  obs::set_metrics_enabled(true);
  obs::set_comm_matrix_enabled(true);
  obs::set_span_capacity(1 << 16);
  obs::set_spans_enabled(true);
  obs::set_mem_enabled(true);
  obs::set_metrics_report_path(path);
}

const std::set<std::string> kEveryLens = {
    "ranks", "total", "per_rank", "straggler", "comm_matrix", "critpath",
    "mem"};

/// Every present critpath and mem section must also validate.
void expect_sections_validate(const obs::json& entry) {
  std::vector<std::string> errors;
  if (const obs::json* cp = entry.find("critpath")) {
    EXPECT_TRUE(obs::critpath_validate(*cp, &errors));
  }
  if (const obs::json* mem = entry.find("mem")) {
    EXPECT_TRUE(obs::mem_validate(*mem, &errors));
  }
  for (const auto& e : errors) ADD_FAILURE() << e;
}

std::string mode_param_name(const ::testing::TestParamInfo<bfs_mode>& info) {
  return bfs_mode_name(info.param);
}

class BfsReportP
    : public ::testing::TestWithParam<std::tuple<bfs_mode, int>> {};

TEST_P(BfsReportP, EveryDriverCarriesEveryLens) {
  const auto [mode, p] = GetParam();
  const lens_guard guard;
  const std::string path = std::string("bfs_report_lens_parity_") +
                           bfs_mode_name(mode) + "_p" + std::to_string(p) +
                           ".json";
  enable_every_lens(path);

  const obs::json entry = run_bfs_and_report(rmat_edges(8), mode, p, path);
  std::set<std::string> want = kEveryLens;
  if (mode != bfs_mode::async) want.insert("bfs");
  EXPECT_EQ(keys_of(entry), want);
  expect_sections_validate(entry);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, BfsReportP,
    ::testing::Combine(::testing::ValuesIn(kAllBfsModes),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<bfs_mode, int>>& info) {
      return std::string(bfs_mode_name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

class BfsOverflowP : public ::testing::TestWithParam<bfs_mode> {};

TEST_P(BfsOverflowP, SpanRingOverflowMarksCritpathIncomplete) {
  // A 16-event ring cannot hold one rank's traversal: every rank loses its
  // trav_begin marker, so the analyzer finds no window.  The entry must
  // still carry a critpath section that says so and counts the drops, and
  // the validator must reject it, naming that count.
  const bfs_mode mode = GetParam();
  const lens_guard guard;
  const std::string path =
      std::string("bfs_report_ring_overflow_") + bfs_mode_name(mode) + ".json";
  obs::set_metrics_enabled(true);
  obs::set_span_capacity(16);
  obs::set_spans_enabled(true);
  obs::set_metrics_report_path(path);

  const obs::json entry = run_bfs_and_report(rmat_edges(8), mode, 4, path);
  const obs::json* cp = entry.find("critpath");
  ASSERT_NE(cp, nullptr) << "critpath section silently dropped";
  const obs::json* incomplete = cp->find("incomplete");
  ASSERT_NE(incomplete, nullptr);
  EXPECT_TRUE(incomplete->as_bool());
  const obs::json* dropped = cp->find("dropped");
  ASSERT_NE(dropped, nullptr);
  const std::uint64_t n = dropped->as_u64();
  EXPECT_GT(n, 0u);

  std::vector<std::string> errors;
  EXPECT_FALSE(obs::critpath_validate(*cp, &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find(std::to_string(n)), std::string::npos)
      << errors.front();
  EXPECT_NE(errors.front().find("SFG_SPAN_EVENTS"), std::string::npos)
      << errors.front();
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Drivers, BfsOverflowP,
                         ::testing::ValuesIn(kAllBfsModes), mode_param_name);

/// The other visitor-queue algorithms run through the same traversal
/// lifecycle as the async BFS, so their entries carry the same sections.
enum class algorithm { kcore, cc, sssp, triangles };

const char* algorithm_name(algorithm a) {
  switch (a) {
    case algorithm::kcore:
      return "kcore";
    case algorithm::cc:
      return "cc";
    case algorithm::sssp:
      return "sssp";
    case algorithm::triangles:
      return "triangles";
  }
  return "?";
}

class TraversalReportP : public ::testing::TestWithParam<algorithm> {};

TEST_P(TraversalReportP, EveryAlgorithmCarriesEveryLens) {
  const algorithm algo = GetParam();
  const lens_guard guard;
  const std::string path =
      std::string("traversal_report_lens_") + algorithm_name(algo) + ".json";
  enable_every_lens(path);

  const auto edges = rmat_edges(8);
  const std::uint64_t root = edges.front().src;
  graph::graph_build_config gcfg;
  gcfg.make_weights = algo == algorithm::sssp;
  const obs::json entry = run_and_report(
      edges, 4, path,
      [&](in_memory_graph& g) {
        switch (algo) {
          case algorithm::kcore:
            (void)run_kcore(g, 3);
            break;
          case algorithm::cc:
            (void)run_connected_components(g);
            break;
          case algorithm::sssp:
            (void)run_sssp(g, g.locate(root));
            break;
          case algorithm::triangles:
            (void)run_triangle_count(g);
            break;
        }
      },
      gcfg);
  EXPECT_EQ(keys_of(entry), kEveryLens);
  expect_sections_validate(entry);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, TraversalReportP,
    ::testing::Values(algorithm::kcore, algorithm::cc, algorithm::sssp,
                      algorithm::triangles),
    [](const ::testing::TestParamInfo<algorithm>& info) {
      return algorithm_name(info.param);
    });

class BfsPressureP : public ::testing::TestWithParam<bfs_mode> {};

TEST_P(BfsPressureP, TraversalLoopDispatchesPressureCallbacks) {
  // A budget far below what an external-memory graph charges (each rank's
  // mailbox arenas and cache frames alone hold several KiB): the build
  // crosses the thresholds, and the transitions queue until a poll loop
  // dispatches them.  Every driver's traversal loop must do so (the
  // page cache gives frames back from its callback), and the traversal
  // must stay exact while the cache shrinks under it.
  const bfs_mode mode = GetParam();
  const lens_guard guard;
  obs::mem_clear();
  obs::set_mem_enabled(true);
  obs::set_mem_budget(8 * 1024);
  std::atomic<int> dispatched{0};
  const int cb = obs::mem_register_pressure_callback(
      [&](obs::mem_pressure_level) { dispatched.fetch_add(1); });

  const auto edges = rmat_edges(8);
  const std::uint64_t root = edges.front().src;
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, root);
  runtime::launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), c.size());
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    storage::memory_device dev;
    storage::page_cache cache(dev, {512, 64});
    auto g = graph::build_external_graph(c, mine, {}, dev, cache);
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(dispatched.load(), 0) << "dispatched before the traversal";
    }
    c.barrier();
    hybrid_bfs_config cfg;
    cfg.mode = mode;
    auto result = run_bfs_mode(g, g.locate(root), cfg);
    const auto levels = testing::gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, expected[gid]) << "vertex " << gid;
    }
  });
  obs::mem_unregister_pressure_callback(cb);
  obs::set_mem_budget(0);

  EXPECT_GE(obs::mem_pressure_counts().to_soft, 1u);
  EXPECT_GE(dispatched.load(), 1);
  obs::mem_clear();
}

INSTANTIATE_TEST_SUITE_P(Drivers, BfsPressureP,
                         ::testing::ValuesIn(kAllBfsModes), mode_param_name);

}  // namespace
}  // namespace sfg::core
