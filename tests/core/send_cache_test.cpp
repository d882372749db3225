/// \file send_cache_test.cpp
/// Sender-side visitor filtering in visitor_queue::push: inline delivery
/// to local masters and the per-rank send cache that extends the paper's
/// hub ghosts to every remote target.  Both must leave BFS, SSSP and CC
/// exact whatever the cache size (a tiny cache evicts all the time), cut
/// the records that reach the mailbox, and report what they filtered.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/bfs.hpp"
#include "core/connected_components.hpp"
#include "core/kcore.hpp"
#include "core/sssp.hpp"
#include "core/test_helpers.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/partitioner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/stats_fields.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"

namespace sfg::core {
namespace {

using gen::edge64;
using graph::build_in_memory_graph;
using graph::graph_build_config;
using graph::partitioner_kind;
using runtime::comm;
using runtime::launch;
using testing::gather_global;

enum class family { rmat, path };

std::vector<edge64> make_family(family f) {
  if (f == family::rmat) {
    gen::rmat_config rc{.scale = 9, .edge_factor = 16, .seed = 1207};
    return gen::rmat_slice(rc, 0, rc.num_edges());
  }
  std::vector<edge64> edges;
  for (std::uint64_t v = 0; v < 300; ++v) edges.push_back({v, v + 1});
  return edges;
}

std::vector<edge64> slice_of(const std::vector<edge64>& edges, int rank,
                             int p) {
  const auto range = gen::slice_for_rank(edges.size(), rank, p);
  return {edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
          edges.begin() + static_cast<std::ptrdiff_t>(range.end)};
}

constexpr std::uint32_t kMaxWeight = 15;

class SendCacheMatrix
    : public ::testing::TestWithParam<std::tuple<partitioner_kind, family, int>> {
};

// A 4-entry cache evicts on nearly every remote push, and no hub ghosts
// means every remote push goes through it.  Results must stay exact.
TEST_P(SendCacheMatrix, TinyCacheKeepsBfsSsspCcExact) {
  const auto [kind, fam, p] = GetParam();
  const auto edges = make_family(fam);
  const std::uint64_t source_gid = edges.front().src;
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto exp_bfs = reference::serial_bfs(ref, source_gid);
  const auto exp_sssp = reference::serial_sssp(ref, source_gid, kMaxWeight);
  const auto exp_cc = reference::serial_components(ref);

  queue_config qcfg;
  qcfg.send_cache_slots = 4;

  launch(p, [&, kind = kind, p = p](comm& c) {
    graph_build_config gcfg;
    gcfg.make_weights = true;
    gcfg.max_weight = kMaxWeight;
    gcfg.num_ghosts = 0;
    gcfg.partitioner.kind = kind;
    auto g = build_in_memory_graph(c, slice_of(edges, c.rank(), p), gcfg);
    const auto source = g.locate(source_gid);
    ASSERT_TRUE(source.valid());

    {
      auto result = run_bfs(g, source, qcfg);
      const auto levels = gather_global(c, g, [&](std::size_t s) {
        return result.state.local(s).level;
      });
      for (const auto& [gid, level] : levels) {
        ASSERT_EQ(level, exp_bfs[gid]) << "bfs vertex " << gid;
      }
      const auto sent = c.all_reduce(result.stats.visitors_sent, std::plus<>());
      const auto delivered =
          c.all_reduce(result.stats.visitors_delivered, std::plus<>());
      EXPECT_EQ(sent, delivered);
      EXPECT_EQ(result.stats.ghost_filtered, 0u);
      if (p == 1) {
        // Every target is a local master: nothing reaches the mailbox.
        EXPECT_EQ(result.stats.mailbox.records_sent, 0u);
        EXPECT_EQ(result.stats.cache_filtered, 0u);
      }
    }
    {
      auto result = run_sssp(g, source, qcfg);
      const auto dist = gather_global(c, g, [&](std::size_t s) {
        return result.state.local(s).distance;
      });
      for (const auto& [gid, d] : dist) {
        ASSERT_EQ(d, exp_sssp[gid]) << "sssp vertex " << gid;
      }
    }
    {
      // Component labels are locators, so compare the partitions.
      auto result = run_connected_components(g, qcfg);
      const auto labels = gather_global(c, g, [&](std::size_t s) {
        return result.state.local(s).label_bits;
      });
      std::map<std::uint64_t, std::uint64_t> d2s;
      std::map<std::uint64_t, std::uint64_t> s2d;
      for (const auto& [gid, label] : labels) {
        const auto serial = exp_cc[gid];
        ASSERT_EQ(d2s.emplace(label, serial).first->second, serial)
            << "cc vertex " << gid;
        ASSERT_EQ(s2d.emplace(serial, label).first->second, label)
            << "cc vertex " << gid;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SendCacheMatrix,
    ::testing::Combine(::testing::Values(partitioner_kind::edge_list,
                                         partitioner_kind::dbh),
                       ::testing::Values(family::rmat, family::path),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<SendCacheMatrix::ParamType>& info) {
      return std::string(graph::partitioner_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == family::rmat ? "_rmat" : "_path") +
             "_p" + std::to_string(std::get<2>(info.param));
    });

TEST(SendCache, CutsMailboxRecordsWithIdenticalLevels) {
  const auto edges = make_family(family::rmat);
  launch(4, [&](comm& c) {
    auto g = build_in_memory_graph(c, slice_of(edges, c.rank(), 4),
                                   {.num_ghosts = 16});
    const auto source = g.locate(edges.front().src);
    queue_config off;
    off.send_cache_slots = 0;
    auto r_on = run_bfs(g, source, {});
    auto r_off = run_bfs(g, source, off);
    const auto sum = [&](std::uint64_t v) {
      return c.all_reduce(v, std::plus<>());
    };
    // Counted, not asserted per slot: a rank returning early would leave
    // the others waiting in the collectives below.
    std::uint64_t mismatches = 0;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      if (r_on.state.local(s).level != r_off.state.local(s).level) {
        ++mismatches;
      }
    }
    EXPECT_EQ(sum(mismatches), 0u);
    EXPECT_LT(sum(r_on.stats.mailbox.records_sent),
              sum(r_off.stats.mailbox.records_sent));
    EXPECT_GT(sum(r_on.stats.cache_filtered), 0u);
    EXPECT_EQ(r_off.stats.cache_filtered, 0u);
    // The hub ghosts filter the same way with the cache on or off.
    EXPECT_GT(sum(r_on.stats.ghost_filtered), 0u);
    EXPECT_GT(sum(r_off.stats.ghost_filtered), 0u);
  });
}

TEST(SendCache, SizedOnceFromConfig) {
  const auto edges = make_family(family::rmat);
  launch(2, [&](comm& c) {
    auto g = build_in_memory_graph(c, slice_of(edges, c.rank(), 2), {});
    auto bfs_state = g.make_state<core::bfs_state>({});
    auto kcore_state = g.make_state<core::kcore_state>({});
    using graph_t = decltype(g);
    using bfs_q = visitor_queue<graph_t, bfs_visitor, decltype(bfs_state)>;
    using kcore_q =
        visitor_queue<graph_t, kcore_visitor, decltype(kcore_state)>;

    const std::size_t automatic =
        std::bit_ceil(std::max(g.num_slots(), kSendCacheMinSlots));
    EXPECT_EQ(bfs_q(g, bfs_state).send_cache_slots(), automatic);
    EXPECT_EQ(bfs_q(g, bfs_state, {.send_cache_slots = 0}).send_cache_slots(),
              0u);
    EXPECT_EQ(bfs_q(g, bfs_state, {.send_cache_slots = 5}).send_cache_slots(),
              8u);
    EXPECT_EQ(bfs_q(g, bfs_state, {.use_ghosts = false}).send_cache_slots(),
              0u);
    // Non-monotone visitors never filter at the sender.
    EXPECT_EQ(kcore_q(g, kcore_state).send_cache_slots(), 0u);
  });
}

TEST(SendCache, CacheFilteredRoundTripsThroughStatsAndReport) {
  traversal_stats before{};
  traversal_stats after{};
  before.cache_filtered = 3;
  after.cache_filtered = 10;
  EXPECT_EQ(obs::stats_delta(after, before).cache_filtered, 7u);
  traversal_stats sum{};
  obs::stats_add(sum, after);
  EXPECT_EQ(sum.cache_filtered, 10u);
  const obs::json j = obs::stats_to_json(after);
  ASSERT_NE(j.find("cache_filtered"), nullptr);
  EXPECT_EQ(j.find("cache_filtered")->as_u64(), 10u);

  // A real traversal: the report's total and per-rank entries carry it.
  const bool metrics_was = obs::metrics_on();
  const std::string report_was = obs::metrics_report_path();
  const std::string path = ::testing::TempDir() + "send_cache_report.json";
  obs::set_metrics_enabled(true);
  obs::set_metrics_report_path(path);
  obs::clear_traversal_reports();

  const auto edges = make_family(family::rmat);
  std::uint64_t filtered_total = 0;
  launch(4, [&](comm& c) {
    auto g = build_in_memory_graph(c, slice_of(edges, c.rank(), 4),
                                   {.num_ghosts = 16});
    auto result = run_bfs(g, g.locate(edges.front().src), {});
    const auto t = c.all_reduce(result.stats.cache_filtered, std::plus<>());
    if (c.rank() == 0) filtered_total = t;
  });
  obs::set_metrics_enabled(metrics_was);
  obs::set_metrics_report_path(report_was);
  obs::clear_traversal_reports();

  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = obs::json::parse(ss.str());
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->find("traversals")->size(), 1u);
  const obs::json& entry = doc->find("traversals")->at(0);
  EXPECT_GT(filtered_total, 0u);
  EXPECT_EQ(entry.find("total")->find("cache_filtered")->as_u64(),
            filtered_total);
  std::uint64_t per_rank = 0;
  const obs::json& ranks = *entry.find("per_rank");
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    per_rank += ranks.at(r).find("cache_filtered")->as_u64();
  }
  EXPECT_EQ(per_rank, filtered_total);
}

}  // namespace
}  // namespace sfg::core
