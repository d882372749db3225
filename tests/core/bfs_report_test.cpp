/// \file bfs_report_test.cpp
/// The per-traversal metrics report from both BFS drivers (DESIGN.md §7,
/// §13): the async visitor queue and the level-synchronous driver share
/// one traversal lifecycle, so with every lens on, every mode's entry
/// carries the same sections (plus "bfs" for the level-synchronous
/// modes).  Each rank's event ring holds one begin and one end event per
/// traversal and one flush/packet event per mailbox packet.  When a ring
/// overflows — on every rank or only on some — and the critical path
/// cannot be analyzed, the entry says so with the drop count instead of
/// silently leaving the section out or analyzing the survivors.  The
/// other visitor-queue algorithms go through the same lifecycle and carry
/// the same sections, every driver's traversal loop dispatches
/// memory-pressure callbacks, and the rings' ledger charge does not
/// depend on which traversal allocated them.
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
#include "obs/events.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
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
  std::size_t event_cap = obs::event_capacity();
  bool mem = obs::detail::toggles().mem.load();
  std::string report = obs::metrics_report_path();
  ~lens_guard() {
    obs::set_metrics_enabled(metrics);
    obs::set_comm_matrix_enabled(matrix);
    obs::set_spans_enabled(spans);
    obs::set_event_capacity(event_cap);
    obs::set_mem_enabled(mem);
    obs::set_metrics_report_path(report);
    obs::clear_traversal_reports();
  }
};

std::vector<edge64> rmat_edges(unsigned scale) {
  gen::rmat_config rc{.scale = scale, .edge_factor = 8, .seed = 4242};
  return gen::rmat_slice(rc, 0, rc.num_edges());
}

/// Every traversal entry of the report at `path` (null when unreadable).
obs::json read_traversals(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = obs::json::parse(ss.str());
  if (!doc) return {};
  const obs::json* traversals = doc->find("traversals");
  return traversals != nullptr ? *traversals : obs::json();
}

/// Run `algo` once per rank on an in-memory graph over `p` ranks and
/// return the report's last entry.
obs::json run_and_report(const std::vector<edge64>& edges, int p,
                         const std::string& path,
                         const std::function<void(in_memory_graph&)>& algo,
                         const graph::graph_build_config& gcfg = {}) {
  obs::clear_traversal_reports();
  obs::events_clear();
  runtime::launch(p, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), c.size());
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = graph::build_in_memory_graph(c, mine, gcfg);
    algo(g);
  });
  const obs::json traversals = read_traversals(path);
  if (!traversals.is_array() || traversals.size() == 0) return {};
  return traversals.at(traversals.size() - 1);
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

/// Turn every lens on, with an event ring large enough not to wrap, and
/// point the report at `path`.  Idle poll iterations each record a few
/// phase segments, so a 4-rank SSSP on a loaded machine can pass 2^16
/// events on one rank.
void enable_every_lens(const std::string& path) {
  obs::set_metrics_enabled(true);
  obs::set_comm_matrix_enabled(true);
  obs::set_event_capacity(1 << 17);
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

/// The entry's critpath section is the incomplete stand-in: it counts
/// the ring drops, and the validator rejects it naming that count and the
/// knob to raise.
void expect_incomplete_critpath(const obs::json& entry) {
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
  EXPECT_NE(errors.front().find("SFG_EVENTS"), std::string::npos)
      << errors.front();
}

class BfsOverflowP : public ::testing::TestWithParam<bfs_mode> {};

TEST_P(BfsOverflowP, SpanRingOverflowMarksCritpathIncomplete) {
  // A 16-event ring cannot hold one rank's traversal: every rank loses its
  // traversal_begin, so the analyzer finds no window.  The entry must
  // still carry a critpath section that says so and counts the drops, and
  // the validator must reject it, naming that count.
  const bfs_mode mode = GetParam();
  const lens_guard guard;
  const std::string path =
      std::string("bfs_report_ring_overflow_") + bfs_mode_name(mode) + ".json";
  obs::set_metrics_enabled(true);
  obs::set_event_capacity(16);
  obs::set_spans_enabled(true);
  obs::set_metrics_report_path(path);

  const obs::json entry = run_bfs_and_report(rmat_edges(8), mode, 4, path);
  expect_incomplete_critpath(entry);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Drivers, BfsOverflowP,
                         ::testing::ValuesIn(kAllBfsModes), mode_param_name);

/// A level-synchronous BFS in which only rank 0's ring overflows: at the
/// first level barrier, rank 0 records a ring's worth of filler, which
/// overwrites its traversal_begin while every other rank keeps its window.
class BfsPartialOverflowP : public ::testing::TestWithParam<bfs_mode> {};

TEST_P(BfsPartialOverflowP, OneRankLosingItsWindowMarksCritpathIncomplete) {
  const bfs_mode mode = GetParam();
  const lens_guard guard;
  const std::string path = std::string("bfs_report_partial_overflow_") +
                           bfs_mode_name(mode) + ".json";
  constexpr std::size_t kCap = 1 << 14;
  obs::set_metrics_enabled(true);
  obs::set_event_capacity(kCap);
  obs::set_spans_enabled(true);
  obs::set_metrics_report_path(path);

  const auto edges = rmat_edges(8);
  const std::uint64_t root = edges.front().src;
  const obs::json entry =
      run_and_report(edges, 4, path, [&](in_memory_graph& g) {
        hybrid_bfs_config cfg;
        cfg.mode = mode;
        cfg.on_level = [&](std::uint64_t level, bool, bool) {
          if (level != 0 || g.comm().rank() != 0) return;
          for (std::size_t i = 0; i < kCap; ++i) {
            obs::event_mark(obs::event_kind::queue_batch, i);
          }
        };
        (void)run_bfs_mode(g, g.locate(root), cfg);
      });
  expect_incomplete_critpath(entry);

  const obs::json dump = obs::flight_to_json("partial-overflow");
  const obs::json& ranks = *dump.find("ranks");
  int overflowed = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const std::int64_t r = ranks.at(i).find("rank")->as_i64();
    if (r < 0) continue;
    const bool dropped = ranks.at(i).find("dropped")->as_u64() > 0;
    EXPECT_EQ(dropped, r == 0) << "rank " << r;
    overflowed += dropped ? 1 : 0;
  }
  EXPECT_EQ(overflowed, 1);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Drivers, BfsPartialOverflowP,
                         ::testing::Values(bfs_mode::topdown,
                                           bfs_mode::bottomup,
                                           bfs_mode::hybrid),
                         mode_param_name);

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

class BfsEventRingP : public ::testing::TestWithParam<bfs_mode> {};

TEST_P(BfsEventRingP, OneEventPerTraversalBoundAndPerPacket) {
  // Each site records once: per rank and traversal one traversal_begin
  // and one traversal_end, and inside that window one mbox_flush per
  // packet the mailbox sent and one mbox_packet per packet it accepted —
  // matching the mailbox's packets_sent and, pair by pair, the comm
  // matrix's flush_packets (no faults, so every packet lands once).
  const bfs_mode mode = GetParam();
  const lens_guard guard;
  const std::string path =
      std::string("bfs_report_event_ring_") + bfs_mode_name(mode) + ".json";
  enable_every_lens(path);

  constexpr int kRanks = 4;
  const obs::json entry = run_bfs_and_report(rmat_edges(8), mode, kRanks, path);
  const obs::json& per_rank = *entry.find("per_rank");
  const obs::json& rows = *entry.find("comm_matrix")->find("rows");
  ASSERT_EQ(per_rank.size(), static_cast<std::size_t>(kRanks));
  const auto flush_packets = [&](int src, int dst) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows.at(i).find("rank")->as_i64() == src) {
        return rows.at(i).find("flush_packets")->at(static_cast<std::size_t>(dst)).as_u64();
      }
    }
    return std::uint64_t{0};
  };

  const obs::json dump = obs::flight_to_json("event-ring");
  const obs::json& ranks = *dump.find("ranks");
  int seen = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const obs::json& ring = ranks.at(i);
    const std::int64_t r = ring.find("rank")->as_i64();
    if (r < 0) continue;
    ++seen;
    EXPECT_EQ(ring.find("dropped")->as_u64(), 0u);
    int begins = 0, ends = 0;
    bool inside = false;
    std::uint64_t flushes = 0;
    std::vector<std::uint64_t> accepted(kRanks, 0);
    const obs::json& events = *ring.find("events");
    for (std::size_t j = 0; j < events.size(); ++j) {
      const obs::json& ev = events.at(j);
      const std::string& kind = ev.find("kind")->as_string();
      if (kind == "traversal_begin") {
        ++begins;
        inside = true;
      } else if (kind == "traversal_end") {
        ++ends;
        inside = false;
      } else if (inside && kind == "mbox_flush") {
        ++flushes;
      } else if (inside && kind == "mbox_packet") {
        ++accepted[ev.find("a")->as_u64()];
      }
    }
    EXPECT_EQ(begins, 1) << "rank " << r;
    EXPECT_EQ(ends, 1) << "rank " << r;
    const obs::json& mailbox =
        *per_rank.at(static_cast<std::size_t>(r)).find("mailbox");
    EXPECT_EQ(flushes, mailbox.find("packets_sent")->as_u64()) << "rank " << r;
    for (int src = 0; src < kRanks; ++src) {
      EXPECT_EQ(accepted[static_cast<std::size_t>(src)],
                flush_packets(src, static_cast<int>(r)))
          << "packets " << src << " -> " << r;
    }
  }
  EXPECT_EQ(seen, kRanks);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Drivers, BfsEventRingP,
                         ::testing::ValuesIn(kAllBfsModes), mode_param_name);

TEST(BfsEventRing, AsyncAfterHybridInheritsNoLevels) {
  // Both traversals share the rings, so the hybrid's level markers are
  // still there when the async one is analyzed; they lie outside its
  // window and must not label it.
  const lens_guard guard;
  const std::string path = "bfs_report_levels_window.json";
  enable_every_lens(path);

  const auto edges = rmat_edges(8);
  const std::uint64_t root = edges.front().src;
  (void)run_and_report(edges, 4, path, [&](in_memory_graph& g) {
    for (const bfs_mode mode : {bfs_mode::hybrid, bfs_mode::async}) {
      hybrid_bfs_config cfg;
      cfg.mode = mode;
      (void)run_bfs_mode(g, g.locate(root), cfg);
    }
  });
  const obs::json traversals = read_traversals(path);
  ASSERT_TRUE(traversals.is_array());
  ASSERT_EQ(traversals.size(), 2u);
  const obs::json* hybrid_cp = traversals.at(0).find("critpath");
  const obs::json* async_cp = traversals.at(1).find("critpath");
  ASSERT_NE(hybrid_cp, nullptr);
  ASSERT_NE(async_cp, nullptr);
  EXPECT_NE(hybrid_cp->find("levels"), nullptr);
  EXPECT_EQ(async_cp->find("levels"), nullptr);
  expect_sections_validate(traversals.at(1));
  std::remove(path.c_str());
}

TEST(BfsEventRing, RingChargeDoesNotDependOnTheFirstTraversal) {
  // The event rings live for the process.  The first run of a process
  // allocates them and a later run reuses them; with the ledger cleared
  // in between, both must still report the same obs bytes per rank.
  const lens_guard guard;
  obs::set_mem_enabled(true);
  obs::set_event_capacity(obs::event_capacity());  // as in a fresh process
  constexpr int kRanks = 4;
  const auto edges = rmat_edges(8);
  const std::uint64_t root = edges.front().src;
  const auto run = [&] {
    obs::mem_clear();
    runtime::launch(kRanks, [&](comm& c) {
      const auto range = gen::slice_for_rank(edges.size(), c.rank(), c.size());
      std::vector<edge64> mine(
          edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
          edges.begin() + static_cast<std::ptrdiff_t>(range.end));
      storage::memory_device dev;
      storage::page_cache cache(dev, {512, 64});
      auto g = graph::build_external_graph(c, mine, {}, dev, cache);
      (void)run_bfs_mode(g, g.locate(root), hybrid_bfs_config{});
    });
    std::vector<std::uint64_t> peaks;
    for (int r = 0; r < kRanks; ++r) {
      peaks.push_back(obs::mem_peak(obs::mem_subsystem::obs, r));
    }
    return peaks;
  };
  const std::vector<std::uint64_t> first = run();
  const std::vector<std::uint64_t> second = run();
  EXPECT_EQ(first, second);
  for (const std::uint64_t peak : first) {
    EXPECT_GE(peak, obs::event_capacity() * 32) << "ring not on the ledger";
  }
  obs::mem_clear();
}

}  // namespace
}  // namespace sfg::core
