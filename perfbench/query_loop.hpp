/// \file query_loop.hpp
/// The per-rank half of the benchmark: graph set-up through the public
/// build steps, then a closed loop of collective queries, each timed from
/// outside and followed (untimed) by the data its checks need.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/bfs_hybrid.hpp"
#include "core/bfs_validate.hpp"
#include "core/connected_components.hpp"
#include "core/kcore.hpp"
#include "core/triangles.hpp"
#include "graph/distributed_graph.hpp"
#include "storage/block_device.hpp"
#include "storage/page_cache.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sfg;
using clk = std::chrono::steady_clock;

inline double seconds_since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

enum alg : std::uint8_t { bfs_hybrid, bfs_async, kcore, cc, triangles };
inline constexpr std::size_t kAlgs = 5;
inline constexpr const char* kAlgName[kAlgs] = {"bfs_hybrid", "bfs_async",
                                                 "kcore", "cc", "triangles"};

/// Warm-up calls are checked but not measured; the traced pass replays the
/// untraced pass's items with the phase lens and spans on.
enum class pass : std::uint8_t { warmup, untraced, traced };

/// One rank's view of one public call.  A k-core set gives one record per
/// k, sharing `unit`.
struct call_record {
  alg a = bfs_hybrid;
  pass in = pass::untraced;
  std::size_t unit = 0;  ///< query index within its pass
  std::size_t sub = 0;  ///< root (BFS), k (k-core) or graph (triangles) index
  double seconds = 0;    ///< this rank's time inside the call
  core::traversal_stats st{};
  std::uint64_t bytes_sent = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t dev_reads = 0;
  std::uint64_t dev_read_us = 0;
  // Hybrid BFS shape (identical on every rank).
  std::uint64_t levels = 0;
  std::int64_t switch_level = -1;
  std::uint64_t claims = 0;
  // What the checks need.
  bool valid = true;          ///< validate_bfs verdict (collective)
  std::uint64_t digest = 0;   ///< this rank's share of the answer digest
  std::uint64_t answer = 0;   ///< global scalar answer
  std::uint64_t local_edges = 0;  ///< degree mass of reached masters (BFS)
};

/// A span recorded around a public call: name, rank, start, end, parent.
struct span {
  const char* name;
  int rank;
  double start_us;
  double end_us;
  int parent;  ///< index into the same rank's span list, -1 at top level
};

struct setup_record {
  double partition_s = 0;
  double write_s = 0;
  double construct_s = 0;
  [[nodiscard]] double total() const {
    return partition_s + write_s + construct_s;
  }
};

struct graph_shape {
  std::uint64_t local_edges = 0;
  std::uint64_t total_vertices = 0;
  std::uint64_t total_edges = 0;
};

/// Everything one rank hands back to the main thread.
struct rank_output {
  std::vector<setup_record> setups;
  std::vector<call_record> calls;
  std::vector<span> spans;
  double traced_start_us = 0;
  double traced_end_us = 0;
  graph_shape graph;
  std::vector<graph_shape> tri_graphs;
};

/// Order-independent digest term for (vertex id, value).
inline std::uint64_t mix(std::uint64_t gid, std::uint64_t value) {
  return util::splitmix64(gid * 0x9E3779B97F4A7C15ULL ^
                          util::splitmix64(value + 1));
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

inline constexpr std::size_t kPageSize = 4096;
/// Cache frames = adjacency pages / kDataOverDram per rank (paper Fig 9).
inline constexpr std::size_t kDataOverDram = 8;

/// One rank's external-memory stack: sim NVRAM with fig09's latencies
/// over a DRAM device, fronted by a page cache.
struct em_stack {
  storage::memory_device raw;
  storage::sim_nvram_device nvram{
      raw, {std::chrono::microseconds(60), std::chrono::microseconds(150), 32}};
  std::optional<storage::page_cache> cache;
};

using mem_graph = graph::distributed_graph<graph::in_memory_edges>;
using em_graph = graph::distributed_graph<graph::external_edges>;

/// A built graph and, for external graphs, the storage under it.
template <typename Graph>
struct loaded_graph {
  std::unique_ptr<em_stack> em;  ///< declared first: outlives the graph
  std::unique_ptr<Graph> g;
};

inline graph::graph_build_config build_config() {
  graph::graph_build_config cfg;
  cfg.num_ghosts = 256;
  return cfg;
}

/// graph::build_in_memory_graph, one timed step at a time.
inline loaded_graph<mem_graph> build_mem(runtime::comm& c,
                                         std::vector<gen::edge64> edges,
                                         setup_record& rec) {
  auto t = clk::now();
  graph::partition_blueprint bp =
      graph::build_partition(c, std::move(edges), build_config());
  rec.partition_s = seconds_since(t);
  t = clk::now();
  graph::in_memory_edges store(bp.adj_bits);
  loaded_graph<mem_graph> out;
  out.g = std::make_unique<mem_graph>(c, std::move(bp), std::move(store));
  rec.construct_s = seconds_since(t);
  return out;
}

/// graph::build_external_graph, one timed step at a time.  The cache gets
/// 1/kDataOverDram of this rank's adjacency pages.
inline loaded_graph<em_graph> build_em(runtime::comm& c,
                                       std::vector<gen::edge64> edges,
                                       setup_record& rec) {
  loaded_graph<em_graph> out;
  out.em = std::make_unique<em_stack>();
  auto t = clk::now();
  graph::partition_blueprint bp =
      graph::build_partition(c, std::move(edges), build_config());
  rec.partition_s = seconds_since(t);
  t = clk::now();
  storage::write_array<std::uint64_t>(out.em->nvram, 0, bp.adj_bits);
  rec.write_s = seconds_since(t);
  t = clk::now();
  const std::size_t pages =
      (bp.adj_bits.size() * sizeof(std::uint64_t) + kPageSize - 1) / kPageSize;
  out.em->cache.emplace(
      out.em->nvram,
      storage::page_cache::config{
          kPageSize, std::max<std::size_t>(8, pages / kDataOverDram)});
  graph::external_edges store(*out.em->cache, 0, bp.adj_bits.size());
  bp.adj_bits.clear();
  bp.adj_bits.shrink_to_fit();
  out.g = std::make_unique<em_graph>(c, std::move(bp), std::move(store));
  rec.construct_s = seconds_since(t);
  return out;
}

template <typename Graph>
loaded_graph<Graph> build(runtime::comm& c, std::vector<gen::edge64> edges,
                          setup_record& rec) {
  if constexpr (std::is_same_v<Graph, em_graph>) {
    return build_em(c, std::move(edges), rec);
  } else {
    return build_mem(c, std::move(edges), rec);
  }
}

template <typename Graph>
graph_shape shape_of(const Graph& g) {
  return {g.local_edge_count(), g.total_vertices(), g.total_edges()};
}

// ---------------------------------------------------------------------------
// The query loop
// ---------------------------------------------------------------------------

template <typename Graph>
class query_loop {
 public:
  query_loop(runtime::comm& c, loaded_graph<Graph>& main,
              std::vector<loaded_graph<Graph>>& tri, const workload& w,
              clk::time_point epoch, rank_output& out)
      : c_(c), main_(main), tri_(tri), w_(w), epoch_(epoch), out_(out) {}

  /// Graph500-style roots: seeded draws over the id space, keeping
  /// distinct vertices with degree > 0.  Collective; every rank gets the
  /// same list, whatever the partitioning.
  std::vector<std::uint64_t> pick_roots(std::uint64_t seed) {
    auto rng = util::make_stream(seed, 0x726f6f7473ULL);
    Graph& g = *main_.g;
    std::vector<std::uint64_t> roots;
    std::unordered_set<std::uint64_t> seen;
    const std::uint64_t id_space = std::uint64_t{1} << w_.log_n;
    for (std::size_t tries = 0;
         roots.size() < w_.num_roots && tries < 64 * w_.num_roots; ++tries) {
      const std::uint64_t gid = rng.uniform_below(id_space);
      if (!seen.insert(gid).second) continue;
      const auto loc = g.locate(gid);
      if (!loc.valid()) continue;
      std::uint64_t deg = 0;
      if (loc.owner() == c_.rank()) {
        if (const auto s = g.slot_of(loc)) deg = g.degree_of(*s);
      }
      deg = c_.all_reduce(deg, [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a : b;
      });
      if (deg > 0) {
        roots.push_back(gid);
        root_locs_.push_back(loc);
      }
    }
    if (roots.empty()) throw std::runtime_error("no root with degree > 0");
    return roots;
  }

  /// Every kind of query once, so caches fill and lazy set-up finishes
  /// before anything is timed.  Checked, not measured.
  void warm_up() {
    begin_pass(pass::warmup);
    run_bfs(bfs_hybrid, 0);
    run_bfs(bfs_async, 0);
    run_kcore_set();
    run_cc();
    run_triangles();
  }

  /// Run the query schedule from its start until `budget_s` has passed,
  /// or exactly `max_items` items when that is non-zero.  An item is a
  /// root visit (workload::hybrid_reps hybrid BFS calls, then one async
  /// BFS call) or the cycle's tail: one k-core set, one CC and
  /// workload::triangles_per_cycle triangle counts, after every
  /// workload::roots_per_cycle visits.  Roots and triangle graphs are
  /// taken in turn.  Returns the number of items run.
  std::size_t run_pass(pass in, double budget_s, std::size_t max_items) {
    begin_pass(in);
    const auto start = clk::now();
    if (in_ == pass::traced) out_.traced_start_us = now_us();
    const std::size_t period = w_.roots_per_cycle + 1;
    std::size_t items = 0, roots = 0;
    for (bool more = true; more;) {
      if (items++ % period < w_.roots_per_cycle) {
        const std::size_t r = roots++ % root_locs_.size();
        for (std::size_t i = 0; i < w_.hybrid_reps; ++i) run_bfs(bfs_hybrid, r);
        run_bfs(bfs_async, r);
      } else {
        run_kcore_set();
        run_cc();
        for (std::size_t i = 0; i < w_.triangles_per_cycle; ++i) run_triangles();
      }
      const int sp = open_span("control");
      more = max_items != 0 ? items < max_items
                            : seconds_since(start) < budget_s;
      more = c_.broadcast(more, 0);
      close_span(sp);
    }
    if (in_ == pass::traced) out_.traced_end_us = now_us();
    return items;
  }

 private:
  void begin_pass(pass in) {
    in_ = in;
    unit_ = 0;
    tri_calls_ = 0;
    validated_.assign(2 * root_locs_.size(), false);
  }

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(clk::now() - epoch_)
        .count();
  }

  int open_span(const char* name) {
    if (in_ != pass::traced) return -1;
    out_.spans.push_back({name, c_.rank(), now_us(), 0, parent_});
    parent_ = static_cast<int>(out_.spans.size()) - 1;
    return parent_;
  }

  void close_span(int idx) {
    if (idx < 0) return;
    auto& s = out_.spans[static_cast<std::size_t>(idx)];
    s.end_us = now_us();
    parent_ = s.parent;
  }

  /// The closed loop: every rank enters the call together and times only
  /// its own stay inside it.  Comm, cache and device counters are
  /// differenced around the call.
  template <typename Fn>
  call_record timed(alg a, std::size_t sub, const em_stack* em, Fn&& fn) {
    const int sync = open_span("sync");
    c_.barrier();
    close_span(sync);

    call_record rec;
    rec.a = a;
    rec.in = in_;
    rec.unit = unit_;
    rec.sub = sub;
    const auto bytes0 = c_.stats().bytes_sent;
    storage::page_cache::cache_stats cache0{};
    storage::device_io_stats dev0{};
    if (em != nullptr) {
      cache0 = em->cache->stats();
      dev0 = em->nvram.stats();
    }

    const int sp = open_span(kAlgName[a]);
    const auto t0 = clk::now();
    fn(rec);
    rec.seconds = seconds_since(t0);
    close_span(sp);

    rec.bytes_sent = c_.stats().bytes_sent - bytes0;
    if (em != nullptr) {
      const auto cache1 = em->cache->stats();
      const auto dev1 = em->nvram.stats();
      rec.cache_hits = cache1.hits - cache0.hits;
      rec.cache_misses = cache1.misses - cache0.misses;
      rec.dev_reads = dev1.reads - dev0.reads;
      rec.dev_read_us = dev1.read_us.sum - dev0.read_us.sum;
    }
    return rec;
  }

  void run_bfs(alg a, std::size_t r) {
    Graph& g = *main_.g;
    const auto source = root_locs_[r];
    core::hybrid_bfs_config cfg;
    cfg.mode = a == bfs_hybrid ? core::bfs_mode::hybrid : core::bfs_mode::async;
    std::optional<core::mode_bfs_result<Graph>> res;
    auto rec = timed(a, r, main_.em.get(), [&](call_record& rc) {
      res.emplace(core::run_bfs_mode(g, source, cfg));
      rc.st = res->stats;
    });
    const int sp = open_span("check");
    rec.levels = res->levels.size();
    rec.switch_level = res->direction_switch_level;
    for (const auto& l : res->levels) rec.claims += l.claims_sent;
    // The tree check runs on each root's first call per mode and pass
    // (it costs about half a query on external storage); every call's
    // levels are checked against the serial reference.
    const std::size_t vi = 2 * r + (a == bfs_async ? 1 : 0);
    if (!validated_[vi]) {
      rec.valid = core::validate_bfs(g, source, res->state).valid;
      validated_[vi] = true;
    }
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      if (!g.is_master(s)) continue;
      const auto& b = res->state.local(s);
      if (!b.reached()) continue;
      rec.digest += mix(g.global_id_of(s), b.level);
      rec.local_edges += g.degree_of(s);
    }
    res.reset();
    close_span(sp);
    out_.calls.push_back(rec);
    ++unit_;
  }

  void run_kcore_set() {
    Graph& g = *main_.g;
    const int set = open_span("kcore_set");
    for (std::size_t i = 0; i < w_.ks.size(); ++i) {
      std::optional<core::kcore_result<Graph>> res;
      auto rec = timed(kcore, i, main_.em.get(), [&](call_record& rc) {
        res.emplace(core::run_kcore(g, w_.ks[i]));
        rc.st = res->stats;
      });
      const int sp = open_span("check");
      rec.answer = res->core_size;
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        if (g.is_master(s) && res->state.local(s).alive) {
          rec.digest += mix(g.global_id_of(s), 1);
        }
      }
      res.reset();
      close_span(sp);
      out_.calls.push_back(rec);
    }
    close_span(set);
    ++unit_;
  }

  void run_cc() {
    auto rec = timed(cc, 0, main_.em.get(), [&](call_record& rc) {
      const auto res = core::run_connected_components(*main_.g);
      rc.st = res.stats;
      rc.answer = res.num_components;
    });
    out_.calls.push_back(rec);
    ++unit_;
  }

  void run_triangles() {
    const std::size_t i = tri_calls_++ % tri_.size();
    auto rec = timed(triangles, i, tri_[i].em.get(), [&](call_record& rc) {
      const auto res = core::run_triangle_count(*tri_[i].g);
      rc.st = res.stats;
      rc.answer = res.total_triangles;
    });
    out_.calls.push_back(rec);
    ++unit_;
  }

  runtime::comm& c_;
  loaded_graph<Graph>& main_;
  std::vector<loaded_graph<Graph>>& tri_;
  const workload& w_;
  clk::time_point epoch_;
  rank_output& out_;
  std::vector<graph::vertex_locator> root_locs_;
  pass in_ = pass::untraced;
  std::size_t unit_ = 0;
  std::size_t tri_calls_ = 0;
  std::vector<bool> validated_;  ///< per (root, mode) in this pass
  int parent_ = -1;
};

}  // namespace perfbench
