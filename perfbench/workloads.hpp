/// \file workloads.hpp
/// The benchmark's workloads and their seeded inputs (README.md has the
/// table and the reason for each).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen/generators.hpp"

namespace perfbench {

inline constexpr std::size_t kTriangleGraphs = 96;

struct workload {
  std::string name;
  bool rmat = true;  ///< Graph500 RMAT; otherwise Watts-Strogatz
  unsigned log_n = 10;
  std::uint64_t degree = 16;  ///< RMAT edge factor / WS ring degree
  double rewire = 0;          ///< WS only
  bool external = false;      ///< adjacency on sim NVRAM behind a page cache
  std::vector<std::uint32_t> ks;
  /// Triangle counting runs on kTriangleGraphs companion graphs of the
  /// same family and storage, with 2^tri_log_n vertices and seeds derived
  /// from the workload seed, taken in turn.  A call's speed varies by up to
  /// ~1.6x from one build of a graph to the next, and by ~20% from one RMAT
  /// companion to the next, so a run samples many graphs: there are more
  /// of them than a run makes calls.  They are small because exact
  /// triangles on RMAT grow ~8x per scale step (hub wedges: scale 11 takes
  /// ~1 s, 12 ~6 s at p = 4).
  unsigned tri_log_n = 10;
  std::size_t num_roots = 64;
  /// The query mix (query_loop::run_pass): hybrid BFS calls per root
  /// visit (async BFS runs once), then per cycle the root visits and the
  /// triangle counts that go with one k-core set and one CC.  Chosen so
  /// that each metric gets enough calls in one run to hold steady.
  std::size_t hybrid_reps = 1;
  std::size_t roots_per_cycle = 2;
  std::size_t triangles_per_cycle = 1;
};

/// The named workload, full size or at toy scale (2^10 vertices, for the
/// smoke test).
inline std::optional<workload> find_workload(const std::string& name,
                                             bool toy) {
  workload w;
  w.name = name;
  if (name == "rmat-mem") {
    // The same graph as rmat-em (same scale and seed), in DRAM.
    w.log_n = 16;
    w.tri_log_n = 10;
    w.ks = {4, 16, 64};
    w.hybrid_reps = 3;
    w.roots_per_cycle = 4;
  } else if (name == "rmat-em") {
    w.log_n = 16;
    w.tri_log_n = 10;
    w.external = true;
    w.ks = {4, 16, 64};
    w.triangles_per_cycle = 4;
  } else if (name == "sw-mem") {
    w.rmat = false;
    w.log_n = 15;
    w.tri_log_n = 13;
    w.rewire = 0.01;
    // Every non-empty core is trivial here (degrees are 14 to 18), so
    // k = 16 adds a peeling that does work: a cascade that empties the
    // graph.  k = 14 is on the edge: whether it cascades depends on the
    // seed.
    w.ks = {4, 8, 16};
    w.roots_per_cycle = 12;
  } else {
    return std::nullopt;
  }
  if (toy) {
    w.log_n = 10;
    w.tri_log_n = 8;
    w.num_roots = 16;
  }
  return w;
}

/// Seed of triangle companion graph `i`.
inline std::uint64_t triangle_seed(std::uint64_t seed, std::size_t i) {
  return seed * kTriangleGraphs + i + 1;
}

/// Rank `rank`'s slice of the 2^log_n-vertex graph of `w`'s family.
inline std::vector<sfg::gen::edge64> generate_slice(const workload& w,
                                                    unsigned log_n,
                                                    std::uint64_t seed,
                                                    int rank, int p) {
  namespace gen = sfg::gen;
  if (w.rmat) {
    const gen::rmat_config cfg{
        .scale = log_n, .edge_factor = w.degree, .seed = seed};
    const auto r = gen::slice_for_rank(cfg.num_edges(), rank, p);
    return gen::rmat_slice(cfg, r.begin, r.end);
  }
  const gen::sw_config cfg{.num_vertices = std::uint64_t{1} << log_n,
                           .degree = w.degree,
                           .rewire = w.rewire,
                           .seed = seed};
  const auto r = gen::slice_for_rank(cfg.num_edges(), rank, p);
  return gen::sw_slice(cfg, r.begin, r.end);
}

}  // namespace perfbench
