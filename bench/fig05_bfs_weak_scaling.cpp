/// Figure 5 — Weak scaling of asynchronous BFS on RMAT graphs (paper: up
/// to 131K cores of BG/P Intrepid, 2^18 vertices/core, 64.9 GTEPS at
/// 2^35 vertices, within 19% of the best custom BG/P implementation).
///
/// Here: 2^11 vertices per rank, p = 1..16 in-process rank threads on a
/// 4-core box.  Wall-clock TEPS cannot speed up past p = 4, so the shape
/// quantity is per-rank bottleneck work: near-flat max-rank delivered visitors and
/// per-rank traversed edges == good weak scaling.  A level-synchronous
/// comparison point is fig12 (edge-list vs 1D).
#include "bench_common.hpp"

int main() {
  sfg::bench::reporter rep(
      "fig05_bfs_weak_scaling", "paper Figure 5",
      "Weak scaling of async BFS; RMAT, 2^11 vertices (2^15 dir. edges) per "
      "rank, ghosts=256, 3D-routed mailbox");

  sfg::util::table t({"p", "scale", "edges", "time_s", "MTEPS",
                      "edges/rank", "max_rank_delivered", "balance"});
  for (const int p : {1, 2, 4, 8, 16}) {
    const unsigned scale =
        11 + sfg::util::log2_floor(static_cast<std::uint64_t>(p));
    sfg::gen::rmat_config cfg{.scale = scale, .edge_factor = 16, .seed = 5};
    sfg::bench::bfs_measurement best{};
    sfg::runtime::launch(p, [&](sfg::runtime::comm& c) {
      auto g = sfg::graph::build_in_memory_graph(
          c, sfg::bench::rmat_slice_for(cfg, c.rank(), p),
          {.num_ghosts = 256});
      sfg::core::queue_config qcfg;
      qcfg.topo = sfg::mailbox::topology::torus3d;
      const auto source = sfg::bench::pick_source(g);
      // Two trials, keep the faster (first pass warms allocators).
      auto m1 = sfg::bench::measure_bfs(g, source, qcfg);
      auto m2 = sfg::bench::measure_bfs(g, source, qcfg);
      if (c.rank() == 0) best = m2.seconds < m1.seconds ? m2 : m1;
      c.barrier();
    });
    const double balance =
        best.total_delivered > 0
            ? static_cast<double>(best.max_rank_delivered) /
                  (static_cast<double>(best.total_delivered) / p)
            : 1.0;
    t.row()
        .add(p)
        .add(static_cast<std::uint64_t>(scale))
        .add(cfg.num_edges())
        .add(best.seconds, 3)
        .add(best.teps() / 1e6, 3)
        .add(best.traversed_edges / static_cast<std::uint64_t>(p))
        .add(best.max_rank_delivered)
        .add(balance, 3);
  }
  t.print(std::cout);
  rep.add_table("main", t);
  std::cout << "\nShape check vs paper: per-rank work (edges/rank, "
               "max_rank_delivered) stays near-flat under weak scaling and "
               "the bottleneck/mean balance stays near 1 — the property "
               "that produced the paper's near-linear GTEPS curve.  "
               "(Wall-clock TEPS cannot scale once p exceeds the core "
               "count; see DESIGN.md §2.)\n";
  return 0;
}
