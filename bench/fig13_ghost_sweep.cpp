/// Figure 13 — Percent BFS improvement from k ghost vertices per
/// partition vs none (paper: 2^30 vertices on 4096 BG/P cores; one ghost
/// already gives >12%, 512 ghosts 19.5%; all other BFS experiments use
/// 256 ghosts/partition).
///
/// Ghosts pay off by removing *network traffic* to hub masters.  This
/// repo's in-process transport is nearly free, so the bench enables the
/// runtime's simulated interconnect cost (DESIGN.md §2) — sends charge
/// the modeled injection time a real NIC would — and additionally
/// reports the raw mechanism: pushes filtered locally and total records
/// that hit the wire.
///
/// The k sweep runs with the visitor queue's send cache off
/// (queue_config::send_cache_slots = 0), so it measures the paper's
/// ghosts alone.  One extra row turns the cache on at k = 256: the cache
/// filters pushes toward every remote vertex, not only the top-k hubs.
#include "bench_common.hpp"

int main() {
  sfg::bench::reporter rep(
      "fig13_ghost_sweep", "paper Figure 13",
      "BFS improvement vs ghosts-per-partition k; RMAT 2^14 vertices, "
      "p = 8, simulated interconnect (paper: +12% at k=1, +19.5% at "
      "k=512)");

  constexpr int kRanks = 8;
  sfg::gen::rmat_config cfg{.scale = 14, .edge_factor = 16, .seed = 13};
  // Injection cost model: ~2us per packet + 40ns per byte — enough that
  // communication dominates like it does at BG/P scale.
  const sfg::runtime::net_params net{std::chrono::nanoseconds(2000),
                                     std::chrono::nanoseconds(40)};

  sfg::util::table t({"ghosts_k", "send_cache", "time_s", "MTEPS",
                      "improvement_%", "ghost_filtered", "cache_filtered",
                      "records_on_wire", "traffic_reduction_%"});
  double base_teps = 0;
  std::uint64_t base_records = 0;
  auto run = [&](std::uint32_t k, bool cache) {
    sfg::core::queue_config qcfg;
    if (!cache) qcfg.send_cache_slots = 0;
    sfg::bench::bfs_measurement m{};
    sfg::runtime::launch(
        kRanks,
        [&](sfg::runtime::comm& c) {
          auto g = sfg::graph::build_in_memory_graph(
              c, sfg::bench::rmat_slice_for(cfg, c.rank(), kRanks),
              {.num_ghosts = k});
          const auto source = sfg::bench::pick_source(g);
          auto m1 = sfg::bench::measure_bfs(g, source, qcfg);
          auto m2 = sfg::bench::measure_bfs(g, source, qcfg);
          if (c.rank() == 0) m = m2.seconds < m1.seconds ? m2 : m1;
          c.barrier();
        },
        net);
    if (k == 0) {
      base_teps = m.teps();
      base_records = m.total_records_sent;
    }
    const double improvement =
        base_teps > 0 ? 100.0 * (m.teps() / base_teps - 1.0) : 0;
    const double traffic_cut =
        base_records > 0
            ? 100.0 * (1.0 - static_cast<double>(m.total_records_sent) /
                                 static_cast<double>(base_records))
            : 0;
    t.row()
        .add(static_cast<std::uint64_t>(k))
        .add(cache ? "on" : "off")
        .add(m.seconds, 3)
        .add(m.teps() / 1e6, 3)
        .add(improvement, 1)
        .add(m.ghost_filtered)
        .add(m.cache_filtered)
        .add(m.total_records_sent)
        .add(traffic_cut, 1);
  };
  for (const std::uint32_t k : {0u, 1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u,
                                256u, 512u}) {
    run(k, false);
  }
  run(256, true);
  t.print(std::cout);
  rep.add_table("main", t);
  std::cout << "\nShape check vs paper: even one ghost filters a large "
               "share of hub-bound visitors; improvement grows with k and "
               "saturates quickly because only a few hubs matter in a "
               "scale-free graph.  The send-cache row extends the same "
               "filter to every remote vertex.\n";
  return 0;
}
