/// \file quickstart.cpp
/// Five-minute tour of the sfg library:
///   1. spin up the in-process distributed runtime (8 ranks)
///   2. generate a scale-free RMAT graph, one slice per rank
///   3. build the edge-list partitioned distributed graph
///   4. run asynchronous BFS from a random source
///   5. print levels histogram + traversal statistics
///
/// Usage: quickstart [scale] [num_ranks]     (defaults: 14, 8)
#include <cstdlib>
#include <iostream>

#include "core/bfs.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "runtime/runtime.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const unsigned scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 14;
  const int num_ranks = argc > 2 ? std::atoi(argv[2]) : 8;

  // Graph500-flavored RMAT: 2^scale vertices, 16 edges per vertex.
  sfg::gen::rmat_config rmat{.scale = scale, .edge_factor = 16, .seed = 42};
  std::cout << "RMAT scale " << scale << ": " << rmat.num_vertices()
            << " vertices, " << rmat.num_edges() << " (undirected) edges on "
            << num_ranks << " ranks\n";

  sfg::util::log2_histogram level_hist;
  std::uint64_t reached = 0;
  sfg::core::traversal_stats stats{};
  double build_s = 0;
  double bfs_s = 0;

  sfg::runtime::launch(num_ranks, [&](sfg::runtime::comm& comm) {
    // 1. every rank generates its slice of the global edge list.
    const auto range =
        sfg::gen::slice_for_rank(rmat.num_edges(), comm.rank(), comm.size());
    auto edges = sfg::gen::rmat_slice(rmat, range.begin, range.end);

    // 2. collective build: sort, partition, relabel, pick ghosts.
    sfg::util::timer t;
    auto graph = sfg::graph::build_in_memory_graph(comm, std::move(edges),
                                                   {.num_ghosts = 128});
    if (comm.rank() == 0) build_s = t.elapsed_s();

    // 3. BFS from vertex 0 (locate() maps global id -> locator).
    const auto source = graph.locate(0);
    t.reset();
    auto bfs = sfg::core::run_bfs(graph, source, {});
    if (comm.rank() == 0) bfs_s = t.elapsed_s();

    // 4. aggregate results on rank 0.
    std::uint64_t local_reached = 0;
    for (std::size_t s = 0; s < graph.num_slots(); ++s) {
      if (graph.is_master(s) && bfs.state.local(s).reached()) {
        ++local_reached;
        if (comm.rank() == 0) {
          // histogram sampled from rank 0's masters only (illustration)
          level_hist.add(bfs.state.local(s).level);
        }
      }
    }
    reached = comm.all_reduce(local_reached, std::plus<>());
    if (comm.rank() == 0) stats = bfs.stats;
  });

  std::cout << "graph build: " << build_s << " s\n"
            << "BFS:         " << bfs_s << " s, reached " << reached
            << " vertices\n"
            << "rank-0 BFS level histogram (log2 buckets):\n"
            << level_hist.to_string();

  sfg::util::table t({"stat", "rank 0 value"});
  t.row().add("visitors pushed").add(stats.visitors_pushed);
  t.row().add("visitors sent").add(stats.visitors_sent);
  t.row().add("visitors executed").add(stats.visitors_executed);
  t.row().add("filtered by ghosts").add(stats.ghost_filtered);
  t.row().add("filtered by send cache").add(stats.cache_filtered);
  t.row().add("termination waves").add(std::uint64_t{stats.termination_waves});
  t.print(std::cout);
  return 0;
}
