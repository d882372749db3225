/// \file chaos_harness.hpp
/// Randomized chaos harness for the visitor algorithms: runs a distributed
/// traversal across a sweep of seeded fault schedules (runtime/fault.hpp)
/// and cross-validates every result against sfg::reference — turning each
/// algorithm into a property test whose adversary is the transport.
///
/// Each sweep seed deterministically derives
///   - a transport fault schedule (delay / reorder / duplicate / stall
///     probabilities and magnitudes, via fault_params::chaos), and
///   - a queue configuration (routing topology, aggregation threshold,
///     batch size, ghost toggle, tie-break) via make_schedule,
/// so one seed names a complete adversarial regime.
///
/// Reproducing a failure: every check runs under a SCOPED_TRACE naming the
/// seed, so a failing run prints a line like
///     reproduce with: SFG_CHAOS_SEED=1234567 ./test_chaos
///         --gtest_filter=Chaos.BfsSeedSweep
/// Setting SFG_CHAOS_SEED makes every sweep run exactly that one schedule.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/visitor_queue.hpp"
#include "gen/edge.hpp"
#include "gen/generators.hpp"
#include "obs/events.hpp"
#include "runtime/fault.hpp"
#include "runtime/runtime.hpp"
#include "util/chaos.hpp"

namespace sfg::chaos {

/// One complete adversarial regime, derived from a single seed.
struct schedule {
  std::uint64_t seed = 0;
  runtime::fault_params faults;   ///< transport + stall faults for the world
  core::queue_config queue;       ///< queue knobs (faults threaded through)
};

inline schedule make_schedule(std::uint64_t seed) {
  schedule s;
  s.seed = seed;
  s.faults = runtime::fault_params::chaos(seed);

  util::chaos_stream knobs(seed, /*stream_id=*/0x10B05);
  core::queue_config q;
  constexpr mailbox::topology kTopos[] = {
      mailbox::topology::direct, mailbox::topology::grid2d,
      mailbox::topology::torus3d};
  q.topo = kTopos[knobs.below(3)];
  q.aggregation_bytes = std::size_t{1} << (4 + knobs.below(10));  // 16 B .. 8 KiB
  q.batch_size = 1 + static_cast<int>(knobs.below(64));
  q.use_ghosts = knobs.decide(0.5);
  q.tiebreak = knobs.decide(0.5) ? core::order_tiebreak::vertex_locality
                                 : core::order_tiebreak::scrambled;
  q.faults = s.faults;
  s.queue = q;
  return s;
}

/// SFG_CHAOS_SEED pins a sweep to one schedule (failure reproduction).
inline std::optional<std::uint64_t> env_seed() {
  if (const char* e = std::getenv("SFG_CHAOS_SEED")) {
    return std::strtoull(e, nullptr, 0);
  }
  return std::nullopt;
}

struct sweep_config {
  int ranks = 4;
  int num_seeds = 32;
  std::uint64_t base_seed = 0xC4A05BA5Eu;
};

/// Run `body(comm&, schedule)` once per sweep seed, inside a world whose
/// transport runs the seed's fault schedule.  `body` executes on every
/// rank; use gtest EXPECT_*/ASSERT_* inside to record failures.
template <typename Body>
void run_sweep(const sweep_config& cfg, Body&& body) {
  std::vector<std::uint64_t> seeds;
  if (const auto pinned = env_seed()) {
    seeds.push_back(*pinned);
  } else {
    for (int i = 0; i < cfg.num_seeds; ++i) {
      seeds.push_back(util::splitmix64(cfg.base_seed + static_cast<std::uint64_t>(i)));
    }
  }
  for (const std::uint64_t seed : seeds) {
    const schedule s = make_schedule(seed);
    SCOPED_TRACE("reproduce with: SFG_CHAOS_SEED=" + std::to_string(seed) +
                 " (pins the sweep to this fault schedule)");
    runtime::launch(
        cfg.ranks, [&](runtime::comm& c) { body(c, s); }, runtime::net_params{},
        s.faults);
    if (::testing::Test::HasFailure()) {
      // Black-box moment: the failing schedule's last events are still in
      // the per-rank rings.  Dump them (no-op without SFG_FLIGHT_DUMP) and
      // stop the sweep so later seeds don't overwrite the evidence.
      obs::flight_dump("chaos-failure");
      return;
    }
  }
}

/// This rank's contiguous slice of a shared edge list (the standard
/// edge-partitioned test setup).
inline std::vector<gen::edge64> slice_edges(const std::vector<gen::edge64>& edges,
                                            int rank, int p) {
  const auto range = gen::slice_for_rank(edges.size(), rank, p);
  return {edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
          edges.begin() + static_cast<std::ptrdiff_t>(range.end)};
}

}  // namespace sfg::chaos
