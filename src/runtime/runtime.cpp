#include "runtime/runtime.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "util/log.hpp"

namespace sfg::runtime {

void launch(int num_ranks, const std::function<void(comm&)>& rank_main,
            net_params net, fault_params faults) {
  world w(num_ranks, net, faults);

  std::mutex failure_mu;
  std::exception_ptr primary_failure;    // a rank's own exception
  std::exception_ptr secondary_failure;  // barrier_poisoned fallout

  auto run_rank = [&](int rank) {
    util::set_thread_rank(rank);
    try {
      rank_main(w.rank_comm(rank));
    } catch (const barrier_poisoned&) {
      // Collateral of some other rank's failure; keep only as fallback.
      const std::scoped_lock lock(failure_mu);
      if (!secondary_failure) secondary_failure = std::current_exception();
    } catch (...) {
      {
        const std::scoped_lock lock(failure_mu);
        if (!primary_failure) primary_failure = std::current_exception();
      }
      // Black-box moment: record the fault and dump every rank's event
      // ring (no-op unless a dump path is configured) *before* poisoning,
      // so the dump captures the rings as the fault found them.
      obs::event_mark(obs::event_kind::rank_fault,
                      static_cast<std::uint64_t>(rank));
      obs::flight_dump("rank-fault");
      // Unblock every rank stuck in a collective so the join below
      // completes; they observe barrier_poisoned and unwind.
      w.poison();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back(run_rank, r);
  }
  for (auto& t : threads) t.join();

  if (primary_failure) std::rethrow_exception(primary_failure);
  if (secondary_failure) std::rethrow_exception(secondary_failure);
}

}  // namespace sfg::runtime
