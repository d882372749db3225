/// \file micro_flight.cpp
/// Event-ring and trace-sampling gate microbenches: the ring (the flight
/// recorder) is ON by default in production, so its steady-state record cost is a
/// first-class hot-path number; the disabled paths (recorder off, trace
/// sampling with tracing off) must collapse to a single predictable
/// branch.  Batches of 64 events match the other micro suites.
#include <cstdint>

#include "micro_harness.hpp"
#include "obs/events.hpp"
#include "obs/trace_context.hpp"

namespace {

using namespace sfg;  // NOLINT: bench-local convenience

constexpr int kBatch = 64;

/// Steady-state recording: ring + thread cache warm, 4 relaxed stores and
/// one relaxed fetch_add per event.
void bench_record_on(micro::suite& s) {
  s.run("flight/record/on", kBatch, [](std::uint64_t iters) {
    obs::set_events_enabled(true);
    obs::event_mark(obs::event_kind::queue_batch);  // warm ring + cache
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        obs::event_mark(obs::event_kind::queue_batch,
                        it + static_cast<std::uint64_t>(i), 42);
      }
    }
    micro::keep(obs::events_recorded_here());
    obs::events_clear();
  });
}

/// The disabled gate: one relaxed load + branch per call site.
void bench_record_off(micro::suite& s) {
  s.run("flight/record/off", kBatch, [](std::uint64_t iters) {
    obs::set_events_enabled(false);
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        obs::event_mark(obs::event_kind::queue_batch,
                        it + static_cast<std::uint64_t>(i), 42);
      }
    }
    obs::set_events_enabled(true);
    micro::keep(iters);
  });
}

/// The sampling decision with tracing off — the cost every visitor push
/// pays when causal tracing is not in use.  Must be branch-cheap.
void bench_sample_gate_off(micro::suite& s) {
  s.run("flight/sample_gate/trace_off", kBatch, [](std::uint64_t iters) {
    obs::set_trace_enabled(false);
    obs::set_trace_sample_rate(8);
    std::uint64_t sink = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        sink |= obs::sample_trace_ctx(0, it + static_cast<std::uint64_t>(i));
      }
    }
    obs::set_trace_sample_rate(0);
    micro::keep(sink);
  });
}

}  // namespace

int main() {
  micro::suite s("micro_flight",
                 "event-ring record cost (enabled steady state and "
                 "disabled gate) and the trace-sampling decision with "
                 "tracing off (batches of 64)");
  bench_record_on(s);
  bench_record_off(s);
  bench_sample_gate_off(s);
  return 0;
}
