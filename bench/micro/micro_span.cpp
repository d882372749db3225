/// \file micro_span.cpp
/// Span-lens microbenches over the event ring (obs/events.hpp).  The
/// record/mark pair is the shape the span lens adds to a traversal — an
/// interval per phase transition next to the mailbox markers — so the
/// *disabled* cost (ring off) is the number CI gates hardest: one relaxed
/// load + branch per call, no clock read.  The enabled steady state (one
/// clock read + four relaxed stores into a slot) and the
/// phase-scope-with-spans shape (two segments per nested pair) are
/// tracked so accounting regressions show up too.
#include <cstdint>

#include "micro_harness.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace {

using namespace sfg;  // NOLINT: bench-local convenience

constexpr int kBatch = 64;

/// Ring off: event_record and event_mark collapse to the events_on()
/// branch; event_mark must not even read the clock.
void bench_record_off(micro::suite& s) {
  s.run("span/record/off", kBatch, [](std::uint64_t iters) {
    obs::set_events_enabled(false);
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        obs::event_record(obs::event_kind::phase_seg, 1, 2, 3, 0);
        obs::event_mark(obs::event_kind::mbox_flush, 1,
                        static_cast<std::uint64_t>(i));
      }
    }
    obs::set_events_enabled(true);
    micro::keep(obs::events_recorded_here());
  });
}

/// Enabled steady state: ring slot claim (one relaxed fetch_add) + four
/// relaxed stores; the marker adds one trace_now_us() clock read.
void bench_record_on(micro::suite& s) {
  s.run("span/record/on", kBatch, [](std::uint64_t iters) {
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        obs::event_record(obs::event_kind::phase_seg, 1, 2, 3, 0);
        obs::event_mark(obs::event_kind::mbox_packet, 0,
                        static_cast<std::uint64_t>(i));
      }
    }
    micro::keep(obs::events_recorded_here());
    obs::events_clear();
  });
}

/// phase_scope with spans armed: the enter/exit hooks close and open
/// self-time segments, so each nested pair costs two clock reads plus two
/// ring appends on top of the plain scope.
void bench_phase_scope_spans_on(micro::suite& s) {
  s.run("span/phase_scope/on", kBatch, [](std::uint64_t iters) {
    obs::set_metrics_enabled(false);
    obs::set_spans_enabled(true);
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        const obs::phase_scope outer(obs::phase::visit);
        const obs::phase_scope inner(obs::phase::scan);
      }
    }
    obs::set_spans_enabled(false);
    micro::keep(obs::events_recorded_here());
    obs::events_clear();
    obs::phase_clear_thread();
  });
}

}  // namespace

int main() {
  micro::suite s("micro_span",
                 "span-lens cost on the event ring (disabled gate, "
                 "enabled record/marker steady state, phase-scope segment "
                 "hooks) in batches of 64");
  bench_record_off(s);
  bench_record_on(s);
  bench_phase_scope_spans_on(s);
  return 0;
}
