#include "obs/phase.hpp"

#include <chrono>

#include "obs/events.hpp"
#include "obs/trace.hpp"

namespace sfg::obs {

namespace {

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-thread (= per-rank) profiler state.  Single writer, read only from
/// the owning thread — no atomics needed.
struct phase_tls {
  std::uint64_t self_ns[kPhaseCount] = {};
  std::uint64_t entries[kPhaseCount] = {};

  struct frame {
    std::uint8_t ph;
    std::uint64_t start_ns;
    std::uint64_t child_ns;  ///< wall time of already-closed child scopes
  };
  static constexpr int kMaxPhaseDepth = 16;
  frame stack[kMaxPhaseDepth];
  int depth = 0;
  /// Start of the currently-running self-time segment (events.hpp).
  /// seg_open flags it explicitly: trace_now_us() legitimately returns 0
  /// at the very first call of a process (the call defines the epoch), so
  /// the timestamp itself cannot double as the sentinel.
  std::uint64_t seg_start_us = 0;
  bool seg_open = false;
};

phase_tls& tls() noexcept {
  thread_local phase_tls t;
  return t;
}

}  // namespace

const char* phase_name(phase p) noexcept {
  switch (p) {
    case phase::visit: return "visit";
    case phase::scan: return "scan";
    case phase::mbox_pack: return "mbox_pack";
    case phase::mbox_flush: return "mbox_flush";
    case phase::poll: return "poll";
    case phase::term: return "term";
    case phase::io_wait: return "io_wait";
    case phase::idle: return "idle";
  }
  return "unknown";
}

namespace detail {

bool phase_enter(phase p) noexcept {
  phase_tls& t = tls();
  if (t.depth >= phase_tls::kMaxPhaseDepth) return false;
  if (spans_on()) {
    // Entering a child ends the parent's running self-time segment: the
    // full set of closed segments is an exact, non-overlapping partition
    // of this rank's phased wall time, which is what the critical-path
    // analyzer walks (critpath.cpp).
    const std::uint64_t now = trace_now_us();
    if (t.depth > 0 && t.seg_open && now > t.seg_start_us) {
      event_record(event_kind::phase_seg, t.seg_start_us, now,
                   t.stack[t.depth - 1].ph,
                   static_cast<std::uint64_t>(t.depth - 1));
    }
    t.seg_start_us = now;
    t.seg_open = true;
  }
  t.stack[t.depth++] = {static_cast<std::uint8_t>(p), now_ns(), 0};
  return true;
}

void phase_exit() noexcept {
  phase_tls& t = tls();
  if (t.depth == 0) return;  // toggled mid-scope; drop rather than corrupt
  const phase_tls::frame f = t.stack[--t.depth];
  if (spans_on()) {
    const std::uint64_t now = trace_now_us();
    if (t.seg_open && now > t.seg_start_us) {
      event_record(event_kind::phase_seg, t.seg_start_us, now, f.ph,
                   static_cast<std::uint64_t>(t.depth));
    }
    // The parent's self-time segment restarts; at depth 0 nothing runs.
    t.seg_start_us = now;
    t.seg_open = t.depth > 0;
  }
  const std::uint64_t end = now_ns();
  const std::uint64_t dur = end > f.start_ns ? end - f.start_ns : 0;
  const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  t.self_ns[f.ph] += self;
  ++t.entries[f.ph];
  if (t.depth > 0) t.stack[t.depth - 1].child_ns += dur;
}

}  // namespace detail

phase_stats phase_snapshot() noexcept {
  const phase_tls& t = tls();
  phase_stats s;
  s.visit_ns = t.self_ns[static_cast<std::size_t>(phase::visit)];
  s.scan_ns = t.self_ns[static_cast<std::size_t>(phase::scan)];
  s.mbox_pack_ns = t.self_ns[static_cast<std::size_t>(phase::mbox_pack)];
  s.mbox_flush_ns = t.self_ns[static_cast<std::size_t>(phase::mbox_flush)];
  s.poll_ns = t.self_ns[static_cast<std::size_t>(phase::poll)];
  s.term_ns = t.self_ns[static_cast<std::size_t>(phase::term)];
  s.io_wait_ns = t.self_ns[static_cast<std::size_t>(phase::io_wait)];
  s.idle_ns = t.self_ns[static_cast<std::size_t>(phase::idle)];
  return s;
}

std::uint64_t phase_entries(phase p) noexcept {
  return tls().entries[static_cast<std::size_t>(p)];
}

void phase_clear_thread() noexcept {
  phase_tls& t = tls();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    t.self_ns[i] = 0;
    t.entries[i] = 0;
  }
  t.depth = 0;
  t.seg_start_us = 0;
  t.seg_open = false;
}

}  // namespace sfg::obs
