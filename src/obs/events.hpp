/// \file events.hpp
/// The per-rank event ring (DESIGN.md §9): a fixed-capacity, zero-alloc
/// ring of the last N runtime events per rank, one record per site, read
/// through two views:
///   * the flight dump (`sfg-flight/1`, flight_to_json) — every rank's
///     whole ring, the black box dumped on a rank fault caught by
///     runtime::launch, a chaos-harness failure, SIGABRT/SIGTERM (when
///     SFG_FLIGHT_DUMP is set) or an explicit flight_dump();
///   * the critical-path fragment (critpath_fragment) — the calling
///     rank's critical-path kinds inside its last traversal window, which
///     the traversal lifecycle gathers for critpath.hpp.
/// On by default: one relaxed fetch_add and four relaxed stores into a
/// 32-byte slot per event.  Phase self-time segments cost a clock read per
/// phase transition, so phase.cpp records them only under SFG_SPANS.
///
/// Each ring has a single writer (its rank's thread); slots are relaxed
/// atomics so a dump taken from another thread or a signal handler reads
/// cleanly — at worst an in-flight event is field-torn, the accepted
/// black-box tradeoff.  Timestamps are trace_now_us() (trace.hpp): one
/// process-wide epoch, so cross-rank comparisons need no alignment.
///
/// Environment switches:
///   SFG_EVENTS=<n>         ring capacity per rank, rounded up to a power
///                          of two; 0 disables the ring and the span lens.
///                          Default 1024, or 32768 with SFG_SPANS
///   SFG_FLIGHT_DUMP=<path> where flight dumps land: a .json file, or a
///                          directory (per-process sfg_flight_<pid>.json);
///                          also installs SIGABRT/SIGTERM dump handlers
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace sfg::obs {

/// What happened.  Emitted by name, so values are stable within a dump.
/// The kinds up to phase_seg are the critical-path kinds: the critpath
/// fragment keeps only those.
enum class event_kind : std::uint8_t {
  traversal_begin,  ///< a = traversal ordinal, b = nranks
  traversal_end,    ///< a = visitors executed (this rank), b = wall us
  bfs_level,        ///< level barrier passed: a = level, b = bottom_up
  mbox_flush,       ///< packet handed to comm: a = next hop, b = packet seq
  mbox_packet,      ///< packet accepted: a = source rank, b = packet seq
  phase_seg,        ///< self-time interval: a = phase id, b = stack depth
  queue_batch,      ///< a = visitors executed in the batch, b = queue depth after
  mbox_dup_drop,    ///< a = source rank, b = duplicate seq
  mbox_reject,      ///< a = source rank, b = packet bytes
  term_wave,        ///< a = wave ordinal
  term_report,      ///< a = sent count, b = received count
  term_done,        ///< a = wave ordinal that proved quiescence
  fault_stall,      ///< a = stall us (injected mid-traversal stall)
  fault_duplicate,  ///< a = destination rank (injected duplicated packet)
  fault_delay,      ///< a = destination rank, b = delay us (injected)
  rank_fault,       ///< a = rank that threw; recorded just before poison
  mem_pressure,     ///< a = level entered (mem_pressure_level), b = accounted bytes
};

[[nodiscard]] const char* event_kind_name(event_kind k) noexcept;

namespace detail {

/// Out-of-line halves of event_mark / event_record: resolve this thread's
/// ring (thread-local cache, invalidated by a generation counter so
/// set_event_capacity never leaves a dangling pointer) and append.  Never
/// allocate after the ring exists; a rank's first event allocates its
/// ring once.  event_append stamps trace_now_us() itself.
void event_append(event_kind k, std::uint64_t a, std::uint64_t b) noexcept;
void event_append_interval(event_kind k, std::uint64_t t0_us,
                           std::uint64_t t1_us, std::uint64_t a,
                           std::uint64_t b) noexcept;

/// Charge every live ring to the memory ledger again; mem_clear() calls
/// it after zeroing, so live rings stay accounted across a clear.
void events_recharge();

}  // namespace detail

/// The cached-bool gate.  Defaults to ON (the ring is the black box — it
/// must already be running when the fault happens).
[[nodiscard]] inline bool events_on() noexcept {
  return detail::toggles().events.load(std::memory_order_relaxed);
}

void set_events_enabled(bool on);

/// Ring capacity per rank (power of two).
[[nodiscard]] std::size_t event_capacity();
/// Change capacity; existing rings are discarded (capacity must apply
/// uniformly for the drop accounting to be meaningful).  Setup/test-time
/// only — must not race live writers.
void set_event_capacity(std::size_t cap);

/// Record a zero-length event stamped now.  Disabled: one branch, no
/// clock read.
inline void event_mark(event_kind k, std::uint64_t a = 0,
                       std::uint64_t b = 0) noexcept {
  if (!events_on()) return;
  detail::event_append(k, a, b);
}

/// Record the interval [t0_us, t1_us).  Disabled: one branch.
inline void event_record(event_kind k, std::uint64_t t0_us,
                         std::uint64_t t1_us, std::uint64_t a = 0,
                         std::uint64_t b = 0) noexcept {
  if (!events_on()) return;
  detail::event_append_interval(k, t0_us, t1_us, a, b);
}

/// Drop all recorded events in place (rings and cached pointers stay
/// valid).  Tests use this between scenarios.
void events_clear();

/// Total events recorded by the calling thread's rank since the last
/// clear (including overwritten ones) — test hook for wrap-around.
[[nodiscard]] std::uint64_t events_recorded_here() noexcept;

/// The flight view, every rank's whole ring as an `sfg-flight/1` document:
///   {"schema": "sfg-flight/1", "why": why, "capacity": N,
///    "ranks": [{"rank": r, "recorded": n, "dropped": d,
///               "events": [{"ts_us", "kind", "a", "b"[, "dur_us"]}, ...]}]}
/// Events per rank are oldest-to-newest among those still in the ring;
/// intervals carry their length as "dur_us".
[[nodiscard]] json flight_to_json(const std::string& why);

/// Serialize to an explicit path.  Returns false if the file can't open.
bool flight_write(const std::string& path, const std::string& why);

/// Serialize to the configured dump location (SFG_FLIGHT_DUMP or
/// set_flight_dump_path); silently a no-op when none is configured, so
/// fault paths can call it unconditionally without littering test runs.
void flight_dump(const std::string& why);

/// Where flight_dump writes ("" = nowhere).  A directory gets a
/// per-process sfg_flight_<pid>.json inside it.
[[nodiscard]] std::string flight_dump_path();
void set_flight_dump_path(std::string path);

/// The critical-path view of the calling rank's ring, as one fragment for
/// the collective gather (critpath.hpp): the rank entry of the flight
/// view, keeping only critical-path kinds from the last traversal_begin
/// on.  A ring that lost that marker yields no events, with its "dropped"
/// count saying why.
[[nodiscard]] json critpath_fragment();

}  // namespace sfg::obs
