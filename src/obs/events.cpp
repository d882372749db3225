#include "obs/events.hpp"

#include <unistd.h>

#include <bit>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace sfg::obs {

namespace {

/// Default capacities: the black box alone, and with the span lens on —
/// room for its phase segments on top of the black-box events.
constexpr std::size_t kFlightEvents = 1024;
constexpr std::size_t kSpanEvents = 16384;

/// One event in 32 bytes, stored as relaxed atomics so a dump taken while
/// the owning rank is still writing is a clean (if possibly field-torn)
/// read.  `meta` packs the kind into its low byte and the interval length
/// in microseconds above it (0 for a point event).
struct event_slot {
  std::atomic<std::uint64_t> ts_us{0};
  std::atomic<std::uint64_t> meta{0};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
};
static_assert(sizeof(event_slot) == 32);

/// Single-writer ring: the owning rank appends, anyone may snapshot.
struct event_ring {
  event_ring(std::size_t cap, int rank_) : slots(cap), mask(cap - 1), rank(rank_) {}
  std::vector<event_slot> slots;
  std::size_t mask;
  int rank;
  std::atomic<std::uint64_t> head{0};  ///< total events ever recorded
  std::uint64_t charged = 0;  ///< bytes on the memory ledger (registry mutex)
};

extern "C" void flight_signal_handler(int sig) {
  // Best-effort black-box dump on the way down; not strictly
  // async-signal-safe, but the process is terminating anyway.
  flight_dump(sig == SIGTERM ? "sigterm" : "sigabrt");
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

struct event_globals {
  event_globals() {
    const std::size_t env_cap = detail::toggles().event_capacity;
    capacity = std::bit_ceil(env_cap > 0   ? env_cap
                             : spans_on() ? kSpanEvents + kFlightEvents
                                          : kFlightEvents);
    if (const char* env = std::getenv("SFG_FLIGHT_DUMP");
        env != nullptr && *env != '\0') {
      dump_path = env;
      std::signal(SIGTERM, &flight_signal_handler);
      std::signal(SIGABRT, &flight_signal_handler);
    }
  }
  std::mutex mu;
  /// Indexed by rank + 1 (slot 0 is the non-rank main thread).  Rings are
  /// reused across launches so repeated traversals don't reallocate.
  std::vector<std::unique_ptr<event_ring>> rings;
  std::size_t capacity = kFlightEvents;
  std::string dump_path;
};

/// Bumped when rings are rebuilt (capacity change); invalidates the
/// per-thread cached ring pointers.  Outside event_globals so the append
/// path reads it without the function-local static's guard.
constinit std::atomic<std::uint64_t> ring_gen{1};

event_globals& globals() {
  static event_globals g;
  return g;
}

/// The one place ring bytes reach the memory ledger, under the registry
/// mutex: a live ring is charged to its own rank once attribution is on,
/// and released when discarded.  mem_apply never calls back into the ring
/// (pressure transitions are queued for the poll).
void charge_locked(event_ring& r, bool live) {
  const std::uint64_t bytes = live ? r.slots.size() * sizeof(event_slot) : 0;
  if (bytes == r.charged || (bytes > r.charged && !mem_on())) return;
  detail::mem_apply(detail::mem_slots_for(r.rank), mem_subsystem::obs,
                    static_cast<std::int64_t>(bytes) -
                        static_cast<std::int64_t>(r.charged));
  r.charged = bytes;
}

/// Resolve (creating on first use) `rank`'s ring.  Runs once per thread
/// per generation — at every rank's first event of a launch — so it also
/// charges a ring that predates attribution being switched on.
event_ring* ring_for_rank(int rank) {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  const auto idx = static_cast<std::size_t>(rank + 1);
  if (g.rings.size() <= idx) g.rings.resize(idx + 1);
  if (!g.rings[idx]) g.rings[idx] = std::make_unique<event_ring>(g.capacity, rank);
  charge_locked(*g.rings[idx], true);
  return g.rings[idx].get();
}

void append(event_kind k, std::uint64_t ts_us, std::uint64_t dur_us,
            std::uint64_t a, std::uint64_t b) noexcept {
  // Per-thread ring cache: resolving takes the registry mutex, so it
  // happens once per thread per generation, never on the steady path.
  struct cache_t {
    std::uint64_t gen = 0;
    event_ring* ring = nullptr;
  };
  thread_local cache_t cache;
  const std::uint64_t gen = ring_gen.load(std::memory_order_acquire);
  if (cache.gen != gen || cache.ring == nullptr) {
    cache.ring = ring_for_rank(util::thread_rank());
    cache.gen = gen;
  }
  event_ring& r = *cache.ring;
  const std::uint64_t i = r.head.fetch_add(1, std::memory_order_relaxed);
  event_slot& s = r.slots[i & r.mask];
  s.ts_us.store(ts_us, std::memory_order_relaxed);
  s.meta.store(static_cast<std::uint64_t>(k) | dur_us << 8,
               std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
}

/// One rank's ring as a flight-view rank entry.  `critpath_window` keeps
/// only the critical-path kinds from the last traversal_begin on.
json rank_json(const event_ring& r, bool critpath_window) {
  const std::uint64_t recorded = r.head.load(std::memory_order_relaxed);
  const std::uint64_t cap = r.slots.size();
  const std::uint64_t dropped = recorded > cap ? recorded - cap : 0;
  json entry = json::object();
  entry["rank"] = static_cast<std::int64_t>(r.rank);
  entry["recorded"] = recorded;
  entry["dropped"] = dropped;
  std::uint64_t first = dropped;
  if (critpath_window) {
    first = recorded;  // no begin marker in the ring: no window
    for (std::uint64_t i = recorded; i > dropped; --i) {
      const std::uint64_t meta =
          r.slots[(i - 1) & r.mask].meta.load(std::memory_order_relaxed);
      if (static_cast<event_kind>(meta & 0xff) == event_kind::traversal_begin) {
        first = i - 1;
        break;
      }
    }
  }
  json events = json::array();
  for (std::uint64_t i = first; i < recorded; ++i) {
    const event_slot& s = r.slots[i & r.mask];
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    const auto kind = static_cast<event_kind>(meta & 0xff);
    if (critpath_window && kind > event_kind::phase_seg) continue;
    json ev = json::object();
    ev["ts_us"] = s.ts_us.load(std::memory_order_relaxed);
    ev["kind"] = event_kind_name(kind);
    ev["a"] = s.a.load(std::memory_order_relaxed);
    ev["b"] = s.b.load(std::memory_order_relaxed);
    if ((meta >> 8) != 0) ev["dur_us"] = meta >> 8;
    events.push_back(std::move(ev));
  }
  entry["events"] = std::move(events);
  return entry;
}

}  // namespace

const char* event_kind_name(event_kind k) noexcept {
  static constexpr const char* kNames[] = {
      "traversal_begin", "traversal_end",   "bfs_level",   "mbox_flush",
      "mbox_packet",     "phase_seg",       "queue_batch", "mbox_dup_drop",
      "mbox_reject",     "term_wave",       "term_report", "term_done",
      "fault_stall",     "fault_duplicate", "fault_delay", "rank_fault",
      "mem_pressure"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(event_kind::mem_pressure) + 1);
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

namespace detail {

void event_append(event_kind k, std::uint64_t a, std::uint64_t b) noexcept {
  append(k, trace_now_us(), 0, a, b);
}

void event_append_interval(event_kind k, std::uint64_t t0_us,
                           std::uint64_t t1_us, std::uint64_t a,
                           std::uint64_t b) noexcept {
  append(k, t0_us, t1_us > t0_us ? t1_us - t0_us : 0, a, b);
}

void events_recharge() {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  for (auto& r : g.rings) {
    if (!r) continue;
    r->charged = 0;  // the ledger was zeroed under it
    charge_locked(*r, true);
  }
}

}  // namespace detail

void set_events_enabled(bool on) {
  detail::toggles().events.store(on, std::memory_order_relaxed);
}

std::size_t event_capacity() {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  return g.capacity;
}

void set_event_capacity(std::size_t cap) {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  g.capacity = std::bit_ceil(cap == 0 ? std::size_t{1} : cap);
  for (auto& r : g.rings) {
    if (r) charge_locked(*r, false);
  }
  g.rings.clear();
  ring_gen.fetch_add(1, std::memory_order_release);
}

void events_clear() {
  // Readers only look below head, so resetting it empties the ring.
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  for (auto& r : g.rings) {
    if (r) r->head.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t events_recorded_here() noexcept {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  const auto idx = static_cast<std::size_t>(util::thread_rank() + 1);
  if (idx >= g.rings.size() || !g.rings[idx]) return 0;
  return g.rings[idx]->head.load(std::memory_order_relaxed);
}

json flight_to_json(const std::string& why) {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  json doc = json::object();
  doc["schema"] = "sfg-flight/1";
  doc["why"] = why;
  doc["capacity"] = static_cast<std::uint64_t>(g.capacity);
  json ranks = json::array();
  for (const auto& r : g.rings) {
    if (r) ranks.push_back(rank_json(*r, false));
  }
  doc["ranks"] = std::move(ranks);
  return doc;
}

bool flight_write(const std::string& path, const std::string& why) {
  const json doc = flight_to_json(why);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    SFG_LOG_WARN << "flight: cannot open " << path << " for writing";
    return false;
  }
  out << doc.dump() << '\n';
  return true;
}

void flight_dump(const std::string& why) {
  std::string path = flight_dump_path();
  if (path.empty()) return;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    path += "/sfg_flight_" + std::to_string(::getpid()) + ".json";
  }
  flight_write(path, why);
}

std::string flight_dump_path() {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  return g.dump_path;
}

void set_flight_dump_path(std::string path) {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  g.dump_path = std::move(path);
}

json critpath_fragment() {
  const event_ring* r = ring_for_rank(util::thread_rank());
  const std::scoped_lock lock(globals().mu);
  return rank_json(*r, true);
}

}  // namespace sfg::obs
