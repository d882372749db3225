/// \file metrics.hpp
/// Process-wide metrics registry: named monotonic counters, gauges and
/// timers, aggregated across all in-process ranks (ranks are threads, so
/// one registry sees the whole "cluster" — the per-rank view stays in the
/// subsystem stats structs, see stats_fields.hpp).
///
/// Cost model, same pattern as runtime::fault_params: everything is gated
/// on one cached bool (`metrics_on()`, a relaxed atomic load initialized
/// once from the environment).  Disabled, an instrumented site is a single
/// predictable branch — no clock reads, no atomics RMW, no allocation
/// (tests/obs/metrics_test.cpp verifies the zero-allocation claim with a
/// counting operator new).  Enabled, a counter bump is one relaxed
/// fetch_add.
///
/// Environment switches (mirroring SFG_LOG / SFG_CHAOS_SEED):
///   SFG_METRICS=<path>      enable metrics; visitor-queue traversals append
///                           a structured JSON report at <path>
///                           (run_report.hpp)
///   SFG_TRACE=<path>        enable tracing; a Chrome/Perfetto-loadable trace
///                           is written to <path> at process exit (trace.hpp)
///   SFG_TRACE_SAMPLE=<n>    sample 1-in-n visitor pushes with a causal trace
///                           context that follows the visitor across ranks
///                           (trace_context.hpp); 0/unset disables sampling
///   SFG_TS_INTERVAL_MS=<n>  enable live time-series sampling every n ms
///                           (timeseries.hpp); 0/unset disables
///   SFG_TS_DIR=<dir>        per-rank sfg-timeseries/1 JSONL output dir
///   SFG_COMM_MATRIX=1       force the rank x rank traffic matrix on even
///                           when metrics/time-series are off
///                           (mailbox/routed_mailbox.hpp); it is implied by
///                           SFG_METRICS and SFG_TS_INTERVAL_MS
///   SFG_COMM_LAT_SAMPLE=<n> sample 1-in-n packets with an enqueue->deliver
///                           latency timestamp (default 1 = every packet;
///                           0 disables latency sampling entirely)
///   SFG_IO_HIST=1           force storage I/O latency histograms and the
///                           reuse-distance estimator on even when
///                           metrics/time-series are off (page_cache.hpp,
///                           block_device.hpp); implied by SFG_METRICS and
///                           SFG_TS_INTERVAL_MS
///   SFG_SPANS=1             the span lens: phase self-time segments join
///                           the event ring (events.hpp), and traversal
///                           reports embed an sfg-critpath/1 section
///                           (critpath.hpp) consumed by sfg_why
///   SFG_EVENTS=<n>          event-ring capacity per rank, rounded up to a
///                           power of two (default 1024, 32768 with
///                           SFG_SPANS); 0 disables the ring and the lens
///   SFG_MEM=1               force per-subsystem memory attribution on
///                           (mem.hpp) even when metrics/time-series are
///                           off; it is implied by SFG_METRICS and
///                           SFG_TS_INTERVAL_MS
///   SFG_MEM_BUDGET=<bytes>  arm the soft memory budget: accounted bytes
///                           crossing the ladder thresholds fire ok/soft/
///                           hard pressure transitions (mem.hpp); implies
///                           attribution on.  0/unset disarms the ladder
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"
#include "obs/json.hpp"

namespace sfg::obs {

namespace detail {

/// Lazily-initialized process toggles; the constructor (metrics.cpp) reads
/// SFG_METRICS / SFG_TRACE / SFG_TRACE_SAMPLE once and registers the
/// exit-time trace writer.
struct obs_toggles {
  obs_toggles();
  std::atomic<bool> metrics{false};
  std::atomic<bool> trace{false};
  /// Live time-series sampling (SFG_TS_INTERVAL_MS > 0, timeseries.hpp).
  std::atomic<bool> timeseries{false};
  /// Visitor causal-sampling rate: sample 1-in-`sample` pushes; 0 = off.
  std::atomic<std::uint32_t> sample{0};
  /// Force the rank x rank traffic matrix on (SFG_COMM_MATRIX); the matrix
  /// also runs whenever metrics or time-series are on (comm_matrix_on()).
  std::atomic<bool> comm_matrix{false};
  /// Force storage I/O latency histograms on (SFG_IO_HIST); also implied
  /// by metrics / time-series (io_hist_on()).
  std::atomic<bool> io_hist{false};
  /// Packet latency sampling rate: stamp 1-in-`comm_lat_sample` packets
  /// with an enqueue timestamp; 0 = never (matrix counters still run).
  std::atomic<std::uint32_t> comm_lat_sample{1};
  /// Span lens (SFG_SPANS, events.hpp); unlike the matrix and
  /// the I/O histograms this is opt-in only — never implied by metrics.
  std::atomic<bool> spans{false};
  /// The event ring (events.hpp): on unless SFG_EVENTS=0; its capacity
  /// from SFG_EVENTS (0 = the default).
  std::atomic<bool> events{true};
  std::size_t event_capacity = 0;
  /// Force per-subsystem memory attribution on (SFG_MEM, mem.hpp); also
  /// implied by metrics / time-series (mem_on()) and by a non-zero budget.
  std::atomic<bool> mem{false};
  /// Soft memory budget in bytes (SFG_MEM_BUDGET, mem.hpp); 0 = disarmed.
  std::atomic<std::uint64_t> mem_budget{0};
};

obs_toggles& toggles();

}  // namespace detail

/// The cached-bool gate: one relaxed load, one predictable branch.
[[nodiscard]] inline bool metrics_on() noexcept {
  return detail::toggles().metrics.load(std::memory_order_relaxed);
}

/// The time-series sampler's gate (ts_poll in timeseries.hpp): one relaxed
/// load, one predictable branch while sampling is off.
[[nodiscard]] inline bool ts_on() noexcept {
  return detail::toggles().timeseries.load(std::memory_order_relaxed);
}

/// Span-lens gate (events.hpp): strictly opt-in via SFG_SPANS (or
/// set_spans_enabled) — phase segments cost a clock read and a ring
/// write per phase transition, so metrics alone never imply them.
[[nodiscard]] inline bool spans_on() noexcept {
  return detail::toggles().spans.load(std::memory_order_relaxed);
}

/// Phase-attribution gate (phase.hpp): phase timers feed the
/// end-of-traversal registry fold (metrics), the live sampler
/// (timeseries) and the span lens's self-time segments (critpath), so they
/// run whenever any consumer is on.  Three relaxed loads, still one
/// predictable branch in the common all-off case.
[[nodiscard]] inline bool phase_on() noexcept {
  return metrics_on() || ts_on() || spans_on();
}

/// Traffic-matrix gate (mailbox/routed_mailbox.hpp): the rank x rank
/// record/byte/flush matrix updates whenever any consumer wants it —
/// metrics reports, the live sampler, or an explicit SFG_COMM_MATRIX=1.
/// Disabled, an update site is relaxed loads + one predictable branch; the
/// matrix rows are preallocated at mailbox construction, so the enabled
/// path is allocation-free too.
[[nodiscard]] inline bool comm_matrix_on() noexcept {
  return detail::toggles().comm_matrix.load(std::memory_order_relaxed) ||
         metrics_on() || ts_on();
}

/// Storage I/O attribution gate (page_cache.hpp, block_device.hpp):
/// latency histograms and the reuse-distance estimator read clocks, so
/// they only run when a consumer is live (or SFG_IO_HIST=1 forces them).
[[nodiscard]] inline bool io_hist_on() noexcept {
  return detail::toggles().io_hist.load(std::memory_order_relaxed) ||
         metrics_on() || ts_on();
}

/// Packet latency sampling rate (1-in-n packet flushes carry an enqueue
/// timestamp; 0 disables latency stamping without touching the matrix).
[[nodiscard]] inline std::uint32_t comm_lat_sample() noexcept {
  return detail::toggles().comm_lat_sample.load(std::memory_order_relaxed);
}

/// Memory-attribution gate (mem.hpp): the per-rank per-subsystem byte
/// counters update whenever any consumer wants them — metrics reports,
/// the live sampler, an explicit SFG_MEM=1, or an armed budget (the
/// pressure ladder cannot fire without the accounting that feeds it).
/// Disabled, a charge site is relaxed loads + one predictable branch.
[[nodiscard]] inline bool mem_on() noexcept {
  return detail::toggles().mem.load(std::memory_order_relaxed) ||
         metrics_on() || ts_on();
}

/// Soft memory budget in bytes (SFG_MEM_BUDGET / set_mem_budget);
/// 0 means the pressure ladder is disarmed.
[[nodiscard]] inline std::uint64_t mem_budget() noexcept {
  return detail::toggles().mem_budget.load(std::memory_order_relaxed);
}

/// Programmatic override (benches/CLI/tests); the env var is only the
/// default.
void set_metrics_enabled(bool on);

/// Programmatic overrides for the data-movement layer (micro_comm_matrix
/// and the alloc tests flip these without touching the environment).
void set_comm_matrix_enabled(bool on);
void set_io_hist_enabled(bool on);
void set_comm_lat_sample(std::uint32_t n);
/// The event ring's default capacity follows SFG_SPANS at startup; turning
/// the span lens on here does not resize it (see set_event_capacity).
void set_spans_enabled(bool on);
/// Memory-attribution overrides (mem.hpp).  A non-zero budget also turns
/// the accounting on (the ladder needs the counters); setting it back to
/// zero disarms the ladder but leaves the accounting toggle alone.
void set_mem_enabled(bool on);
void set_mem_budget(std::uint64_t bytes);

/// Path for traversal run reports (SFG_METRICS or set_metrics_report_path);
/// empty when reporting is off.
[[nodiscard]] std::string metrics_report_path();
void set_metrics_report_path(std::string path);

/// Monotonic named counter.  Handles are stable for the process lifetime;
/// cache the reference at the instrumentation site.
class counter {
 public:
  /// Gated add: no-op (one branch) while metrics are disabled.
  void add(std::uint64_t n = 1) noexcept {
    if (metrics_on()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Ungated add, for sites that already checked metrics_on() once for a
  /// whole block of updates.
  void add_raw(std::uint64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written named value (e.g. queue depth, cache occupancy).
class gauge {
 public:
  void set(double v) noexcept {
    if (metrics_on()) v_.store(v, std::memory_order_relaxed);
  }
  /// Ungated set, for sites that already checked their own gate (e.g. the
  /// visitor queue's live gauges, which must update when either metrics or
  /// the time-series sampler is consuming them).
  void set_raw(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Named duration accumulator: count, total and max, all in nanoseconds.
class timer_metric {
 public:
  void record(std::uint64_t ns) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    while (prev < ns &&
           !max_ns_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_ns() const noexcept {
    return max_ns_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Concurrent fixed-bucket log2 histogram — the registry-resident sibling
/// of obs::histogram (histogram.hpp).  record() is gated like counter::add;
/// concurrent records only touch relaxed atomics.  snapshot() materializes
/// a plain obs::histogram for quantile math / JSON.
class histogram_metric {
 public:
  void record(std::uint64_t v) noexcept {
    if (metrics_on()) record_raw(v);
  }
  /// Ungated record, for sites that hoisted the metrics_on() check.
  void record_raw(std::uint64_t v) noexcept {
    buckets_[histogram::bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Fold a plain histogram (e.g. a per-rank delta from a stats struct)
  /// into this registry entry.  Ungated, like counter::add_raw.
  void merge_raw(const histogram& h) noexcept {
    for (std::size_t i = 0; i < histogram::kBuckets; ++i) {
      if (h.buckets[i] != 0) {
        buckets_[i].fetch_add(h.buckets[i], std::memory_order_relaxed);
      }
    }
    count_.fetch_add(h.count, std::memory_order_relaxed);
    sum_.fetch_add(h.sum, std::memory_order_relaxed);
  }
  [[nodiscard]] histogram snapshot() const noexcept {
    histogram h;
    for (std::size_t i = 0; i < histogram::kBuckets; ++i) {
      h.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    h.count = count_.load(std::memory_order_relaxed);
    h.sum = sum_.load(std::memory_order_relaxed);
    return h;
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, histogram::kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// RAII timer: reads the clock only while metrics are enabled.
class scoped_timer {
 public:
  explicit scoped_timer(timer_metric& t) noexcept : t_(&t) {
    if (metrics_on()) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~scoped_timer() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      t_->record(static_cast<std::uint64_t>(ns));
    }
  }
  scoped_timer(const scoped_timer&) = delete;
  scoped_timer& operator=(const scoped_timer&) = delete;

 private:
  timer_metric* t_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

/// The process-wide registry.  Lookup is mutex-protected (do it once per
/// site and cache the reference); the returned handles are lock-free.
class metrics_registry {
 public:
  static metrics_registry& instance();

  counter& get_counter(std::string_view name);
  gauge& get_gauge(std::string_view name);
  timer_metric& get_timer(std::string_view name);
  histogram_metric& get_histogram(std::string_view name);

  /// Everything registered, as one JSON object:
  ///   {"counters": {name: u64}, "gauges": {name: f64},
  ///    "timers": {name: {count, total_ms, max_ms}},
  ///    "histograms": {name: {count, sum, mean, p50, p90, p99}}}
  /// Names are emitted in sorted order (reports stay diffable).
  [[nodiscard]] json snapshot() const;

  /// Zero every registered value (registration survives).  Benches use
  /// this between configurations; instrumented sites keep their handles.
  void reset_values();

 private:
  metrics_registry() = default;
  struct impl;
  impl& state() const;
};

}  // namespace sfg::obs
