/// \file block_device.hpp
/// Byte-addressable block storage behind the user-space page cache.
///
/// The paper stores the graph's CSR on node-local NAND Flash (Fusion-io /
/// SATA SSD) accessed with direct I/O through a custom user-space page
/// cache (§II-B).  This repo has no NVRAM, so `sim_nvram_device` wraps any
/// device and injects per-operation latency with a bounded number of
/// in-flight operations — reproducing the two properties the paper's
/// design depends on: NVRAM is much slower than DRAM, and it needs *many
/// concurrent requests* to reach full bandwidth (§II-B).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/stats_fields.hpp"

namespace sfg::storage {

/// Shared I/O accounting for instrumented devices (sim_nvram_device):
/// operation/byte counters plus per-operation latency histograms (µs).  Counters are unconditional (one u64 add under the
/// device's stats lock); the histograms read clocks, so devices record
/// them only while obs::io_hist_on().
struct device_io_stats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  obs::histogram read_us;
  obs::histogram write_us;
};

class block_device {
 public:
  /// One read of a batch: `out.size()` bytes starting at `offset`.
  struct request {
    std::uint64_t offset;
    std::span<std::byte> out;
  };

  virtual ~block_device() = default;

  /// Read `out.size()` bytes starting at `offset`.  Every device fills the
  /// whole span, with zero bytes past its end.  Thread-safe.
  virtual void read(std::uint64_t offset, std::span<std::byte> out) = 0;

  /// Serve several reads issued together.  The default serves them one
  /// by one; a device with internal parallelism overlaps them (see
  /// sim_nvram_device).  Thread-safe.
  virtual void read_batch(std::span<const request> reqs) {
    for (const request& r : reqs) read(r.offset, r.out);
  }

  /// Operations the device serves concurrently: how many reads a batch
  /// should hold to use it fully.  1 for devices without a queue model.
  [[nodiscard]] virtual int queue_depth() const noexcept { return 1; }

  /// Write `data` starting at `offset`, growing the device if needed.
  /// Thread-safe.
  virtual void write(std::uint64_t offset,
                     std::span<const std::byte> data) = 0;

  /// Current size in bytes.
  [[nodiscard]] virtual std::uint64_t size_bytes() const = 0;
};

/// DRAM-backed device: the "DRAM-only" baseline in Figure 9 / Table II.
class memory_device final : public block_device {
 public:
  explicit memory_device(std::uint64_t initial_size = 0);

  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t size_bytes() const override;

 private:
  mutable std::mutex mu_;
  std::vector<std::byte> data_;
};

/// File-backed device using positional I/O (pread/pwrite), so concurrent
/// accesses need no seek lock.  This is the real persistent path.
class file_device final : public block_device {
 public:
  /// Opens (creating if necessary) `path`.  If `truncate`, starts empty.
  explicit file_device(const std::string& path, bool truncate = true);
  ~file_device() override;

  file_device(const file_device&) = delete;
  file_device& operator=(const file_device&) = delete;

  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t size_bytes() const override;

 private:
  int fd_ = -1;
};

/// Latency + queue-depth model wrapped around another device.
///
/// Operations are served in *waves*: a wave holds one in-flight slot per
/// operation (at most `queue_depth` slots across all callers), waits one
/// device latency, runs the inner operations and releases its slots.  A
/// read() or write() is a wave of one; read_batch() serves its requests
/// in waves of as many free slots as there are, so a batch of k reads
/// alone costs ceil(k / queue_depth) latencies — exactly what k threads
/// calling read() at once cost.  With enough concurrent requests (the
/// paper's "high levels of concurrent I/O"), throughput approaches
/// queue_depth operations per latency period; a single synchronous stream
/// gets exactly 1/latency — the asymmetry the asynchronous visitor design
/// and the level-synchronous readahead exploit.
class sim_nvram_device final : public block_device {
 public:
  struct params {
    std::chrono::microseconds read_latency{80};    // NAND page read-ish
    std::chrono::microseconds write_latency{200};  // NAND program-ish
    int queue_depth = 32;
  };

  /// The service-time wait of one wave of `ops` operations.  The default
  /// sleeps `latency`; tests install a virtual clock through
  /// set_service_wait() so that modeled time is exact under any host load.
  using service_wait =
      std::function<void(std::chrono::microseconds latency, std::size_t ops)>;

  sim_nvram_device(block_device& inner, params p);

  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void read_batch(std::span<const request> reqs) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t size_bytes() const override;
  [[nodiscard]] int queue_depth() const noexcept override {
    return params_.queue_depth;
  }

  /// Test seam: replace the service-time wait (default: sleep_for).  Call
  /// before the device is shared between threads.
  void set_service_wait(service_wait wait) { wait_ = std::move(wait); }

  /// Latency histograms measure the full operation as a caller sees it:
  /// queue-slot wait + modeled device latency + inner op — the number the
  /// paper's "needs many concurrent requests" claim is about.
  using io_stats = device_io_stats;
  [[nodiscard]] io_stats stats() const;
  void reset_stats();

 private:
  /// Block until a slot is free, then take min(want, free) slots.
  std::size_t acquire_slots(std::size_t want);
  void release_slots(std::size_t n);
  void wait_service(std::chrono::microseconds latency, std::size_t ops);

  block_device* inner_;
  params params_;
  service_wait wait_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
  io_stats stats_;
};

/// Bulk-write a trivially copyable array to a device.
template <typename T>
void write_array(block_device& dev, std::uint64_t offset,
                 std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>);
  dev.write(offset, std::as_bytes(data));
}

}  // namespace sfg::storage

/// Reflection for the shared stats conventions (delta / add / reset /
/// to_json / to_registry) — see obs/stats_fields.hpp.  One specialization
/// covers every instrumented device (sim_nvram_device::io_stats is an
/// alias of device_io_stats).
template <>
struct sfg::obs::stats_traits<sfg::storage::device_io_stats> {
  using S = sfg::storage::device_io_stats;
  static constexpr auto fields = std::make_tuple(
      stats_field{"reads", &S::reads}, stats_field{"writes", &S::writes},
      stats_field{"bytes_read", &S::bytes_read},
      stats_field{"bytes_written", &S::bytes_written},
      stats_field{"read_us", &S::read_us},
      stats_field{"write_us", &S::write_us});
};
