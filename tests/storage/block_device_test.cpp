#include "storage/block_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/timer.hpp"

namespace sfg::storage {
namespace {

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xff);
  return out;
}

template <typename Dev>
void roundtrip_check(Dev& dev) {
  const auto data = pattern_bytes(10000, 42);
  dev.write(128, data);
  std::vector<std::byte> back(10000);
  dev.read(128, back);
  EXPECT_EQ(back, data);
}

TEST(MemoryDevice, RoundTrip) {
  memory_device dev;
  roundtrip_check(dev);
  EXPECT_EQ(dev.size_bytes(), 10128u);
}

TEST(MemoryDevice, ReadPastEndIsZero) {
  memory_device dev;
  dev.write(0, pattern_bytes(16, 1));
  std::vector<std::byte> out(32);
  dev.read(8, out);
  for (std::size_t i = 8; i < 32; ++i) EXPECT_EQ(out[i], std::byte{0});
}

TEST(MemoryDevice, OverlappingWrites) {
  memory_device dev;
  const auto a = pattern_bytes(100, 1);
  const auto b = pattern_bytes(100, 2);
  dev.write(0, a);
  dev.write(50, b);
  std::vector<std::byte> out(150);
  dev.read(0, out);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(out[i], a[i]);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[50 + i], b[i]);
}

TEST(FileDevice, RoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "sfg_filedev_test.bin")
          .string();
  {
    file_device dev(path, /*truncate=*/true);
    roundtrip_check(dev);
  }
  // Reopen without truncation: data persists.
  {
    file_device dev(path, /*truncate=*/false);
    const auto expected = pattern_bytes(10000, 42);
    std::vector<std::byte> back(10000);
    dev.read(128, back);
    EXPECT_EQ(back, expected);
  }
  std::filesystem::remove(path);
}

TEST(FileDevice, ReadPastEofZeroFills) {
  const auto path =
      (std::filesystem::temp_directory_path() / "sfg_filedev_eof.bin")
          .string();
  file_device dev(path, true);
  dev.write(0, pattern_bytes(10, 3));
  std::vector<std::byte> out(64, std::byte{0xff});
  dev.read(0, out);
  for (std::size_t i = 10; i < 64; ++i) EXPECT_EQ(out[i], std::byte{0});
  std::filesystem::remove(path);
}

TEST(FileDevice, ThrowsOnBadPath) {
  EXPECT_THROW(file_device("/nonexistent_dir_xyz/f.bin", true),
               std::runtime_error);
}

TEST(SimNvram, RoundTripAndStats) {
  memory_device inner;
  sim_nvram_device dev(inner, {std::chrono::microseconds(1),
                               std::chrono::microseconds(1), 4});
  roundtrip_check(dev);
  const auto s = dev.stats();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.bytes_read, 10000u);
  EXPECT_EQ(s.bytes_written, 10000u);
}

TEST(SimNvram, SerialLatencyIsEnforced) {
  memory_device inner;
  inner.write(0, pattern_bytes(4096, 5));
  sim_nvram_device dev(inner, {std::chrono::microseconds(2000),
                               std::chrono::microseconds(2000), 32});
  std::vector<std::byte> buf(64);
  util::timer t;
  constexpr int kOps = 10;
  for (int i = 0; i < kOps; ++i) dev.read(0, buf);
  // 10 serial reads at 2ms each must take >= ~20ms.
  EXPECT_GE(t.elapsed_ms(), 18.0);
}

/// Virtual service time for sim_nvram_device: every wave parks in wait()
/// until the test thread advances the clock by one latency and releases
/// it, so modeled time is exact whatever the host's load.
class stepped_clock {
 public:
  void install(sim_nvram_device& dev) {
    dev.set_service_wait([this](std::chrono::microseconds latency,
                                std::size_t ops) { wait(latency, ops); });
  }

  /// Wait until exactly `ops` operations are in service, then advance the
  /// clock and release them.  On failure (they never arrive — a deadlock
  /// guard, not a timing bound — or more arrive) the clock opens for good
  /// so the device's callers can finish, and returns false.
  bool step(std::size_t ops) {
    std::unique_lock lk(mu_);
    const bool arrived = cv_.wait_for(lk, kGuard, [&] {
      return parked_ops_ >= ops;
    });
    if (!arrived || parked_ops_ != ops) {
      open_ = true;
      advance_locked();
      return false;
    }
    advance_locked();
    return true;
  }

  /// Drive `total` operations, each issued by its own thread or by one
  /// batch, on a device of queue depth `qd`: every step must put exactly
  /// min(qd, operations left) in service.
  bool run(std::size_t total, std::size_t qd) {
    for (std::size_t left = total; left > 0;) {
      const std::size_t wave = std::min(qd, left);
      if (!step(wave)) return false;
      left -= wave;
    }
    return true;
  }

  /// Release whatever is in service once something is, after giving
  /// other callers `settle` of wall time to join it.  Returns the number
  /// of operations released (0 = nothing arrived within the guard).
  std::size_t step_any(std::chrono::milliseconds settle) {
    std::unique_lock lk(mu_);
    if (!cv_.wait_for(lk, kGuard, [&] { return parked_ops_ > 0; })) {
      open_ = true;
      advance_locked();
      return 0;
    }
    lk.unlock();
    std::this_thread::sleep_for(settle);
    lk.lock();
    const std::size_t n = parked_ops_;
    advance_locked();
    return n;
  }

  [[nodiscard]] std::chrono::microseconds now() const {
    const std::scoped_lock lk(mu_);
    return now_;
  }
  [[nodiscard]] std::size_t peak_in_service() const {
    const std::scoped_lock lk(mu_);
    return peak_;
  }
  [[nodiscard]] std::size_t waves() const {
    const std::scoped_lock lk(mu_);
    return waves_;
  }

 private:
  static constexpr std::chrono::seconds kGuard{30};

  void wait(std::chrono::microseconds latency, std::size_t ops) {
    std::unique_lock lk(mu_);
    latency_ = latency;
    parked_ops_ += ops;
    peak_ = std::max(peak_, parked_ops_);
    ++waves_;
    cv_.notify_all();
    const std::uint64_t mine = step_;
    cv_.wait(lk, [&] { return open_ || step_ != mine; });
  }

  void advance_locked() {
    now_ += latency_;
    parked_ops_ = 0;
    ++step_;
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::chrono::microseconds now_{0};
  std::chrono::microseconds latency_{0};
  std::size_t parked_ops_ = 0;
  std::size_t peak_ = 0;
  std::size_t waves_ = 0;
  std::uint64_t step_ = 0;
  bool open_ = false;
};

constexpr std::chrono::microseconds kLatency{5000};

TEST(SimNvram, ConcurrencyOverlapsLatency) {
  memory_device inner;
  inner.write(0, pattern_bytes(4096, 6));
  sim_nvram_device dev(inner, {kLatency, kLatency, 16});
  stepped_clock clock;
  clock.install(dev);
  // 16 concurrent readers with queue depth 16 are served in one latency,
  // not the 16 a serial stream pays.  This is the paper's §II-B
  // observation that NVRAM needs high concurrent I/O for performance.
  std::vector<std::thread> threads;
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&dev] {
      std::vector<std::byte> buf(64);
      dev.read(0, buf);
    });
  }
  const bool done = clock.run(16, 16);
  for (auto& th : threads) th.join();
  ASSERT_TRUE(done);
  EXPECT_EQ(clock.now(), kLatency);
  EXPECT_EQ(dev.stats().reads, 16u);
}

TEST(SimNvram, QueueDepthBoundsConcurrency) {
  memory_device inner;
  sim_nvram_device dev(inner, {kLatency, kLatency, 1});
  stepped_clock clock;
  clock.install(dev);
  // Queue depth 1 serializes even concurrent requests: 6 reads take 6
  // latencies, one in service at a time.
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&dev] {
      std::vector<std::byte> buf(16);
      dev.read(0, buf);
    });
  }
  const bool done = clock.run(6, 1);
  for (auto& th : threads) th.join();
  ASSERT_TRUE(done);
  EXPECT_EQ(clock.now(), 6 * kLatency);
  EXPECT_EQ(clock.peak_in_service(), 1u);
}

/// `n` one-page requests over `bufs`, page i at offset i * 64.
std::vector<block_device::request> page_requests(
    std::vector<std::vector<std::byte>>& bufs, std::size_t n) {
  bufs.assign(n, std::vector<std::byte>(64));
  std::vector<block_device::request> reqs;
  for (std::size_t i = 0; i < n; ++i) reqs.push_back({i * 64, bufs[i]});
  return reqs;
}

TEST(SimNvram, BatchWithinQueueDepthCostsOneWave) {
  memory_device inner;
  const auto data = pattern_bytes(8 * 64, 9);
  inner.write(0, data);
  sim_nvram_device dev(inner, {kLatency, kLatency, 8});
  stepped_clock clock;
  clock.install(dev);
  for (const std::size_t k : {1, 5, 8}) {
    std::vector<std::vector<std::byte>> bufs;
    const auto reqs = page_requests(bufs, k);
    const auto t0 = clock.now();
    std::thread th([&] { dev.read_batch(reqs); });
    const bool done = clock.run(k, 8);
    th.join();
    ASSERT_TRUE(done) << "k=" << k;
    EXPECT_EQ(clock.now() - t0, kLatency) << "k=" << k;
    for (std::size_t i = 0; i < k; ++i) {
      const auto at = data.begin() + static_cast<std::ptrdiff_t>(i * 64);
      EXPECT_TRUE(std::equal(bufs[i].begin(), bufs[i].end(), at));
    }
  }
  // Per-operation accounting is unchanged by batching.
  EXPECT_EQ(dev.stats().reads, 14u);
  EXPECT_EQ(dev.stats().bytes_read, 14u * 64);
  EXPECT_EQ(clock.waves(), 3u);
}

TEST(SimNvram, BatchPastQueueDepthCostsTwoWaves) {
  memory_device inner;
  sim_nvram_device dev(inner, {kLatency, kLatency, 8});
  stepped_clock clock;
  clock.install(dev);
  std::vector<std::vector<std::byte>> bufs;
  const auto reqs = page_requests(bufs, 9);
  std::thread th([&] { dev.read_batch(reqs); });
  // qd + 1 reads: a full wave of 8, then a wave of 1.
  const bool full = clock.step(8);
  const bool tail = full && clock.step(1);
  th.join();
  ASSERT_TRUE(full);
  ASSERT_TRUE(tail);
  EXPECT_EQ(clock.now(), 2 * kLatency);
  EXPECT_EQ(clock.waves(), 2u);
  EXPECT_EQ(dev.stats().reads, 9u);
}

TEST(SimNvram, MixedBatchesAndReadsNeverExceedQueueDepth) {
  memory_device inner;
  inner.write(0, pattern_bytes(64 * 64, 10));
  constexpr std::size_t kQd = 8;
  constexpr std::size_t kTotal = 2 * 11 + 3 * 5;
  sim_nvram_device dev(inner, {kLatency, kLatency, kQd});
  stepped_clock clock;
  clock.install(dev);
  // Two threads read batches of 11 while three threads make 5 single
  // reads each.  Which waves share a step depends on thread timing, so
  // the clock releases whatever is in service; the bound must hold at
  // every step.
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&dev] {
      std::vector<std::vector<std::byte>> bufs;
      const auto reqs = page_requests(bufs, 11);
      dev.read_batch(reqs);
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&dev] {
      std::vector<std::byte> buf(64);
      for (std::uint64_t i = 0; i < 5; ++i) dev.read(i * 64, buf);
    });
  }
  std::size_t released = 0;
  std::size_t steps = 0;
  while (released < kTotal) {
    const std::size_t n = clock.step_any(std::chrono::milliseconds(1));
    if (n == 0) break;
    released += n;
    ++steps;
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(released, kTotal);
  EXPECT_LE(clock.peak_in_service(), kQd);
  EXPECT_GE(steps, (kTotal + kQd - 1) / kQd);
  EXPECT_EQ(clock.now(), static_cast<std::int64_t>(steps) * kLatency);
  EXPECT_EQ(dev.stats().reads, kTotal);
}

TEST(MemoryDevice, DefaultBatchMatchesSingleReads) {
  memory_device dev;
  const auto data = pattern_bytes(300, 11);
  dev.write(0, data);
  std::vector<std::byte> a(100), b(100, std::byte{0xff});
  const block_device::request reqs[] = {{250, a}, {0, b}};
  dev.read_batch(reqs);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(a[i], data[250 + i]);
  for (std::size_t i = 50; i < 100; ++i) EXPECT_EQ(a[i], std::byte{0});
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(b[i], data[i]);
  EXPECT_EQ(dev.queue_depth(), 1);
}

TEST(SimNvram, RejectsZeroQueueDepth) {
  memory_device inner;
  EXPECT_THROW(sim_nvram_device(inner, {std::chrono::microseconds(1),
                                        std::chrono::microseconds(1), 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sfg::storage
