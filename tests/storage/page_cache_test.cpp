#include "storage/page_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace sfg::storage {
namespace {

constexpr std::size_t kPage = 256;

/// Fill a device with deterministic per-page content.
void fill_device(block_device& dev, std::size_t num_pages) {
  for (std::size_t p = 0; p < num_pages; ++p) {
    std::vector<std::byte> page(kPage);
    util::xoshiro256 rng(p + 1);
    for (auto& b : page) b = static_cast<std::byte>(rng() & 0xff);
    dev.write(p * kPage, page);
  }
}

bool page_matches(std::span<const std::byte> data, std::size_t p) {
  util::xoshiro256 rng(p + 1);
  for (const auto& b : data) {
    if (b != static_cast<std::byte>(rng() & 0xff)) return false;
  }
  return true;
}

TEST(PageCache, MissThenHit) {
  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 4});
  {
    const auto ref = cache.get(3);
    EXPECT_TRUE(page_matches(ref.data(), 3));
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  {
    const auto ref = cache.get(3);
    EXPECT_TRUE(page_matches(ref.data(), 3));
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PageCache, EvictionKeepsContentsCorrect) {
  memory_device dev;
  constexpr std::size_t kPages = 64;
  fill_device(dev, kPages);
  page_cache cache(dev, {kPage, 4});  // tiny cache: constant eviction
  util::xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto p = rng.uniform_below(kPages);
    const auto ref = cache.get(p);
    ASSERT_TRUE(page_matches(ref.data(), p)) << "page " << p;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(PageCache, WorkingSetWithinCacheNeverEvicts) {
  memory_device dev;
  fill_device(dev, 4);
  page_cache cache(dev, {kPage, 8});
  for (int round = 0; round < 100; ++round) {
    for (std::size_t p = 0; p < 4; ++p) {
      const auto ref = cache.get(p);
      ASSERT_TRUE(page_matches(ref.data(), p));
    }
  }
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().hits, 396u);
}

TEST(PageCache, DirtyPageWritesBackOnEviction) {
  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 2});
  {
    auto ref = cache.get(0);
    auto bytes = ref.mutable_data();
    bytes[0] = std::byte{0xAB};
    bytes[1] = std::byte{0xCD};
  }
  // Touch enough other pages to force page 0 out.
  for (std::size_t p = 1; p < 8; ++p) (void)cache.get(p);
  EXPECT_GT(cache.stats().writebacks, 0u);
  std::vector<std::byte> raw(2);
  dev.read(0, raw);
  EXPECT_EQ(raw[0], std::byte{0xAB});
  EXPECT_EQ(raw[1], std::byte{0xCD});
  // And reading it back through the cache sees the new bytes.
  const auto ref = cache.get(0);
  EXPECT_EQ(ref.data()[0], std::byte{0xAB});
}

TEST(PageCache, FlushDirtyPersistsWithoutEviction) {
  memory_device dev;
  page_cache cache(dev, {kPage, 4});
  {
    auto ref = cache.get(5);
    ref.mutable_data()[10] = std::byte{0x77};
  }
  cache.flush_dirty();
  std::vector<std::byte> raw(kPage);
  dev.read(5 * kPage, raw);
  EXPECT_EQ(raw[10], std::byte{0x77});
  EXPECT_EQ(cache.stats().writebacks, 1u);
  // Still cached: next access is a hit.
  (void)cache.get(5);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PageCache, PinnedPagesSurviveEvictionPressure) {
  memory_device dev;
  fill_device(dev, 32);
  page_cache cache(dev, {kPage, 4});
  const auto pinned = cache.get(0);
  // Hammer the rest of the cache.
  util::xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto p = 1 + rng.uniform_below(31);
    const auto ref = cache.get(p);
    ASSERT_TRUE(page_matches(ref.data(), p));
  }
  // The pinned view must still be intact.
  EXPECT_TRUE(page_matches(pinned.data(), 0));
}

TEST(PageCache, MoveTransfersPin) {
  memory_device dev;
  fill_device(dev, 2);
  page_cache cache(dev, {kPage, 2});
  auto a = cache.get(1);
  page_cache::page_ref b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(page_matches(b.data(), 1));
}

TEST(PageCache, ConcurrentReadersSeeConsistentData) {
  memory_device dev;
  constexpr std::size_t kPages = 128;
  fill_device(dev, kPages);
  page_cache cache(dev, {kPage, 16});
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      auto rng = util::make_stream(55, static_cast<std::uint64_t>(t));
      for (int i = 0; i < 1500; ++i) {
        const auto p = rng.uniform_below(kPages);
        const auto ref = cache.get(p);
        if (!page_matches(ref.data(), p)) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 8u * 1500u);
}

TEST(PageCache, ConcurrentMissesOnSamePageLoadOnce) {
  memory_device dev;
  fill_device(dev, 1);
  // Slow device so the threads really do race into the miss path.
  sim_nvram_device slow(dev, {std::chrono::microseconds(3000),
                              std::chrono::microseconds(3000), 32});
  page_cache cache(slow, {kPage, 8});
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &failures] {
      const auto ref = cache.get(0);
      if (!page_matches(ref.data(), 0)) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 7u);
}

TEST(PageCache, AllFramesPinnedBlocksUntilUnpin) {
  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 2});
  auto a = cache.get(0);
  {
    auto b = cache.get(1);
    // Third get must wait for an unpin from another thread.
    std::atomic<bool> got{false};
    std::thread waiter([&cache, &got] {
      const auto c = cache.get(2);
      got.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(got.load());
    b = page_cache::page_ref{};  // release pin
    waiter.join();
    EXPECT_TRUE(got.load());
  }
}

TEST(PageCache, RejectsZeroConfig) {
  memory_device dev;
  EXPECT_THROW(page_cache(dev, {0, 4}), std::invalid_argument);
  EXPECT_THROW(page_cache(dev, {kPage, 0}), std::invalid_argument);
}

TEST(PageCache, RegistryDeltasMatchLocalStatsAndSurviveReset) {
  // Pins the intended split between the two stat surfaces: cache_stats is
  // per-instance and resettable; the cache.* registry counters are
  // process-wide monotonic (shared by every cache, diffed into rates by
  // the time-series sampler).  Over a window of operations the registry
  // deltas must equal the cache_stats deltas, and reset_stats() must
  // clear only the local side.
  const bool saved = obs::metrics_on();
  obs::set_metrics_enabled(true);
  auto& reg = obs::metrics_registry::instance();
  auto& r_hits = reg.get_counter("cache.hits");
  auto& r_misses = reg.get_counter("cache.misses");
  auto& r_wb = reg.get_counter("cache.writebacks");

  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 2});
  const std::uint64_t hits0 = r_hits.value();
  const std::uint64_t misses0 = r_misses.value();
  const std::uint64_t wb0 = r_wb.value();

  for (int round = 0; round < 2; ++round) {
    for (std::size_t p = 0; p < 4; ++p) {
      auto ref = cache.get(p);           // misses + evictions under pressure
      ref.mutable_data()[0] = std::byte{0xAB};  // dirty -> writebacks
    }
    cache.get(3);  // immediate re-get: a hit
  }
  cache.flush_dirty();

  const auto local = cache.stats();
  EXPECT_EQ(r_hits.value() - hits0, local.hits);
  EXPECT_EQ(r_misses.value() - misses0, local.misses);
  EXPECT_EQ(r_wb.value() - wb0, local.writebacks);
  EXPECT_GT(local.misses, 0u);
  EXPECT_GT(local.writebacks, 0u);

  // reset_stats() zeroes only the instance snapshot; the process-wide
  // registry keeps counting from where it was.
  const std::uint64_t misses_before_reset = r_misses.value();
  cache.reset_stats();
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(r_misses.value(), misses_before_reset)
      << "reset_stats() must not touch the shared registry counters";
  // And the next window diffs cleanly on both surfaces.
  const std::uint64_t hits1 = r_hits.value();
  cache.get(3);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(r_hits.value() - hits1, 1u);

  obs::set_metrics_enabled(saved);
}

// ---------------------------------------------------------------------------
// prefetch(): the batched readahead path
// ---------------------------------------------------------------------------

/// Device that counts reads and writes and holds reads of one offset
/// until opened, so a test can keep a page mid-load.
class gated_device final : public block_device {
 public:
  gated_device(block_device& inner, std::uint64_t gated_offset)
      : inner_(&inner), gated_(gated_offset) {}

  void read(std::uint64_t offset, std::span<std::byte> out) override {
    if (offset == gated_) {
      std::unique_lock lk(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lk, [&] { return open_; });
    }
    reads.fetch_add(1);
    inner_->read(offset, out);
  }
  void write(std::uint64_t offset, std::span<const std::byte> data) override {
    writes.fetch_add(1);
    inner_->write(offset, data);
  }
  [[nodiscard]] std::uint64_t size_bytes() const override {
    return inner_->size_bytes();
  }

  void wait_entered() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return entered_; });
  }
  void open() {
    const std::scoped_lock lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

  std::atomic<int> reads{0};
  std::atomic<int> writes{0};

 private:
  block_device* inner_;
  std::uint64_t gated_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

std::vector<std::uint64_t> page_ids(std::uint64_t first, std::uint64_t last) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t p = first; p <= last; ++p) out.push_back(p);
  return out;
}

TEST(PageCachePrefetch, SkipsResidentAndLoadingPages) {
  memory_device mem;
  fill_device(mem, 8);
  gated_device dev(mem, 2 * kPage);
  page_cache cache(dev, {kPage, 8});
  (void)cache.get(0);  // resident
  std::thread loader([&] {
    const auto ref = cache.get(2);  // parks mid-load in the device
    EXPECT_TRUE(page_matches(ref.data(), 2));
  });
  dev.wait_entered();
  const std::vector<std::uint64_t> want = {0, 2, 3};
  EXPECT_EQ(cache.prefetch(want), 1u);  // only page 3 is read
  dev.open();
  loader.join();
  EXPECT_EQ(dev.reads.load(), 3);  // 0 and 2 on demand, 3 prefetched
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.prefetched, 1u);
  EXPECT_EQ(s.dev_bytes_read, 3u * kPage);
  EXPECT_TRUE(page_matches(cache.get(3).data(), 3));
  EXPECT_EQ(dev.reads.load(), 3);
}

TEST(PageCachePrefetch, PinnedFramesAreNeverVictims) {
  memory_device dev;
  fill_device(dev, 16);
  page_cache cache(dev, {kPage, 4});
  std::vector<page_cache::page_ref> pins;
  for (std::uint64_t p = 0; p < 4; ++p) pins.push_back(cache.get(p));
  // Every frame pinned: the prefetch places nothing and does not wait.
  EXPECT_EQ(cache.prefetch(page_ids(4, 7)), 0u);
  pins.resize(2);  // unpin pages 2 and 3
  EXPECT_EQ(cache.prefetch(page_ids(4, 7)), 2u);
  for (std::uint64_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(page_matches(pins[p].data(), p));
  }
  EXPECT_TRUE(page_matches(cache.get(4).data(), 4));
  EXPECT_TRUE(page_matches(cache.get(5).data(), 5));
  EXPECT_EQ(cache.stats().prefetched, 2u);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(PageCachePrefetch, NeverWritesBack) {
  memory_device mem;
  fill_device(mem, 8);
  gated_device dev(mem, ~std::uint64_t{0});
  page_cache cache(dev, {kPage, 2});
  for (std::uint64_t p = 0; p < 2; ++p) {
    auto ref = cache.get(p);
    ref.mutable_data()[0] = std::byte{0x5A};
  }
  // Both frames are dirty: the prefetch stops at its first page.
  EXPECT_EQ(cache.prefetch(page_ids(2, 3)), 0u);
  EXPECT_EQ(dev.writes.load(), 0);
  EXPECT_EQ(cache.stats().writebacks, 0u);
  // Once the pages are clean the same prefetch proceeds.
  cache.flush_dirty();
  EXPECT_EQ(dev.writes.load(), 2);
  EXPECT_EQ(cache.prefetch(page_ids(2, 3)), 2u);
  EXPECT_EQ(dev.writes.load(), 2);
}

TEST(PageCachePrefetch, RespectsTheFrameLimitAfterAPressureShrink) {
  const bool saved_mem = obs::detail::toggles().mem.load();
  const std::uint64_t saved_budget = obs::mem_budget();
  obs::set_mem_enabled(true);
  obs::set_mem_budget(0);
  obs::mem_clear();
  {
    memory_device dev;
    fill_device(dev, 32);
    page_cache cache(dev, {kPage, 16});
    EXPECT_EQ(cache.prefetch_window(), 4u);
    // Push the ledger past the budget: soft then hard halves the bound
    // twice, 16 -> 8 -> 4 frames.
    obs::set_mem_budget(1000);
    obs::mem_tracker hog(obs::mem_subsystem::frontier);
    hog.set(4000);
    obs::mem_pressure_poll();
    EXPECT_EQ(cache.prefetch_window(), 1u);
    EXPECT_EQ(cache.prefetch(page_ids(0, 9)), 4u);
    EXPECT_EQ(obs::mem_snapshot(-1).cache_frames, 4.0 * kPage);
    for (std::uint64_t p = 0; p < 4; ++p) {
      EXPECT_TRUE(page_matches(cache.get(p).data(), p));
    }
    EXPECT_EQ(cache.stats().hits, 4u);
    hog.set(0);
    obs::set_mem_budget(0);
  }
  obs::mem_clear();
  obs::set_mem_budget(saved_budget);
  obs::set_mem_enabled(saved_mem);
}

TEST(PageCachePrefetch, WindowIsWholeDeviceWavesInAQuarterOfTheFrames) {
  memory_device dev;
  sim_nvram_device nvram(dev, {std::chrono::microseconds(1),
                               std::chrono::microseconds(1), 8});
  EXPECT_EQ(page_cache(nvram, {kPage, 128}).prefetch_window(), 32u);
  EXPECT_EQ(page_cache(nvram, {kPage, 100}).prefetch_window(), 24u);
  EXPECT_EQ(page_cache(nvram, {kPage, 20}).prefetch_window(), 5u);
  EXPECT_EQ(page_cache(nvram, {kPage, 2}).prefetch_window(), 1u);
  EXPECT_EQ(page_cache(dev, {kPage, 20}).prefetch_window(), 5u);
}

TEST(PageCachePrefetch, PageDroppedByFaultEvictionRefaults) {
  memory_device dev;
  fill_device(dev, 4);
  page_cache::config cfg{kPage, 4};
  cfg.faults.seed = 9;
  cfg.faults.evict_prob = 1.0;  // every get() drops a clean frame first
  page_cache cache(dev, cfg);
  EXPECT_EQ(cache.prefetch(page_ids(1, 1)), 1u);
  const auto ref = cache.get(1);  // the injected drop takes page 1
  EXPECT_TRUE(page_matches(ref.data(), 1));
  const auto s = cache.stats();
  EXPECT_EQ(s.fault_evictions, 1u);
  EXPECT_EQ(s.prefetched, 1u);
  EXPECT_EQ(s.prefetch_unused, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.dev_bytes_read, 2u * kPage);
}

TEST(PageCachePrefetch, AccountingAndStatsTraitsRoundTrip) {
  const bool saved = obs::metrics_on();
  obs::set_metrics_enabled(true);
  auto& reg = obs::metrics_registry::instance();
  auto& r_prefetched = reg.get_counter("cache.prefetched");
  auto& r_unused = reg.get_counter("cache.prefetch_unused");
  auto& r_dev_read = reg.get_counter("cache.dev_bytes_read");
  const std::uint64_t prefetched0 = r_prefetched.value();
  const std::uint64_t unused0 = r_unused.value();
  const std::uint64_t dev_read0 = r_dev_read.value();

  memory_device dev;
  fill_device(dev, 16);
  page_cache cache(dev, {kPage, 8});
  EXPECT_EQ(cache.prefetch(page_ids(0, 3)), 4u);
  // A prefetched page's first get() is a hit, and so is every later one.
  for (std::uint64_t p = 0; p < 2; ++p) {
    EXPECT_TRUE(page_matches(cache.get(p).data(), p));
    EXPECT_TRUE(page_matches(cache.get(p).data(), p));
  }
  // Eight demand misses cycle the pool: pages 2 and 3 go unread.
  for (std::uint64_t p = 8; p < 16; ++p) (void)cache.get(p);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.misses, 8u);
  EXPECT_EQ(s.prefetched, 4u);
  EXPECT_EQ(s.prefetch_unused, 2u);
  EXPECT_EQ(s.dev_bytes_read, 12u * kPage);
  EXPECT_EQ(r_prefetched.value() - prefetched0, s.prefetched);
  EXPECT_EQ(r_unused.value() - unused0, s.prefetch_unused);
  EXPECT_EQ(r_dev_read.value() - dev_read0, s.dev_bytes_read);

  // The new fields travel through the shared stats conventions.
  const obs::json j = obs::stats_to_json(s);
  ASSERT_NE(j.find("prefetched"), nullptr);
  EXPECT_EQ(j.find("prefetched")->as_u64(), 4u);
  ASSERT_NE(j.find("prefetch_unused"), nullptr);
  EXPECT_EQ(j.find("prefetch_unused")->as_u64(), 2u);
  page_cache::cache_stats twice = s;
  obs::stats_add(twice, s);
  EXPECT_EQ(twice.prefetched, 8u);
  EXPECT_EQ(obs::stats_delta(twice, s).prefetch_unused, 2u);
  obs::stats_reset(twice);
  EXPECT_EQ(twice.prefetched, 0u);
  obs::set_metrics_enabled(saved);
}

TEST(PageCachePrefetch, ConcurrentPrefetchAndGetSeeConsistentData) {
  memory_device dev;
  constexpr std::size_t kPages = 96;
  fill_device(dev, kPages);
  sim_nvram_device nvram(dev, {std::chrono::microseconds(20),
                               std::chrono::microseconds(20), 8});
  page_cache cache(nvram, {kPage, 24});
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> gets{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto rng = util::make_stream(71, static_cast<std::uint64_t>(t));
      std::vector<std::uint64_t> window;
      for (int i = 0; i < 150; ++i) {
        const std::uint64_t first = rng.uniform_below(kPages - 6);
        if (t % 2 == 0) {
          window = page_ids(first, first + 5);
          (void)cache.prefetch(window);
        }
        for (std::uint64_t p = first; p < first + 6; ++p) {
          const auto ref = cache.get(p);
          gets.fetch_add(1);
          if (!page_matches(ref.data(), p)) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, gets.load());
  EXPECT_GT(s.prefetched, 0u);
  EXPECT_EQ(s.dev_bytes_read, (s.misses + s.prefetched) * kPage);
}

}  // namespace
}  // namespace sfg::storage
