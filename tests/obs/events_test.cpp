/// Event-ring tests (obs/events.hpp, DESIGN.md §9): the gate, wrap-around
/// accounting, in-place clear, both views of the ring — the sfg-flight/1
/// dump with its file, directory and no-path targets, and the critpath
/// fragment cut to the last traversal window — the phase hooks that turn
/// phase scopes into non-overlapping self-time segments, and the black-box
/// path itself: a rank fault inside runtime::launch must leave a parsable
/// dump behind with every participating rank's ring in it.
#include "obs/events.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "runtime/runtime.hpp"
#include "util/log.hpp"

namespace sfg::obs {
namespace {

/// Saves and restores every global ring toggle so tests compose: the ring
/// is process-global state shared with other suites in this binary.
struct EventRing : ::testing::Test {
  bool saved_enabled = events_on();
  bool saved_spans = spans_on();
  std::size_t saved_capacity = event_capacity();
  std::string saved_path = flight_dump_path();
  void SetUp() override {
    set_events_enabled(true);
    set_flight_dump_path("");
    events_clear();
  }
  void TearDown() override {
    set_flight_dump_path(saved_path);
    set_event_capacity(saved_capacity);  // also discards test rings
    set_events_enabled(saved_enabled);
    set_spans_enabled(saved_spans);
    phase_clear_thread();
  }
};

/// Record `n` events as `rank`, values a = 0..n-1, on a dedicated thread
/// (the ring is keyed by the calling thread's rank).
void record_as_rank(int rank, int n) {
  std::thread([rank, n] {
    util::set_thread_rank(rank);
    for (int i = 0; i < n; ++i) {
      event_mark(event_kind::queue_batch, static_cast<std::uint64_t>(i),
                 static_cast<std::uint64_t>(rank));
    }
    util::set_thread_rank(-1);
  }).join();
}

const json* find_rank(const json& doc, std::int64_t rank) {
  const json* ranks = doc.find("ranks");
  if (ranks == nullptr) return nullptr;
  for (std::size_t i = 0; i < ranks->size(); ++i) {
    const json* r = ranks->at(i).find("rank");
    if (r != nullptr && r->as_i64() == rank) return &ranks->at(i);
  }
  return nullptr;
}

std::uint64_t num(const json& o, const char* key) {
  const json* v = o.find(key);
  return (v != nullptr && v->is_number())
             ? static_cast<std::uint64_t>(v->as_double())
             : 0;
}

std::string kind_of(const json& ev) { return ev.find("kind")->as_string(); }

json read_json_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = json::parse(ss.str());
  return doc ? *doc : json();
}

TEST_F(EventRing, DumpHasSchemaAndEventShape) {
  record_as_rank(0, 3);
  const json doc = flight_to_json("unit-test");
  EXPECT_EQ(doc.find("schema")->as_string(), "sfg-flight/1");
  EXPECT_EQ(doc.find("why")->as_string(), "unit-test");
  EXPECT_EQ(doc.find("capacity")->as_u64(), event_capacity());

  const json* entry = find_rank(doc, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("recorded")->as_u64(), 3u);
  EXPECT_EQ(entry->find("dropped")->as_u64(), 0u);
  const json& events = *entry->find("events");
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json& ev = events.at(i);
    ASSERT_NE(ev.find("ts_us"), nullptr);
    EXPECT_EQ(kind_of(ev), "queue_batch");
    EXPECT_EQ(ev.find("a")->as_u64(), i);  // oldest-to-newest
    EXPECT_EQ(ev.find("b")->as_u64(), 0u);
    EXPECT_EQ(ev.find("dur_us"), nullptr) << "point events carry no length";
  }
}

TEST_F(EventRing, IntervalsKeepTheirBounds) {
  // 2^40 us is far past any real interval; the packed length must still
  // come back whole.
  constexpr std::uint64_t kLong = std::uint64_t{1} << 40;
  event_record(event_kind::phase_seg, 100, 200, 3, 1);
  event_record(event_kind::phase_seg, 1000, 1000 + kLong, 7, 0);
  const json doc = flight_to_json("intervals");
  const json* entry = find_rank(doc, -1);
  ASSERT_NE(entry, nullptr);
  const json& events = *entry->find("events");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(kind_of(events.at(0)), "phase_seg");
  EXPECT_EQ(num(events.at(0), "ts_us"), 100u);
  EXPECT_EQ(num(events.at(0), "dur_us"), 100u);
  EXPECT_EQ(num(events.at(0), "a"), 3u);
  EXPECT_EQ(num(events.at(0), "b"), 1u);
  EXPECT_EQ(events.at(1).find("dur_us")->as_u64(), kLong);
  EXPECT_EQ(num(events.at(1), "a"), 7u);
}

TEST_F(EventRing, WrapAroundKeepsNewestAndCountsDropped) {
  constexpr std::size_t kCap = 8;
  constexpr int kEvents = 21;
  set_event_capacity(kCap);
  EXPECT_EQ(event_capacity(), kCap);
  record_as_rank(1, kEvents);

  const json doc = flight_to_json("wrap");
  const json* entry = find_rank(doc, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("recorded")->as_u64(), std::uint64_t{kEvents});
  EXPECT_EQ(entry->find("dropped")->as_u64(), std::uint64_t{kEvents - kCap});
  const json& events = *entry->find("events");
  ASSERT_EQ(events.size(), kCap);
  // Survivors are exactly the newest kCap, oldest-to-newest.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(events.at(i).find("a")->as_u64(), kEvents - kCap + i);
  }
}

TEST_F(EventRing, RecordedHereTracksTotalIncludingOverwritten) {
  set_event_capacity(4);
  std::thread([] {
    util::set_thread_rank(2);
    for (int i = 0; i < 11; ++i) event_mark(event_kind::term_wave);
    EXPECT_EQ(events_recorded_here(), 11u);
    util::set_thread_rank(-1);
  }).join();
}

TEST_F(EventRing, DisabledRecordsNothing) {
  set_events_enabled(false);
  EXPECT_FALSE(events_on());
  record_as_rank(3, 5);
  std::thread([] {
    util::set_thread_rank(3);
    event_record(event_kind::phase_seg, 100, 200, 1, 0);
    util::set_thread_rank(-1);
  }).join();
  const json doc = flight_to_json("off");
  const json* entry = find_rank(doc, 3);
  // Either the ring was never created or it stayed empty.
  if (entry != nullptr) {
    EXPECT_EQ(entry->find("recorded")->as_u64(), 0u);
  }
}

TEST_F(EventRing, ClearEmptiesRingsInPlace) {
  record_as_rank(0, 5);
  events_clear();
  const json cleared = flight_to_json("cleared");
  const json* entry = find_rank(cleared, 0);
  ASSERT_NE(entry, nullptr);  // ring survives, empty
  EXPECT_EQ(entry->find("recorded")->as_u64(), 0u);
  EXPECT_EQ(entry->find("events")->size(), 0u);
  // And it keeps recording after the clear.
  record_as_rank(0, 2);
  const json after = flight_to_json("after");
  entry = find_rank(after, 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("recorded")->as_u64(), 2u);
}

TEST_F(EventRing, CritpathFragmentKeepsTheLastWindowsCritpathKinds) {
  // Two traversals in one ring: the fragment starts at the last
  // traversal_begin and drops the black-box-only kinds.
  event_mark(event_kind::traversal_begin, 1, 1);
  event_mark(event_kind::bfs_level, 0, 0);
  event_mark(event_kind::traversal_end, 10, 5);
  event_mark(event_kind::traversal_begin, 2, 1);
  event_mark(event_kind::queue_batch, 4, 0);
  event_mark(event_kind::mbox_flush, 1, 7);
  event_record(event_kind::phase_seg, 10, 20, 0, 0);
  event_mark(event_kind::term_done, 1);
  event_mark(event_kind::traversal_end, 12, 6);

  const json frag = critpath_fragment();
  EXPECT_EQ(num(frag, "recorded"), 9u);
  EXPECT_EQ(num(frag, "dropped"), 0u);
  const json& events = *frag.find("events");
  std::vector<std::string> kinds;
  for (std::size_t i = 0; i < events.size(); ++i) kinds.push_back(kind_of(events.at(i)));
  EXPECT_EQ(kinds, (std::vector<std::string>{"traversal_begin", "mbox_flush",
                                             "phase_seg", "traversal_end"}));
  EXPECT_EQ(num(events.at(0), "a"), 2u);
  EXPECT_EQ(num(events.at(1), "b"), 7u);
}

TEST_F(EventRing, CritpathFragmentIsEmptyOnceTheBeginIsOverwritten) {
  set_event_capacity(4);
  event_mark(event_kind::traversal_begin, 1, 1);
  for (int i = 0; i < 6; ++i) event_mark(event_kind::mbox_flush, 1, i);
  const json frag = critpath_fragment();
  EXPECT_EQ(num(frag, "recorded"), 7u);
  EXPECT_EQ(num(frag, "dropped"), 3u);
  EXPECT_EQ(frag.find("events")->size(), 0u);
}

TEST_F(EventRing, PhaseHooksRecordNonOverlappingSelfSegmentsOnlyWithSpans) {
  set_spans_enabled(false);
  phase_clear_thread();
  { const phase_scope off(phase::visit); }
  EXPECT_EQ(events_recorded_here(), 0u) << "phase segments need SFG_SPANS";

  set_spans_enabled(true);
  const auto dwell = std::chrono::milliseconds(2);
  {
    const phase_scope outer(phase::visit);
    std::this_thread::sleep_for(dwell);
    {
      const phase_scope inner(phase::poll);
      std::this_thread::sleep_for(dwell);
    }
    std::this_thread::sleep_for(dwell);
  }

  const json doc = flight_to_json("phases");
  const json* entry = find_rank(doc, -1);
  ASSERT_NE(entry, nullptr);
  const json& events = *entry->find("events");
  struct seg {
    std::uint64_t t0, t1, ph, depth;
  };
  std::vector<seg> segs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json& e = events.at(i);
    if (kind_of(e) != "phase_seg") continue;
    segs.push_back({num(e, "ts_us"), num(e, "ts_us") + num(e, "dur_us"),
                    num(e, "a"), num(e, "b")});
  }
  // visit-before-poll, poll, visit-after-poll: three maximal self-time
  // intervals, strictly ordered, never overlapping.
  ASSERT_GE(segs.size(), 3u);
  for (const auto& s : segs) EXPECT_LT(s.t0, s.t1);
  for (std::size_t i = 1; i < segs.size(); ++i) {
    EXPECT_LE(segs[i - 1].t1, segs[i].t0) << "segments overlap at " << i;
  }
  EXPECT_EQ(segs[0].ph, static_cast<std::uint64_t>(phase::visit));
  EXPECT_EQ(segs[0].depth, 0u);
  EXPECT_EQ(segs[1].ph, static_cast<std::uint64_t>(phase::poll));
  EXPECT_EQ(segs[1].depth, 1u);
  EXPECT_EQ(segs[2].ph, static_cast<std::uint64_t>(phase::visit));
  EXPECT_EQ(segs[2].depth, 0u);
}

TEST_F(EventRing, WriteProducesParsableFile) {
  record_as_rank(0, 2);
  const std::string path = ::testing::TempDir() + "events_test_out.json";
  ASSERT_TRUE(flight_write(path, "file"));
  const json doc = read_json_file(path);
  ASSERT_TRUE(doc.is_object()) << "flight dump is not valid JSON";
  EXPECT_EQ(doc.find("schema")->as_string(), "sfg-flight/1");
  std::remove(path.c_str());
}

TEST_F(EventRing, DumpToDirectoryUsesPerProcessName) {
  record_as_rank(0, 1);
  set_flight_dump_path(::testing::TempDir());
  flight_dump("dir");
  const std::string expected = ::testing::TempDir() + "/sfg_flight_" +
                               std::to_string(::getpid()) + ".json";
  std::ifstream in(expected);
  EXPECT_TRUE(in.good()) << "expected dump at " << expected;
  in.close();
  std::remove(expected.c_str());
}

TEST_F(EventRing, DumpWithoutPathIsNoOp) {
  // Fault paths call flight_dump unconditionally; with no configured path
  // it must do nothing (and certainly not throw).
  set_flight_dump_path("");
  record_as_rank(0, 1);
  flight_dump("nowhere");
}

TEST_F(EventRing, RankFaultDumpsEveryRanksRing) {
  // The acceptance path: a rank throws mid-launch; runtime::launch records
  // rank_fault and dumps before poisoning, so the file must exist, parse,
  // and contain a ring for every participating rank — including the ones
  // that were still blocked in the barrier when the fault hit.
  constexpr int kRanks = 4;
  const std::string path = ::testing::TempDir() + "events_fault_dump.json";
  std::remove(path.c_str());
  set_flight_dump_path(path);

  EXPECT_THROW(
      runtime::launch(kRanks,
                      [](runtime::comm& c) {
                        event_mark(event_kind::queue_batch, 1,
                                   static_cast<std::uint64_t>(c.rank()));
                        c.barrier();  // every ring populated before the fault
                        if (c.rank() == 2) {
                          throw std::runtime_error("injected rank fault");
                        }
                        c.barrier();  // survivors park here until poisoned
                      }),
      std::runtime_error);

  const json doc = read_json_file(path);
  ASSERT_TRUE(doc.is_object()) << "rank fault left no parsable dump at " << path;
  EXPECT_EQ(doc.find("why")->as_string(), "rank-fault");
  for (int r = 0; r < kRanks; ++r) {
    const json* entry = find_rank(doc, r);
    ASSERT_NE(entry, nullptr) << "rank " << r << " missing from dump";
    EXPECT_GE(entry->find("recorded")->as_u64(), 1u);
  }
  // The faulting rank's ring ends with the rank_fault marker.
  const json* faulted = find_rank(doc, 2);
  ASSERT_NE(faulted, nullptr);
  const json& events = *faulted->find("events");
  ASSERT_GT(events.size(), 0u);
  const json& last = events.at(events.size() - 1);
  EXPECT_EQ(kind_of(last), "rank_fault");
  EXPECT_EQ(last.find("a")->as_u64(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sfg::obs
