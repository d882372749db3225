/// Critical-path analyzer + validator tests (obs/critpath.hpp) over
/// hand-built ring fragments: local attribution, the wire jump across a
/// matched packet edge, the termination-straggler jump, untracked gaps,
/// levels bounded by the traversal window, ring overflow (whole and
/// partial), and the validator's rejection of broken sections.
#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/phase.hpp"

namespace sfg::obs {
namespace {

constexpr auto kVisit = static_cast<std::uint64_t>(phase::visit);
constexpr auto kPoll = static_cast<std::uint64_t>(phase::poll);
constexpr auto kTerm = static_cast<std::uint64_t>(phase::term);

json make_frag(int rank) {
  json f = json::object();
  f["rank"] = static_cast<std::int64_t>(rank);
  f["dropped"] = std::uint64_t{0};
  f["events"] = json::array();
  return f;
}

/// Append one event in critpath_fragment()'s shape: [t0, t1) becomes
/// ts_us plus dur_us (left out for a point event, t1 == t0).
void add_event(json& frag, const char* kind, std::uint64_t t0,
               std::uint64_t t1, std::uint64_t a = 0, std::uint64_t b = 0) {
  json ev = json::object();
  ev["ts_us"] = t0;
  ev["kind"] = kind;
  ev["a"] = a;
  ev["b"] = b;
  if (t1 > t0) ev["dur_us"] = t1 - t0;
  frag["events"].push_back(std::move(ev));
  frag["recorded"] = frag["events"].size();
}

std::uint64_t num(const json& o, const char* key) {
  const json* v = o.find(key);
  return (v != nullptr && v->is_number())
             ? static_cast<std::uint64_t>(v->as_double())
             : 0;
}

std::string str(const json& o, const char* key) {
  const json* v = o.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::string();
}

void expect_valid(const json& section) {
  std::vector<std::string> errors;
  EXPECT_TRUE(critpath_validate(section, &errors));
  for (const auto& e : errors) ADD_FAILURE() << e;
}

TEST(Critpath, NullWithoutTraversalWindow) {
  json frags = json::array();
  json f = make_frag(0);
  add_event(f, "phase_seg", 100, 200, kVisit);
  frags.push_back(std::move(f));
  EXPECT_TRUE(critpath_analyze(frags).is_null());
  EXPECT_TRUE(critpath_analyze(json::array()).is_null());
  EXPECT_TRUE(critpath_analyze(json()).is_null());
}

TEST(Critpath, SingleRankLocalAttribution) {
  json frags = json::array();
  json f = make_frag(0);
  add_event(f, "traversal_begin", 1000, 1000, 1, 1);
  add_event(f, "phase_seg", 1000, 2000, kVisit);
  add_event(f, "traversal_end", 2000, 2000, 1, 1);
  frags.push_back(std::move(f));

  const json section = critpath_analyze(frags);
  ASSERT_TRUE(section.is_object());
  EXPECT_EQ(str(section, "schema"), "sfg-critpath/1");
  EXPECT_EQ(num(section, "wall_us"), 1000u);
  EXPECT_EQ(num(section, "t0_us"), 1000u);
  EXPECT_EQ(num(section, "t1_us"), 2000u);

  const json* segs = section.find("segments");
  ASSERT_NE(segs, nullptr);
  ASSERT_EQ(segs->size(), 1u);
  EXPECT_EQ(str(segs->at(0), "kind"), "visit");
  EXPECT_EQ(num(segs->at(0), "dur_us"), 1000u);
  expect_valid(section);
}

TEST(Critpath, BeginMarkerAtTraceEpochOpensTheWindow) {
  // The first timestamp a process takes defines the trace epoch, so the
  // first traversal's begin marker on the first rank to reach it reads 0.
  // That is a marker like any other: the window must start there and the
  // walk must end on the rank that left last.
  json frags = json::array();
  json f0 = make_frag(0);
  add_event(f0, "traversal_begin", 0, 0, 1, 2);
  add_event(f0, "phase_seg", 0, 800, kVisit);
  add_event(f0, "traversal_end", 800, 800, 1, 2);
  frags.push_back(std::move(f0));
  json f1 = make_frag(1);
  add_event(f1, "traversal_begin", 10, 10, 1, 2);
  add_event(f1, "phase_seg", 10, 500, kVisit);
  add_event(f1, "traversal_end", 500, 500, 1, 2);
  frags.push_back(std::move(f1));

  const json section = critpath_analyze(frags);
  ASSERT_TRUE(section.is_object());
  EXPECT_EQ(num(section, "t0_us"), 0u);
  EXPECT_EQ(num(section, "t1_us"), 800u);
  EXPECT_EQ(num(section, "wall_us"), 800u);
  const json* segs = section.find("segments");
  ASSERT_NE(segs, nullptr);
  ASSERT_EQ(segs->size(), 1u);
  EXPECT_EQ(num(segs->at(0), "rank"), 0u);
  EXPECT_EQ(num(segs->at(0), "dur_us"), 800u);
  expect_valid(section);
}

TEST(Critpath, WireJumpFollowsPacketToSender) {
  json frags = json::array();
  // Rank 0 does the early work, flushes a packet to rank 1 at t=1600
  // (seq 5), and leaves early.
  json f0 = make_frag(0);
  add_event(f0, "traversal_begin", 1000, 1000, 1, 2);
  add_event(f0, "phase_seg", 1000, 1600, kVisit);
  add_event(f0, "mbox_flush", 1600, 1600, /*next_hop=*/1, /*seq=*/5);
  add_event(f0, "phase_seg", 1600, 1700, kPoll);
  add_event(f0, "traversal_end", 1700, 1700, 1, 2);
  frags.push_back(std::move(f0));
  // Rank 1 polls until the packet lands at t=2000, then finishes last.
  json f1 = make_frag(1);
  add_event(f1, "traversal_begin", 1000, 1000, 1, 2);
  add_event(f1, "phase_seg", 1000, 2500, kPoll);
  add_event(f1, "mbox_packet", 2000, 2000, /*source=*/0, /*seq=*/5);
  add_event(f1, "phase_seg", 2500, 3000, kVisit);
  add_event(f1, "traversal_end", 3000, 3000, 1, 2);
  frags.push_back(std::move(f1));

  const json section = critpath_analyze(frags);
  ASSERT_TRUE(section.is_object());
  EXPECT_EQ(num(section, "wall_us"), 2000u);

  const json* segs = section.find("segments");
  ASSERT_NE(segs, nullptr);
  ASSERT_EQ(segs->size(), 4u);
  // rank 0 computing -> packet on the wire -> rank 1 polling tail ->
  // rank 1 computing.
  EXPECT_EQ(num(segs->at(0), "rank"), 0u);
  EXPECT_EQ(str(segs->at(0), "kind"), "visit");
  EXPECT_EQ(str(segs->at(1), "kind"), "wire");
  EXPECT_EQ(num(segs->at(1), "t0_us"), 1600u);
  EXPECT_EQ(num(segs->at(1), "t1_us"), 2000u);
  EXPECT_EQ(num(segs->at(1), "src"), 0u);
  EXPECT_EQ(num(segs->at(1), "dst"), 1u);
  EXPECT_EQ(str(segs->at(2), "kind"), "poll");
  EXPECT_EQ(num(segs->at(2), "rank"), 1u);
  EXPECT_EQ(str(segs->at(3), "kind"), "visit");
  EXPECT_EQ(num(segs->at(3), "rank"), 1u);

  // The wire channel shows up as its own blame key.
  const json* blame = section.find("blame");
  ASSERT_NE(blame, nullptr);
  bool wire_blamed = false;
  for (std::size_t i = 0; i < blame->size(); ++i) {
    if (str(blame->at(i), "kind") == "wire 0->1") wire_blamed = true;
  }
  EXPECT_TRUE(wire_blamed);
  expect_valid(section);
}

TEST(Critpath, TermJumpBlamesStraggler) {
  json frags = json::array();
  // Rank 0 finishes its work fast and waits in termination.
  json f0 = make_frag(0);
  add_event(f0, "traversal_begin", 1000, 1000, 1, 2);
  add_event(f0, "phase_seg", 1000, 2000, kVisit);
  add_event(f0, "phase_seg", 2000, 4000, kTerm);
  add_event(f0, "traversal_end", 4000, 4000, 1, 2);
  frags.push_back(std::move(f0));
  // Rank 1 is the straggler: computes until 3500.
  json f1 = make_frag(1);
  add_event(f1, "traversal_begin", 1000, 1000, 1, 2);
  add_event(f1, "phase_seg", 1000, 3500, kVisit);
  add_event(f1, "phase_seg", 3500, 3990, kTerm);
  add_event(f1, "traversal_end", 3990, 3990, 1, 2);
  frags.push_back(std::move(f1));

  const json section = critpath_analyze(frags);
  ASSERT_TRUE(section.is_object());
  const json* segs = section.find("segments");
  ASSERT_NE(segs, nullptr);
  ASSERT_EQ(segs->size(), 2u);
  EXPECT_EQ(num(segs->at(0), "rank"), 1u);
  EXPECT_EQ(str(segs->at(0), "kind"), "visit");
  EXPECT_EQ(num(segs->at(0), "dur_us"), 2500u);
  EXPECT_EQ(num(segs->at(1), "rank"), 0u);
  EXPECT_EQ(str(segs->at(1), "kind"), "term");

  // The top blame entry is the straggler's compute, not the waiter.
  const json* blame = section.find("blame");
  ASSERT_NE(blame, nullptr);
  ASSERT_GE(blame->size(), 1u);
  EXPECT_EQ(num(blame->at(0), "rank"), 1u);
  EXPECT_EQ(str(blame->at(0), "kind"), "visit");
  expect_valid(section);
}

TEST(Critpath, GapBecomesUntracked) {
  json frags = json::array();
  json f = make_frag(0);
  add_event(f, "traversal_begin", 1000, 1000, 1, 1);
  add_event(f, "phase_seg", 2000, 3000, kVisit);  // nothing before t=2000
  add_event(f, "traversal_end", 3000, 3000, 1, 1);
  frags.push_back(std::move(f));

  const json section = critpath_analyze(frags);
  ASSERT_TRUE(section.is_object());
  const json* segs = section.find("segments");
  ASSERT_NE(segs, nullptr);
  ASSERT_EQ(segs->size(), 2u);
  EXPECT_EQ(str(segs->at(0), "kind"), "untracked");
  EXPECT_EQ(num(segs->at(0), "t0_us"), 1000u);
  EXPECT_EQ(num(segs->at(0), "t1_us"), 2000u);
  EXPECT_EQ(str(segs->at(1), "kind"), "visit");
  // The gap still yields a connected, full-coverage chain.
  expect_valid(section);
}

TEST(Critpath, LevelsCarryBarrierTimestamps) {
  json frags = json::array();
  json f = make_frag(0);
  add_event(f, "traversal_begin", 1000, 1000, 1, 1);
  add_event(f, "bfs_level", 1200, 1200, /*level=*/0, /*bottom_up=*/0);
  add_event(f, "bfs_level", 1800, 1800, /*level=*/1, /*bottom_up=*/1);
  add_event(f, "phase_seg", 1000, 2000, kVisit);
  add_event(f, "traversal_end", 2000, 2000, 1, 1);
  frags.push_back(std::move(f));

  const json section = critpath_analyze(frags);
  ASSERT_TRUE(section.is_object());
  const json* levels = section.find("levels");
  ASSERT_NE(levels, nullptr);
  ASSERT_EQ(levels->size(), 2u);
  EXPECT_EQ(num(levels->at(0), "level"), 0u);
  EXPECT_EQ(num(levels->at(0), "ts_us"), 1200u);
  EXPECT_EQ(num(levels->at(1), "level"), 1u);
  EXPECT_EQ(num(levels->at(1), "ts_us"), 1800u);
  const json* bu = levels->at(1).find("bottom_up");
  ASSERT_NE(bu, nullptr);
  EXPECT_TRUE(bu->is_bool() && bu->as_bool());
}

TEST(Critpath, LevelsOutsideTheWindowAreIgnored) {
  // An async traversal after a hybrid one: the hybrid's level markers
  // still sit in the ring before the async window opens, so they must not
  // label the async traversal.
  json frags = json::array();
  json f = make_frag(0);
  add_event(f, "bfs_level", 500, 500, /*level=*/4, /*bottom_up=*/0);
  add_event(f, "traversal_begin", 1000, 1000, 2, 1);
  add_event(f, "phase_seg", 1000, 2000, kVisit);
  add_event(f, "traversal_end", 2000, 2000, 2, 1);
  frags.push_back(std::move(f));

  const json section = critpath_analyze(frags);
  ASSERT_TRUE(section.is_object());
  EXPECT_EQ(section.find("levels"), nullptr);
  expect_valid(section);
}

TEST(Critpath, ValidatorRejectsWrongSchema) {
  json section = json::object();
  section["schema"] = "sfg-bogus/1";
  std::vector<std::string> errors;
  EXPECT_FALSE(critpath_validate(section, &errors));
  EXPECT_FALSE(errors.empty());
}

TEST(Critpath, IncompleteSectionCountsDropsAndFailsValidation) {
  // Two rings that wrapped (3 and 4 events lost) and no window marker
  // left: the analyzer gives up, and the stand-in section carries the
  // summed drop count that the validator's message names.
  json frags = json::array();
  for (int r = 0; r < 2; ++r) {
    json f = make_frag(r);
    add_event(f, "phase_seg", 100, 200, kVisit);
    f["dropped"] = static_cast<std::uint64_t>(3 + r);
    frags.push_back(std::move(f));
  }
  ASSERT_TRUE(critpath_analyze(frags).is_null());
  const json section = critpath_incomplete(frags);
  EXPECT_EQ(section.find("schema")->as_string(), "sfg-critpath/1");
  EXPECT_TRUE(section.find("incomplete")->as_bool());
  EXPECT_EQ(section.find("dropped")->as_u64(), 7u);
  std::vector<std::string> errors;
  EXPECT_FALSE(critpath_validate(section, &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("dropped 7 events"), std::string::npos)
      << errors.front();
}

TEST(Critpath, PartialOverflowIsIncomplete) {
  // Rank 0 still holds its window; rank 1's ring wrapped past its
  // traversal_begin (its fragment is empty, 9 events dropped).  A chain
  // that never visits rank 1 would pass for a whole one, so the analyzer
  // gives up and the stand-in section names the drops.
  json frags = json::array();
  json f0 = make_frag(0);
  add_event(f0, "traversal_begin", 1000, 1000, 1, 2);
  add_event(f0, "phase_seg", 1000, 2000, kVisit);
  add_event(f0, "traversal_end", 2000, 2000, 1, 2);
  frags.push_back(std::move(f0));
  json f1 = make_frag(1);
  f1["recorded"] = std::uint64_t{25};
  f1["dropped"] = std::uint64_t{9};
  frags.push_back(std::move(f1));

  ASSERT_TRUE(critpath_analyze(frags).is_null());
  const json section = critpath_incomplete(frags);
  EXPECT_EQ(section.find("dropped")->as_u64(), 9u);
  std::vector<std::string> errors;
  EXPECT_FALSE(critpath_validate(section, &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("dropped 9 events"), std::string::npos)
      << errors.front();
  EXPECT_NE(errors.front().find("SFG_EVENTS"), std::string::npos)
      << errors.front();
}

TEST(Critpath, ValidatorRejectsBrokenChain) {
  // Hand-built section whose only segment starts 50us after the window
  // opens: durations and fractions are self-consistent, but the chain is
  // not connected to t0_us.
  json section = json::object();
  section["schema"] = "sfg-critpath/1";
  section["wall_us"] = std::uint64_t{1000};
  section["t0_us"] = std::uint64_t{1000};
  section["t1_us"] = std::uint64_t{2000};
  section["coverage"] = 0.95;
  section["ranks"] = json::array();
  json seg = json::object();
  seg["rank"] = std::int64_t{0};
  seg["kind"] = "visit";
  seg["t0_us"] = std::uint64_t{1050};
  seg["t1_us"] = std::uint64_t{2000};
  seg["dur_us"] = std::uint64_t{950};
  seg["frac"] = 0.95;
  json segs = json::array();
  segs.push_back(std::move(seg));
  section["segments"] = std::move(segs);
  json blame_entry = json::object();
  blame_entry["rank"] = std::int64_t{0};
  blame_entry["kind"] = "visit";
  blame_entry["dur_us"] = std::uint64_t{950};
  blame_entry["frac"] = 0.95;
  json blame = json::array();
  blame.push_back(std::move(blame_entry));
  section["blame"] = std::move(blame);

  std::vector<std::string> errors;
  EXPECT_FALSE(critpath_validate(section, &errors));
  bool chain_error = false;
  for (const auto& e : errors) {
    if (e.find("chain") != std::string::npos) chain_error = true;
  }
  EXPECT_TRUE(chain_error);
}

}  // namespace
}  // namespace sfg::obs
