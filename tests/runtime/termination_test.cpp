#include "runtime/termination.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace sfg::runtime {
namespace {

constexpr int kCtrlTag = 100;
constexpr int kDataTag = 1;

/// Drive a detector to completion over a rank's poll loop, processing both
/// control and (counted) data messages.  `work` is invoked on each data
/// message and may send more data; returns the final (sent, recv) counts.
template <typename Detector, typename WorkFn>
std::pair<std::uint64_t, std::uint64_t> drive(comm& c, Detector& det,
                                              std::uint64_t initial_sent,
                                              WorkFn&& work) {
  std::uint64_t sent = initial_sent;
  std::uint64_t recv = 0;
  message m;
  while (true) {
    bool any = false;
    while (c.try_recv(m)) {
      any = true;
      if (m.tag == kCtrlTag) {
        det.on_message(m);
      } else {
        ++recv;
        sent += work(m);
      }
    }
    const bool idle = !any && c.inbox_empty();
    if (det.poll(sent, recv, idle)) break;
  }
  return {sent, recv};
}

class TerminationP : public ::testing::TestWithParam<int> {};

TEST_P(TerminationP, TreeDetectsWithNoWork) {
  launch(GetParam(), [](comm& c) {
    tree_termination det(c, kCtrlTag);
    const auto [sent, recv] =
        drive(c, det, 0, [](const message&) { return 0; });
    EXPECT_EQ(sent, 0u);
    EXPECT_EQ(recv, 0u);
    EXPECT_TRUE(det.finished());
  });
}

TEST_P(TerminationP, TreeDetectsAfterRing) {
  // Each rank sends one message around a ring; each receipt spawns no
  // further work.  All sent == all received at termination.
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    c.send_value((c.rank() + 1) % p, kDataTag, 1);
    const auto [sent, recv] =
        drive(c, det, 1, [](const message&) { return 0; });
    EXPECT_EQ(sent, 1u);
    EXPECT_EQ(recv, 1u);
  });
}

TEST_P(TerminationP, TreeDetectsWithCascadingWork) {
  // Receipt of a message with ttl > 0 spawns a new message with ttl - 1 to
  // a rotating destination: a shrinking cascade that must fully drain
  // before the detector may fire.  Each case seeds one message at `first`
  // and rotates by `stride`; the global total is always ttl + 1.
  const int p = GetParam();
  struct cascade {
    int first;
    int ttl;
    int stride;
  };
  for (const cascade cs : {cascade{p - 1, 20, 3}, cascade{p / 2, 9, 1},
                           cascade{p / 2, 12, 1}}) {
    launch(p, [p, cs](comm& c) {
      tree_termination det(c, kCtrlTag);
      std::uint64_t initial = 0;
      if (c.rank() == 0) {
        c.send_value(cs.first, kDataTag, cs.ttl);
        initial = 1;
      }
      const auto [sent, recv] = drive(c, det, initial, [&](const message& m) {
        const int ttl = m.as<int>();
        if (ttl > 0) {
          c.send_value((c.rank() + cs.stride) % p, kDataTag, ttl - 1);
          return 1;
        }
        return 0;
      });
      const auto total_sent = c.all_reduce(sent, std::plus<>());
      const auto total_recv = c.all_reduce(recv, std::plus<>());
      const auto want = static_cast<std::uint64_t>(cs.ttl + 1);
      EXPECT_EQ(total_sent, want) << "ttl=" << cs.ttl;
      EXPECT_EQ(total_recv, want) << "ttl=" << cs.ttl;
    });
  }
}

TEST_P(TerminationP, TreeRunsMultipleWaves) {
  // With real work in flight, the detector cannot finish in a single wave:
  // the four-counter rule requires two *stable* waves.
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    std::uint64_t initial = 0;
    if (c.rank() == 0) {
      c.send_value(p - 1, kDataTag, 5);
      initial = 1;
    }
    drive(c, det, initial, [&](const message& m) {
      const int ttl = m.as<int>();
      if (ttl > 0) {
        c.send_value((c.rank() + 1) % p, kDataTag, ttl - 1);
        return 1;
      }
      return 0;
    });
    if (c.rank() == 0) {
      EXPECT_GE(det.waves_completed(), 2u);
    }
    c.barrier();
  });
}

TEST_P(TerminationP, TreeNeedsExactlyTwoWavesWithoutWork) {
  // The four-counter rule compares a wave with the one before it, so even
  // a system that was never busy needs one wave to record totals and a
  // second, identical one to confirm them — and no more.
  launch(GetParam(), [](comm& c) {
    tree_termination det(c, kCtrlTag);
    drive(c, det, 0, [](const message&) { return 0; });
    EXPECT_EQ(det.waves_completed(), 2u) << "rank " << c.rank();
  });
}

TEST_P(TerminationP, TreeDetectsAllToAllBurst) {
  // Every rank floods every rank (itself included) before its first poll:
  // p * p * k messages in flight at once, none spawning more work.
  constexpr int k = 5;
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    for (int i = 0; i < k; ++i) {
      for (int d = 0; d < p; ++d) c.send_value(d, kDataTag, i);
    }
    const auto [sent, recv] = drive(c, det, static_cast<std::uint64_t>(k * p),
                                    [](const message&) { return 0; });
    EXPECT_EQ(recv, static_cast<std::uint64_t>(k * p));
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    EXPECT_EQ(total_recv, static_cast<std::uint64_t>(k * p * p));
  });
}

TEST_P(TerminationP, TreeDetectsHubPingPong) {
  // Every rank rallies a ttl-counted ball with rank 0, the tree root: the
  // rank that drives the waves is also the busiest data sink, like a hub
  // owner in a scale-free traversal.
  constexpr int ttl = 6;
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    struct ball {
      int owner;
      int ttl;
    };
    c.send_value(0, kDataTag, ball{c.rank(), ttl});
    const auto [sent, recv] = drive(c, det, 1, [&](const message& m) {
      const auto b = m.as<ball>();
      if (b.ttl == 0) return 0;
      c.send_value(c.rank() == 0 ? b.owner : 0, kDataTag,
                   ball{b.owner, b.ttl - 1});
      return 1;
    });
    const auto total_sent = c.all_reduce(sent, std::plus<>());
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    const auto want = static_cast<std::uint64_t>(p * (ttl + 1));
    EXPECT_EQ(total_sent, want);
    EXPECT_EQ(total_recv, want);
  });
}

TEST_P(TerminationP, TreeWaitsForHeldWork) {
  // A rank that has received a message but not yet processed it (here:
  // parked for a few poll rounds, like a visitor waiting in a local queue)
  // is not idle.  The detector must not fire while any rank holds work,
  // and the work a held message spawns when it is finally processed must
  // be counted too.
  constexpr int kHoldRounds = 3;
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    struct parked {
      message m;
      int rounds_left;
    };
    std::vector<parked> held;
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
    if (c.rank() == 0) {
      c.send_value(p - 1, kDataTag, 10);
      sent = 1;
    }
    message m;
    while (true) {
      bool any = false;
      while (c.try_recv(m)) {
        any = true;
        if (m.tag == kCtrlTag) {
          det.on_message(m);
        } else {
          held.push_back({m, kHoldRounds});
        }
      }
      for (auto it = held.begin(); it != held.end();) {
        if (--it->rounds_left > 0) {
          ++it;
          continue;
        }
        ++recv;
        const int ttl = it->m.as<int>();
        if (ttl > 0) {
          c.send_value((c.rank() + 1) % p, kDataTag, ttl - 1);
          ++sent;
        }
        it = held.erase(it);
      }
      const bool idle = !any && held.empty() && c.inbox_empty();
      if (det.poll(sent, recv, idle)) break;
    }
    EXPECT_TRUE(held.empty()) << "detector fired with parked work";
    const auto total_sent = c.all_reduce(sent, std::plus<>());
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    EXPECT_EQ(total_sent, 11u);
    EXPECT_EQ(total_recv, 11u);
  });
}

TEST_P(TerminationP, TreeBackToBackEpochsShareOneTag) {
  // Traversals run one detector per epoch on the same control tag,
  // separated by a barrier.  No control message of a finished epoch may
  // linger and confuse the next one, and each epoch's counters start
  // fresh.
  const int p = GetParam();
  launch(p, [p](comm& c) {
    for (int epoch = 0; epoch < 3; ++epoch) {
      tree_termination det(c, kCtrlTag);
      const int ttl = 4 + 5 * epoch;
      std::uint64_t initial = 0;
      if (c.rank() == epoch % p) {
        c.send_value((c.rank() + 1) % p, kDataTag, ttl);
        initial = 1;
      }
      const auto [sent, recv] = drive(c, det, initial, [&](const message& m) {
        const int left = m.as<int>();
        if (left > 0) {
          c.send_value((c.rank() + 2) % p, kDataTag, left - 1);
          return 1;
        }
        return 0;
      });
      EXPECT_TRUE(det.finished());
      const auto total_sent = c.all_reduce(sent, std::plus<>());
      const auto total_recv = c.all_reduce(recv, std::plus<>());
      EXPECT_EQ(total_sent, static_cast<std::uint64_t>(ttl + 1))
          << "epoch " << epoch;
      EXPECT_EQ(total_recv, total_sent) << "epoch " << epoch;
      c.barrier();
      EXPECT_TRUE(c.inbox_empty()) << "epoch " << epoch << " left messages";
      c.barrier();
    }
  });
}

/// Like drive(), but hostile: every control message is held back for one
/// poll round and then delivered to the detector TWICE — the at-least-once,
/// delayed delivery a faulty transport produces.  A detector whose control
/// protocol is not idempotent per sequence number either deadlocks (wave
/// state reset mid-collection) or terminates early (double-counted child
/// reports).
template <typename Detector, typename WorkFn>
std::pair<std::uint64_t, std::uint64_t> drive_hostile(comm& c, Detector& det,
                                                      std::uint64_t initial_sent,
                                                      WorkFn&& work) {
  std::uint64_t sent = initial_sent;
  std::uint64_t recv = 0;
  std::vector<message> held;
  message m;
  while (true) {
    bool any = false;
    for (auto& h : held) {
      det.on_message(h);
      det.on_message(h);  // replay
    }
    const bool had_held = !held.empty();
    held.clear();
    while (c.try_recv(m)) {
      any = true;
      if (m.tag == kCtrlTag) {
        held.push_back(m);  // delay to the next round
      } else {
        ++recv;
        sent += work(m);
      }
    }
    const bool idle = !any && !had_held && held.empty() && c.inbox_empty();
    if (det.poll(sent, recv, idle)) break;
  }
  return {sent, recv};
}

TEST_P(TerminationP, TreeToleratesDuplicatedDelayedControl) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    std::uint64_t initial = 0;
    if (c.rank() == 0) {
      c.send_value(p - 1, kDataTag, 20);
      initial = 1;
    }
    const auto [sent, recv] =
        drive_hostile(c, det, initial, [&](const message& m) {
          const int ttl = m.as<int>();
          if (ttl > 0) {
            c.send_value((c.rank() + 3) % p, kDataTag, ttl - 1);
            return 1;
          }
          return 0;
        });
    // Same global invariant as the clean-transport cascade: the replayed
    // wave_req / wave_report / done messages must all be absorbed.
    const auto total_sent = c.all_reduce(sent, std::plus<>());
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    EXPECT_EQ(total_sent, 21u);
    EXPECT_EQ(total_recv, 21u);
    EXPECT_TRUE(det.finished());
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, TerminationP,
                         ::testing::Values(1, 2, 3, 4, 8, 13, 16));

/// Random cascades: each message carries an id and a ttl; receiving one
/// spawns 0-3 children (a pure function of the id) at random ranks.  The
/// spawn tree, and so the global message count, does not depend on the
/// world size or on delivery order, so every rank can compute the expected
/// total serially and the detector must stop exactly when it is reached.
struct cascade_msg {
  std::uint64_t id;
  int ttl;
};

int cascade_children(const cascade_msg& m) {
  return m.ttl == 0 ? 0 : static_cast<int>(util::splitmix64(m.id) % 4);
}

cascade_msg cascade_child(const cascade_msg& m, int j) {
  return {util::splitmix64(m.id ^ (0x9e3779b97f4a7c15ULL *
                                   static_cast<std::uint64_t>(j + 1))),
          m.ttl - 1};
}

std::uint64_t cascade_size(const cascade_msg& m) {
  std::uint64_t n = 1;
  for (int j = 0; j < cascade_children(m); ++j) {
    n += cascade_size(cascade_child(m, j));
  }
  return n;
}

class TerminationRandomP
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TerminationRandomP, TreeStopsExactlyAtCascadeTotal) {
  const auto [p, seed] = GetParam();
  constexpr int kTtl = 9;
  auto seed_of = [seed = seed](int rank) {
    return cascade_msg{util::splitmix64(seed * 1000003ULL +
                                        static_cast<std::uint64_t>(rank)),
                       kTtl};
  };
  std::uint64_t want = 0;
  for (int r = 0; r < p; ++r) want += cascade_size(seed_of(r));

  launch(p, [&, p = p](comm& c) {
    tree_termination det(c, kCtrlTag);
    const cascade_msg first = seed_of(c.rank());
    c.send_value(static_cast<int>(first.id % static_cast<std::uint64_t>(p)),
                 kDataTag, first);
    const auto [sent, recv] = drive(c, det, 1, [&](const message& m) {
      const auto cm = m.as<cascade_msg>();
      const int n = cascade_children(cm);
      for (int j = 0; j < n; ++j) {
        const cascade_msg child = cascade_child(cm, j);
        c.send_value(static_cast<int>(util::splitmix64(child.id + 7) %
                                      static_cast<std::uint64_t>(p)),
                     kDataTag, child);
      }
      return n;
    });
    const auto total_sent = c.all_reduce(sent, std::plus<>());
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    EXPECT_EQ(total_sent, want);
    EXPECT_EQ(total_recv, want);
  });
}

INSTANTIATE_TEST_SUITE_P(
    WorldSizesAndSeeds, TerminationRandomP,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 13, 16),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sfg::runtime
