/// \file visitor_queue.hpp
/// The distributed asynchronous visitor queue — the paper's Algorithm 1
/// and the driver of every traversal in this library.
///
/// An algorithm is a *visitor* type V (paper Table I):
///   vertex_locator vertex;                    // where to execute
///   bool pre_visit(State&) const;             // cheap gate, runs on the
///                                             //   vertex's (or a ghost's)
///                                             //   state; true = proceed
///   void visit(Graph&, slot, VState&, VQ&);   // main procedure; may push
///   bool operator<(const V&) const;           // local priority (min-heap)
///   static constexpr bool uses_ghosts;        // monotone pre_visit, so
///                                             //   sender-side filters OK?
///
/// Flow, exactly as Algorithm 1:
///   push():          ghost pre_visit filter (if any) -> mailbox.send to
///                    the vertex's master (min_owner) partition; for
///                    monotone visitors also inline delivery to local
///                    masters and the send-cache filter (see push())
///   check_mailbox(): pre_visit on the local state; on success queue
///                    locally AND forward down the replica chain
///   global_empty():  Mattern counting quiescence detection over a tree
///   do_traversal():  poll mailbox / run local visitors until quiescent
///
/// Local ordering: min-heap by the visitor's operator<, ties broken by
/// vertex locator — the paper's external-memory locality optimization
/// (§V-A): equal-priority visitors execute in vertex order, maximizing
/// page-level locality of the CSR behind the page cache.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/local_queue.hpp"
#include "graph/partitioner.hpp"
#include "mailbox/routed_mailbox.hpp"
#include "obs/critpath.hpp"
#include "obs/events.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/run_report.hpp"
#include "obs/timeseries.hpp"
#include "obs/stats_fields.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "runtime/comm.hpp"
#include "runtime/termination.hpp"
#include "util/rng.hpp"

namespace sfg::core {

/// queue_config::send_cache_slots default: next power of two of the local
/// slot count, at least kSendCacheMinSlots.
inline constexpr std::size_t kSendCacheAuto =
    std::numeric_limits<std::size_t>::max();
inline constexpr std::size_t kSendCacheMinSlots = 1024;

struct queue_config {
  mailbox::topology topo = mailbox::topology::direct;
  std::size_t aggregation_bytes = 1 << 13;
  int data_tag = 1;
  int control_tag = 2;
  /// Master toggle for sender-side filtering — hub ghosts and the send
  /// cache (ANDed with Visitor::uses_ghosts); lets benches measure the
  /// filters on/off without touching the algorithm.
  bool use_ghosts = true;
  /// Direct-mapped send-cache entries per rank (see visitor_queue::push):
  /// kSendCacheAuto sizes it from the rank's slot count, 0 turns it off,
  /// any other value is rounded up to a power of two.
  std::size_t send_cache_slots = kSendCacheAuto;
  /// Local visitors executed between mailbox polls.
  int batch_size = 64;
  order_tiebreak tiebreak = order_tiebreak::vertex_locality;
  /// Local-queue container (core/local_queue.hpp): `automatic` picks the
  /// bucketed queue for visitors with an integral priority_key() and the
  /// reference heap otherwise; `heap`/`bucket` force one (benches and
  /// equivalence tests).
  queue_impl impl = queue_impl::automatic;
  /// Fault injection for this traversal (runtime/fault.hpp): the stall
  /// knobs make this rank sleep mid-traversal between poll iterations,
  /// deterministically per (faults.seed, rank, iteration).  Transport
  /// faults (delay/reorder/duplicate) are a property of the world the
  /// graph's comm lives in; carrying the same struct here lets the chaos
  /// harness hand one schedule to both layers.  Inert by default.
  runtime::fault_params faults{};
};

struct traversal_stats {
  std::uint64_t visitors_pushed = 0;     ///< push() calls
  /// Records handed to the mailbox, plus inline local deliveries.
  std::uint64_t visitors_sent = 0;
  /// Records received + pre_visited, plus inline local deliveries.
  std::uint64_t visitors_delivered = 0;
  std::uint64_t visitors_executed = 0;   ///< visit() calls
  std::uint64_t ghost_filtered = 0;      ///< pushes suppressed by a hub ghost
  std::uint64_t cache_filtered = 0;      ///< pushes suppressed by the send cache
  std::uint64_t pre_visit_rejected = 0;  ///< deliveries gated out
  std::uint32_t termination_waves = 0;
  /// Mailbox-level view of this traversal: the mailbox's own stats struct
  /// embedded whole (delta over the traversal, so reused queues report
  /// per-traversal numbers), instead of hand-copied fields.
  mailbox::routed_mailbox::mailbox_stats mailbox{};
  /// Phase-attributed self time of this rank's poll loop (obs/phase.hpp):
  /// where the traversal's wall clock actually went.  Folded from the
  /// thread-local phase slots at do_traversal exit; empty unless metrics
  /// or time-series sampling were on.
  obs::phase_stats phase{};
};

}  // namespace sfg::core

/// Reflection for the shared stats conventions (delta / add / reset /
/// to_json / to_registry) — see obs/stats_fields.hpp.  The embedded
/// mailbox snapshot recurses through its own traits.
template <>
struct sfg::obs::stats_traits<sfg::core::traversal_stats> {
  using S = sfg::core::traversal_stats;
  static constexpr auto fields = std::make_tuple(
      stats_field{"visitors_pushed", &S::visitors_pushed},
      stats_field{"visitors_sent", &S::visitors_sent},
      stats_field{"visitors_delivered", &S::visitors_delivered},
      stats_field{"visitors_executed", &S::visitors_executed},
      stats_field{"ghost_filtered", &S::ghost_filtered},
      stats_field{"cache_filtered", &S::cache_filtered},
      stats_field{"pre_visit_rejected", &S::pre_visit_rejected},
      stats_field{"termination_waves", &S::termination_waves},
      stats_field{"mailbox", &S::mailbox},
      stats_field{"phase", &S::phase});
};

namespace sfg::core {

/// One traversal's lifecycle, shared by visitor_queue::do_traversal and
/// the level-synchronous BFS driver (core/bfs_hybrid.hpp), so both drivers
/// publish and report through one path:
///   constructor — the begin marks: trace span, traversal_begin event,
///                 RSS baseline, wall start, phase and mailbox snapshots;
///   finish()    — the end fold (mailbox/phase deltas and termination
///                 waves into the driver's traversal_stats, end marks,
///                 registry publish, final time-series sample), the
///                 collective report entry, and the epoch barrier.
/// With every lens off, finish() adds no collective beyond the report
/// gate's broadcast and allocates nothing.
class traversal_lifecycle {
 public:
  traversal_lifecycle(runtime::comm& c, const mailbox::routed_mailbox& mb,
                      std::uint64_t ordinal)
      : comm_(&c),
        mailbox_(&mb),
        ordinal_(ordinal),
        wall_start_(std::chrono::steady_clock::now()),
        mail_start_(mb.stats()),
        // Phase attribution (obs/phase.hpp): the drivers' phase scopes
        // partition the traversal's wall time; the delta from here to
        // finish() is this traversal's share.
        phase_start_(obs::phase_snapshot()) {
    // Also the critical-path window marker: the analyzer bounds its walk
    // by the last begin/end pair in each rank's ring (obs/events.hpp).
    obs::event_mark(obs::event_kind::traversal_begin, ordinal_,
                    static_cast<std::uint64_t>(c.size()));
    // Pin the RSS baseline before any traversal allocation (lazy EM frame
    // fills, queue growth, mailbox arenas): the first sample ever becomes
    // the baseline, so coverage measures accounted bytes against what the
    // traversals actually grew, not against the binary + graph load.
    if (obs::mem_on()) (void)obs::mem_sample_rss();
  }
  traversal_lifecycle(const traversal_lifecycle&) = delete;
  traversal_lifecycle& operator=(const traversal_lifecycle&) = delete;

  /// Collective: fold, publish, report, barrier.  `published` is what the
  /// driver last folded into the registry — only the delta since then is
  /// added, so counters stay exact when one driver runs several
  /// traversals.  `max_depth` is this rank's peak local work backlog (the
  /// straggler attribution).  `extra(entry)` runs on rank 0 only, after
  /// the shared sections, and adds the driver's own sections.
  template <typename Extra>
  void finish(traversal_stats& stats, traversal_stats& published,
              std::uint32_t waves, std::uint64_t max_depth, Extra&& extra) {
    // Accumulate (never overwrite): every stats field stays monotonic
    // across traversals, which the published delta relies on.
    stats.termination_waves += waves;
    obs::stats_add(stats.mailbox,
                   obs::stats_delta(mailbox_->stats(), mail_start_));
    obs::stats_add(stats.phase,
                   obs::stats_delta(obs::phase_snapshot(), phase_start_));
    const auto wall_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start_)
            .count());
    obs::event_mark(obs::event_kind::traversal_end, stats.visitors_executed,
                    wall_us);
    span_.set_arg("executed", static_cast<double>(stats.visitors_executed));
    publish_metrics(stats, published, wall_us);
    // Force a final time-series sample so a traversal shorter than
    // SFG_TS_INTERVAL_MS still leaves at least one line per rank.
    obs::ts_flush();
    write_run_report(stats, {wall_us, max_depth, stats.visitors_executed},
                     extra);
    // Epoch boundary: without this, a fast rank could start a *new*
    // traversal and its records would land in a slow rank's still-running
    // old loop — consumed against the old counters and lost to the new
    // ones, so the new traversal's sent/received totals would never
    // balance (livelock).  Every rank has consumed all of this
    // traversal's data before reaching the barrier, so afterwards all
    // inboxes are empty.
    comm_->barrier();
  }

 private:
  /// Straggler inputs each rank contributes to the report.
  struct rank_timing {
    std::uint64_t wall_us;
    std::uint64_t max_queue_depth;
    std::uint64_t executed;
  };

  /// Fold this traversal's activity into the process-wide registry.
  static void publish_metrics(const traversal_stats& stats,
                              traversal_stats& published,
                              std::uint64_t wall_us) {
    // Runs for the sampler too: the time-series "totals" come from these
    // registry counters, so a TS-only run still needs the fold.
    if (!obs::metrics_on() && !obs::ts_on()) return;
    obs::stats_to_registry("traversal", obs::stats_delta(stats, published));
    published = stats;
    // Every rank contributes its wall time, so the registry histogram's
    // p50/p90/p99 spread *is* the traversal's imbalance at a glance.
    obs::metrics_registry::instance()
        .get_histogram("traversal.rank_time_us")
        .record_raw(wall_us);
    // Memory ledger gauges ride the same publish cadence (levels, not
    // deltas, so re-publishing is idempotent).
    obs::mem_publish_registry();
  }

  /// If a metrics report path is configured (SFG_METRICS or
  /// set_metrics_report_path), gather every rank's traversal_stats and
  /// lens fragments and have rank 0 append one entry to the report.
  /// Collective: rank 0 decides, so all ranks agree even if the path is
  /// toggled concurrently; the lens gates are process-wide (ranks are
  /// threads), so all ranks agree on entering each gather too.
  template <typename Extra>
  void write_run_report(const traversal_stats& stats, rank_timing timing,
                        Extra& extra) {
    runtime::comm& c = *comm_;
    const int want = c.broadcast(
        static_cast<int>(c.rank() == 0 &&
                         !obs::metrics_report_path().empty()),
        0);
    if (want == 0) return;
    const std::vector<traversal_stats> all = c.all_gather(stats);
    const std::vector<rank_timing> timings = c.all_gather(timing);
    // Rank x rank traffic matrix (sfg-comm-matrix/1).
    const bool want_matrix = obs::comm_matrix_on();
    obs::json matrix_rows;
    if (want_matrix) matrix_rows = obs::gather_json(c, mailbox_->matrix_json());
    // Critical path (sfg-critpath/1): rank 0 analyzes every rank's ring.
    const bool want_critpath = obs::spans_on();
    obs::json fragments;
    if (want_critpath) fragments = obs::gather_json(c, obs::critpath_fragment());
    // Memory attribution (sfg-mem/1): every rank ships its ledger
    // fragment; rank 0 folds in the process ground truth (RSS, pressure).
    const bool want_mem = obs::mem_on();
    obs::json mem_rows;
    if (want_mem) mem_rows = obs::gather_json(c, obs::mem_rank_json(c.rank()));
    if (c.rank() != 0) return;
    obs::json entry = obs::json::object();
    entry["ranks"] = static_cast<std::uint64_t>(all.size());
    traversal_stats total{};
    obs::json per_rank = obs::json::array();
    for (const auto& s : all) {
      obs::stats_add(total, s);
      per_rank.push_back(obs::stats_to_json(s));
    }
    entry["total"] = obs::stats_to_json(total);
    entry["per_rank"] = std::move(per_rank);
    entry["straggler"] = straggler_summary(timings);
    if (want_matrix) {
      obs::json cm = obs::json::object();
      cm["schema"] = "sfg-comm-matrix/1";
      cm["ranks"] = static_cast<std::uint64_t>(all.size());
      cm["rows"] = std::move(matrix_rows);
      entry["comm_matrix"] = std::move(cm);
    }
    if (want_critpath) {
      // A ring that overflowed loses the window markers: say so, with the
      // drop count, rather than leave the section out.
      obs::json cp = obs::critpath_analyze(fragments);
      entry["critpath"] = cp.is_null() ? obs::critpath_incomplete(fragments)
                                       : std::move(cp);
    }
    if (want_mem) entry["mem"] = obs::mem_section_json(std::move(mem_rows));
    extra(entry);
    obs::append_traversal_report(std::move(entry));
  }

  /// Per-traversal imbalance summary (DESIGN.md §9): max/median/min rank
  /// wall time, the imbalance ratio, and which rank was slowest with
  /// enough attribution (work executed, peak queue depth) to say why.
  static obs::json straggler_summary(const std::vector<rank_timing>& timing) {
    std::vector<std::uint64_t> walls;
    walls.reserve(timing.size());
    for (const auto& t : timing) walls.push_back(t.wall_us);
    std::vector<std::uint64_t> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t max_us = sorted.back();
    const std::uint64_t min_us = sorted.front();
    const std::uint64_t median_us = sorted[sorted.size() / 2];
    const std::size_t slowest = static_cast<std::size_t>(
        std::max_element(walls.begin(), walls.end()) - walls.begin());
    obs::json s = obs::json::object();
    s["max_rank_us"] = max_us;
    s["median_rank_us"] = median_us;
    s["min_rank_us"] = min_us;
    s["imbalance"] = median_us == 0
                         ? 1.0
                         : static_cast<double>(max_us) /
                               static_cast<double>(median_us);
    s["slowest_rank"] = static_cast<std::uint64_t>(slowest);
    obs::json attribution = obs::json::object();
    attribution["wall_us"] = timing[slowest].wall_us;
    attribution["max_queue_depth"] = timing[slowest].max_queue_depth;
    attribution["executed"] = timing[slowest].executed;
    s["slowest"] = std::move(attribution);
    obs::json per_rank = obs::json::array();
    for (const std::uint64_t w : walls) per_rank.push_back(w);
    s["per_rank_wall_us"] = std::move(per_rank);
    return s;
  }

  runtime::comm* comm_;
  const mailbox::routed_mailbox* mailbox_;
  std::uint64_t ordinal_;
  obs::trace_span span_{"traversal", "core"};
  std::chrono::steady_clock::time_point wall_start_;
  mailbox::routed_mailbox::mailbox_stats mail_start_;
  obs::phase_stats phase_start_;
};

template <typename Graph, typename Visitor, typename State>
class visitor_queue {
  static_assert(std::is_trivially_copyable_v<Visitor>,
                "visitors travel as raw bytes");
  // Ownership and replica-chain resolution go exclusively through the
  // partitioned_graph operations (master_rank / next_owner_after /
  // slot_of / ghost lookups).  The queue never assumes contiguous vertex
  // blocks, consecutive owner chains, or any other layout detail — that
  // is what lets every partitioner (edge_list/DBH/HDRF/SNE) and the 1D
  // baseline drive the same traversal code.
  static_assert(graph::partitioned_graph<Graph>,
                "Graph must satisfy the partitioned_graph concept "
                "(graph/partitioner.hpp)");

 public:
  visitor_queue(Graph& g, State& state, queue_config cfg = {})
      : graph_(&g),
        state_(&state),
        cfg_(cfg),
        mailbox_(g.comm(), {cfg.topo, cfg.aggregation_bytes, cfg.data_tag}) {
    if constexpr (Visitor::uses_ghosts) {
      if (cfg_.use_ghosts && cfg_.send_cache_slots != 0) {
        const std::size_t n =
            cfg_.send_cache_slots == kSendCacheAuto
                ? std::max(g.num_slots(), kSendCacheMinSlots)
                : cfg_.send_cache_slots;
        send_cache_.assign(std::bit_ceil(n),
                           cache_entry{kNoVertex, state.init()});
        cache_mem_.set(send_cache_.capacity() * sizeof(cache_entry));
      }
    }
  }

  /// Paper Algorithm 1, PUSH, plus sender-side filtering for monotone
  /// visitors (Visitor::uses_ghosts).  Those take the first path that
  /// applies:
  ///   1. v's master is this rank: deliver inline (pre_visit on the real
  ///      state, local enqueue, replica forward) with no mailbox record;
  ///   2. v is a hub with a local ghost: the paper's ghost filter (§IV-B);
  ///   3. any other remote v: the send cache, a direct-mapped table of
  ///      {locator, State} holding the best value this rank already sent
  ///      toward v — exactly what a ghost records.  A hit runs pre_visit on
  ///      the cached copy and drops the visitor if it fails; a miss
  ///      overwrites the entry from the state's init value first.  An
  ///      eviction only costs a redundant send.
  /// Everything else goes to the mailbox toward v's master.  Other
  /// visitors (k-core, triangles, PageRank, ...) always take the mailbox:
  /// inline delivery for them made triangle counting 2-7x slower.
  ///
  /// Like the ghosts, the cache assumes `state` only improves while this
  /// queue lives; it is never cleared between traversals.
  ///
  /// Causal sampling (trace_context.hpp): 1-in-SFG_TRACE_SAMPLE pushes get
  /// a trace_ctx that rides with the visitor's record through every
  /// mailbox hop and replica forward; the flow opens here ('s') and closes
  /// ('f') at exactly one downstream terminal — ghost or cache suppression
  /// here, pre_visit rejection, or acceptance at the end of the owner
  /// chain — so Chrome/Perfetto draws the full cross-rank chain as one
  /// arrow path.
  void push(const Visitor& v) {
    ++stats_.visitors_pushed;
    const int dest = graph_->master_rank(v.vertex);
    const obs::trace_ctx ctx =
        obs::sample_trace_ctx(graph_->rank(), v.vertex.bits());
    if (ctx != 0) {
      obs::trace_flow_begin("visitor.push", obs::ctx_flow_id(ctx),
                            "visitor_flow", "dest", static_cast<double>(dest));
    }
    if constexpr (Visitor::uses_ghosts) {
      if (dest == graph_->rank()) {
        // Counted as sent and (inside) delivered: sent == delivered holds.
        ++stats_.visitors_sent;
        check_mailbox_visitor(v, ctx);
        return;
      }
      if (cfg_.use_ghosts && filtered_at_sender(v, ctx)) return;
    }
    ++stats_.visitors_sent;
    mailbox_.send(dest, runtime::as_bytes_of(v), ctx);
  }

  /// Paper Algorithm 1, DO_TRAVERSAL: run to global quiescence.
  /// Collective: all ranks must call (after pushing initial visitors).
  void do_traversal() {
    runtime::comm& c = graph_->comm();
    traversal_lifecycle life(c, mailbox_, ++traversal_ordinal_);
    runtime::tree_termination term(c, cfg_.control_tag);
    const bool chaos_on = cfg_.faults.enabled() && cfg_.faults.stall_prob > 0;
    util::chaos_stream chaos(cfg_.faults.seed,
                             0x51A11u ^ static_cast<std::uint64_t>(
                                            graph_->rank()));
    // Ctx-aware delivery: the third parameter is the sampled causal
    // context carried by the record (0 for the unsampled majority).
    auto deliver = [this](int /*origin*/, std::span<const std::byte> bytes,
                          obs::trace_ctx ctx) {
      Visitor v;
      std::memcpy(&v, bytes.data(), sizeof(Visitor));
      this->check_mailbox_visitor(v, ctx);
    };

    // Live straggler gauges: this rank's queue depth, locally-known
    // in-flight records and termination epoch, refreshed every poll
    // iteration so the registry always shows who is dragging.  Handles are
    // resolved once per traversal (registry lookup takes a mutex).  The
    // time-series sampler reads these too, so they update (via the ungated
    // set_raw) whenever either consumer is on.
    obs::gauge* depth_gauge = nullptr;
    obs::gauge* inflight_gauge = nullptr;
    obs::gauge* epoch_gauge = nullptr;
    obs::gauge* executed_gauge = nullptr;
    if (obs::metrics_on() || obs::ts_on()) {
      auto& reg = obs::metrics_registry::instance();
      const std::string prefix =
          "traversal.rank" + std::to_string(graph_->rank());
      depth_gauge = &reg.get_gauge(prefix + ".queue_depth");
      inflight_gauge = &reg.get_gauge(prefix + ".inflight_records");
      epoch_gauge = &reg.get_gauge(prefix + ".term_epoch");
      executed_gauge = &reg.get_gauge(prefix + ".visitors_executed");
    }
    std::uint64_t max_depth = 0;
    for (;;) {
      bool done = false;
      {
        // Everything in the loop body runs under this `idle` scope; the
        // specific phases (poll, visit, mbox_*, term, scan, io_wait) nest
        // inside it and subtract their wall time from its self time, so
        // `idle` ends up meaning exactly "spinning without attributable
        // work".
        const obs::phase_scope iter_scope(obs::phase::idle);
        // Injected rank stall: this rank sleeps mid-traversal while the
        // others keep running — the adversarial scheduling that quiescence
        // detection and replica forwarding must survive.
        if (chaos_on && chaos.decide(cfg_.faults.stall_prob)) {
          const auto stall = chaos.duration_up_to(cfg_.faults.max_stall);
          obs::event_mark(
              obs::event_kind::fault_stall,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(stall)
                      .count()));
          std::this_thread::sleep_for(stall);
        }
        {
          // Receive: control messages feed the detector, data packets feed
          // the mailbox (which delivers local records and re-forwards
          // in-transit ones).
          const obs::phase_scope poll_scope(obs::phase::poll);
          runtime::message m;
          while (c.try_recv(m)) {
            if (m.tag == cfg_.control_tag) {
              term.on_message(m);
            } else {
              mailbox_.process_packet(m, deliver);
            }
          }
          mailbox_.drain_local(deliver);
          // Age clock for the adaptive flush: one tick per poll iteration,
          // so sparse channels stop sitting on records for idle stretches.
          mailbox_.tick();
        }

        // Execute a bounded batch of local visitors, best-first.  One
        // phase scope per batch (not per visitor) keeps the enabled cost
        // off the per-visitor path; adjacency scans and mailbox packing
        // triggered by visit() nest out into their own phases.
        int executed = 0;
        {
          const obs::phase_scope visit_scope(obs::phase::visit);
          for (; executed < cfg_.batch_size && !local_queue_.empty();
               ++executed) {
            const Visitor v = local_queue_.top();
            local_queue_.pop();
            const auto slot = graph_->slot_of(v.vertex);
            assert(slot.has_value());  // only chain ranks enqueue locally
            ++stats_.visitors_executed;
            v.visit(*graph_, *slot, *state_, *this);
          }
        }
        const std::uint64_t depth = local_queue_.size();
        max_depth = std::max(max_depth, depth);
        if (executed > 0) {
          obs::event_mark(obs::event_kind::queue_batch,
                          static_cast<std::uint64_t>(executed), depth);
        }
        if (depth_gauge != nullptr) {
          const auto& ms = mailbox_.stats();
          depth_gauge->set_raw(static_cast<double>(depth));
          // Signed: a net-receiver rank delivers more than it sends, so
          // the locally-known balance can legitimately go negative.
          inflight_gauge->set_raw(static_cast<double>(
              static_cast<std::int64_t>(ms.records_sent) -
              static_cast<std::int64_t>(ms.records_delivered)));
          epoch_gauge->set_raw(static_cast<double>(term.waves_completed()));
          executed_gauge->set_raw(
              static_cast<double>(stats_.visitors_executed));
        }

        // Idle only once everything buffered has been pushed out.
        if (local_queue_.empty()) mailbox_.flush();
        const bool idle = local_queue_.empty() && mailbox_.idle() &&
                          c.inbox_empty();
        done = term.poll(mailbox_.stats().records_sent,
                         mailbox_.stats().records_delivered, idle);
      }
      // Outside the phase scopes: the sampler reads closed-scope self
      // times, so sampling here sees this iteration fully attributed.
      obs::ts_poll();
      // Pressure callbacks (page-cache shrink etc.) dispatch here, with no
      // subsystem locks held — never from the charge that crossed the
      // threshold.  Disarmed: one relaxed load.
      obs::mem_pressure_poll();
      if (done) break;
    }
    life.finish(stats_, published_, term.waves_completed(), max_depth,
                [](obs::json&) {});
  }

  [[nodiscard]] const traversal_stats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const mailbox::routed_mailbox& mail() const noexcept {
    return mailbox_;
  }
  /// Send-cache entries (0 = off or not a monotone visitor).
  [[nodiscard]] std::size_t send_cache_slots() const noexcept {
    return send_cache_.size();
  }

  /// Reset the per-traversal counters (mailbox cumulative counters are
  /// left alone: termination detection relies on them being monotonic).
  void reset_stats() {
    obs::stats_reset(stats_);
    obs::stats_reset(published_);
  }

 private:
  /// Paths 2 and 3 of push(): true if the hub ghost or the send cache
  /// shows `v` cannot improve on what this rank already sent toward it.
  bool filtered_at_sender(const Visitor& v, obs::trace_ctx ctx) {
    if (const auto gslot = graph_->ghost_slot_of(v.vertex)) {
      if (v.pre_visit(state_->ghost(*gslot))) return false;
      ++stats_.ghost_filtered;
      if (ctx != 0) {
        obs::trace_flow_end("visitor.ghost_filtered", obs::ctx_flow_id(ctx));
      }
      return true;
    }
    if (send_cache_.empty()) return false;
    const std::uint64_t bits = v.vertex.bits();
    // Fold the owner bits down before the Fibonacci multiply, so that
    // every locator bit reaches the index bits.
    cache_entry& e = send_cache_[static_cast<std::size_t>(
        ((bits ^ (bits >> 29)) * 0x9E3779B97F4A7C15ull) >> 32 &
        (send_cache_.size() - 1))];
    if (e.bits != bits) {
      e.bits = bits;
      e.state = state_->init();
    }
    if (v.pre_visit(e.state)) return false;
    ++stats_.cache_filtered;
    if (ctx != 0) {
      obs::trace_flow_end("visitor.cache_filtered", obs::ctx_flow_id(ctx));
    }
    return true;
  }

  /// Paper Algorithm 1, CHECK_MAILBOX body for one arriving visitor:
  /// pre_visit the real state; on success queue locally and forward to
  /// the next replica in the vertex's owner chain.
  ///
  /// Flow bookkeeping for a sampled visitor (ctx != 0): the record chain
  /// ends here with exactly one 'f' — pre_visit rejection, or acceptance
  /// at the last rank of the owner chain.  An acceptance that forwards
  /// emits a 't' and passes the (hop-bumped) ctx to the forwarded record,
  /// keeping the chain linear: every sampled push terminates exactly once.
  void check_mailbox_visitor(Visitor v, obs::trace_ctx ctx = 0) {
    ++stats_.visitors_delivered;
    const auto slot = graph_->slot_of(v.vertex);
    // A visitor can only arrive at ranks in the owner chain.
    assert(slot.has_value());
    if (v.pre_visit(state_->local(*slot))) {
      local_queue_.push(v);
      const int next = graph_->next_owner_after(v.vertex, graph_->rank());
      if (next >= 0) {
        ++stats_.visitors_sent;
        if (ctx != 0) {
          ctx = obs::ctx_bump_hop(ctx);
          obs::trace_flow_step("visitor.pre_visit", obs::ctx_flow_id(ctx),
                               "visitor_flow", "next",
                               static_cast<double>(next));
        }
        mailbox_.send(next, runtime::as_bytes_of(v), ctx);
      } else if (ctx != 0) {
        obs::trace_flow_end("visitor.queued", obs::ctx_flow_id(ctx),
                            "visitor_flow", "hops",
                            static_cast<double>(obs::ctx_hops(ctx)));
      }
    } else {
      ++stats_.pre_visit_rejected;
      if (ctx != 0) {
        obs::trace_flow_end("visitor.pre_visit_rejected",
                            obs::ctx_flow_id(ctx));
      }
    }
  }

  using state_value =
      std::remove_cvref_t<decltype(std::declval<State&>().local(0))>;
  struct cache_entry {
    std::uint64_t bits;
    state_value state;
  };
  static constexpr std::uint64_t kNoVertex =
      graph::vertex_locator::invalid().bits();

  Graph* graph_;
  State* state_;
  queue_config cfg_;
  mailbox::routed_mailbox mailbox_;
  /// push() path 3; sized once in the constructor, empty when off.
  std::vector<cache_entry> send_cache_;
  obs::mem_tracker cache_mem_{obs::mem_subsystem::queue_buckets};
  /// Smallest (priority, tie-key) first; container per cfg_.impl — see
  /// core/local_queue.hpp for the bucket/heap split.
  local_queue<Visitor> local_queue_{cfg_.impl, cfg_.tiebreak};
  traversal_stats stats_;
  /// What the last traversal folded into the registry.
  traversal_stats published_;
  std::uint64_t traversal_ordinal_ = 0;
};

}  // namespace sfg::core
