/// \file main.cpp
/// End-to-end benchmark of the sfg runtime (README.md in this directory).
///
///   sfg_perfbench --workload rmat-mem|rmat-em|sw-mem --seed N --seconds S
///                 --trace 0|1 [--toy] [--trace-out FILE]
///
/// One process runs one workload in-process on p = 4 rank threads under
/// runtime::launch: a closed loop of collective queries, every answer
/// checked against the serial reference outside the timed region.  The
/// input is generated here from the seed; the library only ever sees the
/// per-rank edge slices.  Layers are measured from outside: query_loop.hpp
/// times calls into each module's public functions and reads the stats
/// structs those calls already return.
///
/// --trace 0 prints the end-to-end metrics.  --trace 1 runs the queries
/// untraced, then replays them with the phase lens on and spans recorded
/// around every call, and prints the per-layer metrics.  The last stdout
/// line is the JSON result; progress goes to stderr.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "query_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/stats_fields.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kRanks = 4;
constexpr int kSetupReps = 9;

const clk::time_point g_start = clk::now();

/// Progress line on stderr, stamped with seconds since process start.
void progress(const std::string& what) {
  char stamp[32];
  std::snprintf(stamp, sizeof stamp, "[perfbench %7.2fs] ",
                seconds_since(g_start));
  std::cerr << stamp << what << std::endl;
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

/// Reset the peak-RSS mark (VmHWM) to the current RSS.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double lower_quartile(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 4];
}

/// The highest percentile with at least ten samples beyond it.
struct tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};

tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  const std::size_t idx = v.size() > 10 ? v.size() - 11 : 0;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) /
                 static_cast<double>(v.size());
  return t;
}

/// One query unit of one pass across all ranks; a k-core set's k calls
/// are summed.
struct unit_view {
  std::size_t root = 0;  ///< root (BFS) or graph (triangles) index
  double slowest_s = 0;  ///< sum over sub-calls of the slowest rank's time
  std::array<core::traversal_stats, kRanks> st{};
  std::uint64_t bytes_sent = 0, cache_hits = 0, cache_misses = 0;
  std::uint64_t dev_reads = 0, dev_read_us = 0;
  std::uint64_t levels = 0, claims = 0;
  std::int64_t switch_level = -1;
  std::uint64_t edges = 0;  ///< traversed undirected edges (BFS)
};

std::vector<unit_view> units_of(const std::vector<rank_output>& out, pass in,
                                alg a) {
  std::map<std::size_t, unit_view> by_unit;
  std::map<std::pair<std::size_t, std::size_t>, double> slowest;
  for (std::size_t r = 0; r < out.size(); ++r) {
    for (const auto& rec : out[r].calls) {
      if (rec.in != in || rec.a != a) continue;
      auto& u = by_unit[rec.unit];
      u.root = rec.sub;
      obs::stats_add(u.st[r], rec.st);
      u.bytes_sent += rec.bytes_sent;
      u.cache_hits += rec.cache_hits;
      u.cache_misses += rec.cache_misses;
      u.dev_reads += rec.dev_reads;
      u.dev_read_us += rec.dev_read_us;
      u.levels = rec.levels;
      u.claims = rec.claims;
      u.switch_level = rec.switch_level;
      u.edges += rec.local_edges;
      auto& s = slowest[{rec.unit, rec.sub}];
      s = std::max(s, rec.seconds);
    }
  }
  for (const auto& [key, s] : slowest) by_unit[key.first].slowest_s += s;
  std::vector<unit_view> units;
  for (auto& [id, u] : by_unit) {
    u.edges /= 2;
    units.push_back(u);
  }
  return units;
}

// ---------------------------------------------------------------------------
// Reference answers and checks
// ---------------------------------------------------------------------------

struct reference_answers {
  std::map<std::size_t, std::uint64_t> bfs_digest;  ///< by root index
  std::vector<double> bfs_ms;  ///< serial BFS time per root checked
  std::vector<std::uint64_t> kcore_digest;
  std::vector<std::uint64_t> kcore_size;
  std::uint64_t components = 0;
  std::vector<std::uint64_t> triangles;  ///< per companion graph
};

/// One graph's edge list as per-rank slices.
using slices_t = std::vector<std::vector<gen::edge64>>;

std::vector<gen::edge64> concat(const slices_t& s) {
  std::vector<gen::edge64> all;
  for (const auto& part : s) all.insert(all.end(), part.begin(), part.end());
  return all;
}

/// Vertex count the distributed graph must report: those with an edge.
std::uint64_t vertices_with_edges(const reference::serial_graph& sg) {
  std::uint64_t n = 0;
  for (std::uint64_t v = 0; v < sg.num_vertices(); ++v) n += sg.degree(v) > 0;
  return n;
}

struct check_tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
};

void check_shape(const graph_shape& got, const reference::serial_graph& sg,
                 const std::string& what, check_tally& tally) {
  tally.add(got.total_vertices == vertices_with_edges(sg) &&
                got.total_edges == sg.num_edges(),
            what + " size");
}

reference_answers compute_reference(
    const workload& w, const slices_t& slices,
    const std::vector<slices_t>& tri_slices,
    const std::vector<std::uint64_t>& roots,
    const std::set<std::size_t>& used_roots, const rank_output& rank0,
    check_tally& tally) {
  reference_answers ref;
  const auto sg = reference::serial_graph::from_edges(concat(slices));
  check_shape(rank0.graph, sg, "graph", tally);
  for (const auto r : used_roots) {
    const auto t = clk::now();
    const auto levels = reference::serial_bfs(sg, roots[r]);
    ref.bfs_ms.push_back(seconds_since(t) * 1e3);
    std::uint64_t d = 0;
    for (std::uint64_t v = 0; v < levels.size(); ++v) {
      if (levels[v] != UINT64_MAX) d += mix(v, levels[v]);
    }
    ref.bfs_digest[r] = d;
  }
  for (const auto k : w.ks) {
    const auto alive = reference::serial_kcore(sg, k);
    std::uint64_t d = 0, n = 0;
    for (std::uint64_t v = 0; v < alive.size(); ++v) {
      if (alive[v]) {
        d += mix(v, 1);
        ++n;
      }
    }
    ref.kcore_digest.push_back(d);
    ref.kcore_size.push_back(n);
  }
  const auto labels = reference::serial_components(sg);
  std::unordered_set<std::uint64_t> distinct;
  for (std::uint64_t v = 0; v < labels.size(); ++v) {
    if (sg.degree(v) > 0) distinct.insert(labels[v]);
  }
  ref.components = distinct.size();
  for (std::size_t i = 0; i < tri_slices.size(); ++i) {
    const auto tg = reference::serial_graph::from_edges(concat(tri_slices[i]));
    check_shape(rank0.tri_graphs.at(i), tg, "triangle graph", tally);
    ref.triangles.push_back(reference::serial_triangle_count(tg));
  }
  return ref;
}

/// One check per query unit of every pass; a wrong answer is a failure.
void check_calls(const std::vector<rank_output>& out,
                 const reference_answers& ref, const workload& w,
                 check_tally& tally) {
  struct acc {
    alg a = bfs_hybrid;
    std::size_t root = 0;
    bool valid = true;
    std::map<std::size_t, std::uint64_t> digest;  ///< by sub-call
    std::map<std::size_t, std::uint64_t> answer;
  };
  std::map<std::pair<pass, std::size_t>, acc> units;
  for (const auto& ro : out) {
    for (const auto& rec : ro.calls) {
      auto& u = units[{rec.in, rec.unit}];
      u.a = rec.a;
      u.root = rec.sub;
      u.valid = u.valid && rec.valid;
      u.digest[rec.sub] += rec.digest;
      u.answer[rec.sub] = rec.answer;
    }
  }
  for (const auto& [key, u] : units) {
    std::ostringstream what;
    what << kAlgName[u.a] << " pass " << static_cast<int>(key.first)
         << " unit " << key.second;
    bool ok = u.valid;
    switch (u.a) {
      case bfs_hybrid:
      case bfs_async:
        ok = ok && u.digest.at(u.root) == ref.bfs_digest.at(u.root);
        what << " root index " << u.root;
        break;
      case kcore:
        ok = ok && u.digest.size() == w.ks.size();
        for (std::size_t i = 0; ok && i < w.ks.size(); ++i) {
          ok = u.digest.at(i) == ref.kcore_digest[i] &&
               u.answer.at(i) == ref.kcore_size[i];
        }
        break;
      case cc:
        ok = ok && u.answer.at(0) == ref.components;
        break;
      case triangles:
        ok = ok && u.answer.at(u.root) == ref.triangles.at(u.root);
        break;
    }
    tally.add(ok, what.str());
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const check_tally& tally, const std::vector<metric>& ms) {
  std::ostringstream o;
  o << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << tally.attempted
    << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
      << json_number(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

void write_spans(const std::string& path, const std::vector<rank_output>& out) {
  std::ofstream f(path);
  f << "{\"spans\": [";
  bool first = true;
  for (const auto& ro : out) {
    for (const auto& s : ro.spans) {
      f << (first ? "" : ",") << "\n{\"name\": \"" << s.name
        << "\", \"rank\": " << s.rank
        << ", \"start_us\": " << json_number(s.start_us)
        << ", \"end_us\": " << json_number(s.end_us)
        << ", \"parent\": " << s.parent << "}";
      first = false;
    }
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// Median over set-up repetitions of the slowest rank's time for a step.
template <typename Get>
double setup_median(const std::vector<rank_output>& out, Get get) {
  std::vector<double> per_rep;
  for (std::size_t rep = 0; rep < out[0].setups.size(); ++rep) {
    double worst = 0;
    for (const auto& ro : out) worst = std::max(worst, get(ro.setups[rep]));
    per_rep.push_back(worst);
  }
  return median(per_rep);
}

/// The best call time per root, so a call that lost its CPU to another
/// tenant of the machine does not count.
std::map<std::size_t, double> best_by_root(const std::vector<unit_view>& us) {
  std::map<std::size_t, double> best;
  for (const auto& u : us) {
    const auto [it, fresh] = best.try_emplace(u.root, u.slowest_s);
    if (!fresh) it->second = std::min(it->second, u.slowest_s);
  }
  return best;
}

std::vector<metric> end_to_end_metrics(const std::vector<rank_output>& out,
                                       double rss_mb) {
  std::vector<metric> ms;
  ms.push_back({"setup_s",
                setup_median(out, [](const setup_record& s) { return s.total(); }),
                "s"});
  for (const alg a : {bfs_hybrid, bfs_async}) {
    const auto us = units_of(out, pass::untraced, a);
    std::map<std::size_t, double> edges;
    for (const auto& u : us) edges[u.root] = static_cast<double>(u.edges);
    std::vector<double> teps, root_ms;
    for (const auto& [root, t] : best_by_root(us)) {
      teps.push_back(edges[root] / t);
      root_ms.push_back(t * 1e3);
    }
    const auto t = tail_of(root_ms);
    std::cout << kAlgName[a] << ": " << us.size() << " calls over "
              << t.samples << " roots; tail is the p" << t.percentile
              << " per-root time\n";
    ms.push_back({std::string(kAlgName[a]) + "_teps", median(teps), "edges/s"});
    ms.push_back({std::string(kAlgName[a]) + "_tail_ms", t.value, "ms"});
  }
  // A k-core set and a CC call have the same input every time, so they
  // take the lower quartile of their calls: it ignores the calls that lost
  // their CPU to another tenant of the machine, as long as three in four
  // did not.  Triangle calls cycle over the companion graphs, so they take
  // the median.
  for (const alg a : {kcore, cc, triangles}) {
    std::vector<double> s;
    for (const auto& u : units_of(out, pass::untraced, a)) s.push_back(u.slowest_s);
    std::cout << kAlgName[a] << ": " << s.size() << " calls\n";
    const double v = a == triangles ? median(s) : lower_quartile(s);
    ms.push_back({std::string(kAlgName[a]) + "_s", v, "s"});
  }
  ms.push_back({"peak_rss_mb", rss_mb, "MB"});
  return ms;
}

/// Per-layer metrics of one algorithm from the traced pass: per-query
/// means of global (summed over ranks) counts, ratios of the totals, and
/// phase self time per query as a mean over ranks.
void layer_metrics(const std::vector<rank_output>& out, alg a,
                   std::vector<metric>& ms) {
  const std::string sfx = std::string(".") + kAlgName[a];
  const auto us = units_of(out, pass::traced, a);
  const auto n = static_cast<double>(std::max<std::size_t>(1, us.size()));
  double hits = 0, misses = 0, dev_reads = 0, dev_us = 0, rec_sent = 0,
         rec_fwd = 0, packets = 0, bytes = 0, waves = 0, delivered = 0,
         executed = 0, ghost = 0, imbalance = 0;
  std::array<double, obs::kPhaseCount> phase{};
  std::vector<double> traced_s, untraced_s;
  for (const auto& u : us) {
    hits += static_cast<double>(u.cache_hits);
    misses += static_cast<double>(u.cache_misses);
    dev_reads += static_cast<double>(u.dev_reads);
    dev_us += static_cast<double>(u.dev_read_us);
    bytes += static_cast<double>(u.bytes_sent);
    double max_del = 0, sum_del = 0;
    std::uint32_t max_waves = 0;
    for (const auto& st : u.st) {
      rec_sent += static_cast<double>(st.mailbox.records_sent);
      rec_fwd += static_cast<double>(st.mailbox.records_forwarded);
      packets += static_cast<double>(st.mailbox.packets_sent);
      delivered += static_cast<double>(st.visitors_delivered);
      executed += static_cast<double>(st.visitors_executed);
      ghost += static_cast<double>(st.ghost_filtered);
      max_del = std::max(max_del, static_cast<double>(st.visitors_delivered));
      sum_del += static_cast<double>(st.visitors_delivered);
      max_waves = std::max(max_waves, st.termination_waves);
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        phase[p] += static_cast<double>(st.phase.get(static_cast<obs::phase>(p))) /
                    1e9 / kRanks;
      }
    }
    waves += max_waves;
    imbalance += sum_del > 0 ? max_del / (sum_del / kRanks) : 0;
    traced_s.push_back(u.slowest_s);
  }
  for (const auto& u : units_of(out, pass::untraced, a)) {
    untraced_s.push_back(u.slowest_s);
  }
  const double accesses = hits + misses;
  ms.push_back({"storage.hit_rate" + sfx, accesses > 0 ? hits / accesses : 0, "ratio"});
  ms.push_back({"storage.dev_reads" + sfx, dev_reads / n, "count"});
  ms.push_back({"storage.dev_read_busy_s" + sfx, dev_us / 1e6 / n, "s"});
  ms.push_back({"mailbox.records_sent" + sfx, rec_sent / n, "count"});
  ms.push_back({"mailbox.records_forwarded" + sfx, rec_fwd / n, "count"});
  ms.push_back({"mailbox.packets_sent" + sfx, packets / n, "count"});
  ms.push_back({"mailbox.records_per_packet" + sfx,
                packets > 0 ? (rec_sent + rec_fwd) / packets : 0, "ratio"});
  ms.push_back({"runtime.bytes_sent" + sfx, bytes / n, "bytes"});
  ms.push_back({"runtime.termination_waves" + sfx, waves / n, "count"});
  ms.push_back({"core.visitors_delivered" + sfx, delivered / n, "count"});
  ms.push_back({"core.visit_yield" + sfx, delivered > 0 ? executed / delivered : 0,
                "ratio"});
  ms.push_back({"core.ghost_filtered" + sfx, ghost / n, "count"});
  ms.push_back({"core.delivered_imbalance" + sfx, imbalance / n, "ratio"});
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    ms.push_back({std::string("phase.") +
                      obs::phase_name(static_cast<obs::phase>(p)) + "_s" + sfx,
                  phase[p] / n, "s"});
  }
  ms.push_back({"obs.trace_overhead" + sfx, median(traced_s) / median(untraced_s),
                "ratio"});
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string trace_out;
};

options parse(int argc, char** argv) {
  options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
    } else if (a == "--trace") {
      o.trace = std::stoi(next()) != 0;
    } else if (a == "--toy") {
      o.toy = true;
    } else if (a == "--trace-out") {
      o.trace_out = next();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

template <typename Graph>
void run(const options& opt, const workload& w) {
  const auto epoch = clk::now();
  slices_t slices(kRanks);
  std::vector<slices_t> tri_slices(kTriangleGraphs, slices_t(kRanks));
  std::vector<rank_output> out(kRanks);
  std::vector<std::uint64_t> roots;
  double rss_mb = 0;
  double untraced_wall_s = 0;
  double traced_wall_s = 0;

  runtime::launch(kRanks, [&](runtime::comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    const bool lead = c.rank() == 0;
    slices[r] = generate_slice(w, w.log_n, opt.seed, c.rank(), kRanks);
    for (std::size_t i = 0; i < kTriangleGraphs; ++i) {
      tri_slices[i][r] = generate_slice(w, w.tri_log_n,
                                        triangle_seed(opt.seed, i), c.rank(),
                                        kRanks);
    }
    c.barrier();
    if (lead) {
      progress("input generated");
      reset_peak_rss();
    }

    // The first set-up builds the graph that is queried; peak RSS covers
    // it and the queries.  The other set-ups only time set-up again.
    const auto timed_setup = [&] {
      setup_record rec;
      auto edges = slices[r];
      c.barrier();
      auto g = build<Graph>(c, std::move(edges), rec);
      out[r].setups.push_back(rec);
      return g;
    };
    loaded_graph<Graph> main = timed_setup();
    out[r].graph = shape_of(*main.g);
    std::vector<loaded_graph<Graph>> tri;
    for (std::size_t i = 0; i < kTriangleGraphs; ++i) {
      setup_record unused;
      tri.push_back(build<Graph>(c, tri_slices[i][r], unused));
      out[r].tri_graphs.push_back(shape_of(*tri.back().g));
    }
    if (lead) progress("set-up done");

    query_loop<Graph> d(c, main, tri, w, epoch, out[r]);
    auto picked = d.pick_roots(opt.seed);
    if (lead) roots = std::move(picked);
    d.warm_up();

    if (!opt.trace) {
      const auto items = d.run_pass(pass::untraced, opt.seconds, 0);
      c.barrier();
      if (lead) {
        rss_mb = peak_rss_mb();
        progress("pass done, " + std::to_string(items) + " items");
      }
    } else {
      // Untraced on a third of the budget, then the same items traced.
      auto t = clk::now();
      const std::size_t items = d.run_pass(pass::untraced, opt.seconds / 3, 0);
      c.barrier();
      if (lead) {
        untraced_wall_s = seconds_since(t);
        progress("untraced pass done, " + std::to_string(items) + " items");
        obs::set_metrics_enabled(true);
      }
      c.barrier();
      t = clk::now();
      d.run_pass(pass::traced, 0, items);
      c.barrier();
      if (lead) {
        traced_wall_s = seconds_since(t);
        obs::set_metrics_enabled(false);
        progress("traced pass done");
      }
    }
    main.g.reset();  // the graph before the storage under it
    main.em.reset();
    for (int rep = 1; rep < kSetupReps; ++rep) (void)timed_setup();
    c.barrier();
    if (lead) progress("set-up repeated");
  });

  std::cout << "workload " << w.name << " seed " << opt.seed << " roots";
  for (const auto gid : roots) std::cout << " " << gid;
  std::cout << "\n";

  std::set<std::size_t> used_roots;
  for (const auto& rec : out[0].calls) {
    if (rec.a == bfs_hybrid || rec.a == bfs_async) used_roots.insert(rec.sub);
  }
  check_tally tally;
  const auto ref = compute_reference(w, slices, tri_slices, roots, used_roots,
                                     out[0], tally);
  check_calls(out, ref, w, tally);
  progress("checks done");
  std::cout << "k-core sizes";
  for (std::size_t i = 0; i < w.ks.size(); ++i) {
    std::cout << " k=" << w.ks[i] << ":" << ref.kcore_size[i];
  }
  std::cout << ", components " << ref.components << ", triangles";
  for (const auto t : ref.triangles) std::cout << " " << t;
  std::cout << "\n";

  if (!opt.trace) {
    print_result(tally, end_to_end_metrics(out, rss_mb));
    return;
  }

  // Completeness: on every rank the top-level spans must cover >= 95% of
  // the traced pass, or the run fails.
  for (const auto& ro : out) {
    double covered = 0;
    for (const auto& s : ro.spans) {
      if (s.parent < 0) covered += s.end_us - s.start_us;
    }
    const double share = covered / (ro.traced_end_us - ro.traced_start_us);
    std::ostringstream what;
    what << "top-level spans cover " << share << " of the traced pass on rank "
         << (ro.spans.empty() ? -1 : ro.spans.front().rank);
    tally.add(share >= 0.95, what.str());
  }
  if (!opt.trace_out.empty()) write_spans(opt.trace_out, out);

  std::vector<metric> ms;
  double max_edges = 0, sum_edges = 0;
  for (const auto& ro : out) {
    max_edges = std::max(max_edges, static_cast<double>(ro.graph.local_edges));
    sum_edges += static_cast<double>(ro.graph.local_edges);
  }
  ms.push_back({"graph.build_partition_s",
                setup_median(out, [](const setup_record& s) { return s.partition_s; }),
                "s"});
  ms.push_back({"graph.construct_s",
                setup_median(out, [](const setup_record& s) { return s.construct_s; }),
                "s"});
  ms.push_back({"graph.edge_imbalance", max_edges / (sum_edges / kRanks), "ratio"});
  ms.push_back({"storage.write_s",
                setup_median(out, [](const setup_record& s) { return s.write_s; }),
                "s"});
  for (std::size_t a = 0; a < kAlgs; ++a) {
    layer_metrics(out, static_cast<alg>(a), ms);
  }
  std::vector<double> levels, switch_level, claims;
  for (const auto& u : units_of(out, pass::traced, bfs_hybrid)) {
    levels.push_back(static_cast<double>(u.levels));
    switch_level.push_back(static_cast<double>(u.switch_level));
    claims.push_back(static_cast<double>(u.claims));
  }
  ms.push_back({"core.bfs_levels", median(levels), "count"});
  ms.push_back({"core.bfs_switch_level", median(switch_level), "count"});
  ms.push_back({"core.bfs_claims", median(claims), "count"});
  ms.push_back({"obs.trace_overhead", traced_wall_s / untraced_wall_s, "ratio"});
  ms.push_back({"reference.serial_bfs_ms", median(ref.bfs_ms), "ms"});
  ms.push_back({"failed_frac",
                static_cast<double>(tally.failed) /
                    static_cast<double>(tally.attempted),
                "ratio"});
  print_result(tally, ms);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const options opt = parse(argc, argv);
    const auto w = find_workload(opt.workload, opt.toy);
    if (!w) throw std::invalid_argument("unknown workload " + opt.workload);
    if (w->external) {
      run<em_graph>(opt, *w);
    } else {
      run<mem_graph>(opt, *w);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sfg_perfbench: " << e.what() << "\n";
    return 1;
  }
}
