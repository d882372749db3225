/// \file sfg_report_check.cpp
/// Validator for the observability output formats — CI fails a bench job
/// when a report is missing or malformed, instead of silently uploading
/// broken artifacts.
///
///   sfg_report_check [--bench FILE]... [--report FILE]... [--trace FILE]...
///                    [--flight FILE]... [--timeseries FILE]...
///
///   --bench   BENCH_*.json from bench/bench_common.hpp's reporter:
///             run-report schema + bench section (wall_time_s, tables)
///   --report  a run report (sfg-run-report/1, from sfg_cli --json-report)
///             or a metrics report (sfg-metrics/1, from SFG_METRICS)
///   --trace   Chrome-trace JSON from SFG_TRACE / --trace.  Flow events
///             ('s'/'t'/'f') must carry an "id"; when any are present, at
///             least one flow id must have both its start and its end — a
///             complete sampled visitor chain.
///   --flight  flight-recorder dump (sfg-flight/1, from SFG_FLIGHT_DUMP /
///             the chaos harness / a rank fault)
///   --timeseries  per-rank sfg-timeseries/1 JSONL from SFG_TS_INTERVAL_MS
///             (obs/timeseries.hpp): schema tags, strictly monotonic
///             seq/ts_us, non-negative rates, phase fractions summing to
///             at most 1, and at least one sample
///   --comm-matrix  an sfg-metrics/1 report whose traversal entries carry
///             sfg-comm-matrix/1 rank x rank traffic matrices: square,
///             non-negative, row sums matching the embedded counter
///             totals, self-delivery on the diagonal, and transpose
///             conservation (sent toward d == delivered from o)
///   --bfs-levels  an sfg-metrics/1 report whose traversal entries carry
///             "bfs" direction traces (from sfg_cli bfs
///             --bfs=topdown|bottomup|hybrid): mode tag, α/β knobs,
///             per-level direction records, and a direction_switch_level
///             equal to the first bottom-up level (or -1)
///   --critpath  an sfg-metrics/1 report whose traversal entries carry
///             sfg-critpath/1 critical-path sections (from SFG_SPANS):
///             delegates to obs::critpath_validate — connected
///             start→finish segment chain, blame fractions summing to at
///             most 1.0 of the measured wall and covering >= 90% of it;
///             an "incomplete" section (an event ring overflowed) fails and
///             names the drop count
///   --mem     an sfg-metrics/1 report whose traversal entries carry
///             sfg-mem/1 memory-attribution sections (from SFG_MEM /
///             SFG_MEM_BUDGET): delegates to obs::mem_validate — one row
///             per rank with all subsystems, peak >= current everywhere,
///             per-row and section accounted totals summing exactly, a
///             positive RSS sample, and a well-formed pressure block
///   --all     umbrella: sniff each file's schema and run every validator
///             that applies (metrics reports additionally get the
///             comm-matrix / bfs-levels / critpath checks for whichever
///             sections are present)
///
/// Exit status: 0 if every file validates, 1 otherwise (with one line per
/// problem on stderr).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "obs/timeseries.hpp"

namespace {

using sfg::obs::json;

int g_failures = 0;

void fail(const std::string& file, const std::string& why) {
  std::cerr << "sfg_report_check: " << file << ": " << why << "\n";
  ++g_failures;
}

/// Load + parse, or record a failure and return nullopt.
std::optional<json> load(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    fail(file, "cannot open");
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto parsed = json::parse(ss.str());
  if (!parsed) fail(file, "not valid JSON");
  return parsed;
}

bool has_key(const json& obj, std::string_view key) {
  return obj.is_object() && obj.find(key) != nullptr;
}

/// Shared between --report and --bench: the sfg-run-report/1 envelope.
bool check_run_report_envelope(const std::string& file, const json& doc) {
  if (!has_key(doc, "schema") ||
      !(*doc.find("schema") == json("sfg-run-report/1"))) {
    fail(file, "schema is not \"sfg-run-report/1\"");
    return false;
  }
  bool ok = true;
  if (!has_key(doc, "name") || !doc.find("name")->is_string()) {
    fail(file, "missing string \"name\"");
    ok = false;
  }
  if (!has_key(doc, "metrics") || !doc.find("metrics")->is_object()) {
    fail(file, "missing object \"metrics\"");
    ok = false;
  } else {
    const json& m = *doc.find("metrics");
    for (const char* section : {"counters", "gauges", "timers"}) {
      if (!has_key(m, section)) {
        fail(file, std::string("metrics missing \"") + section + "\"");
        ok = false;
      }
    }
  }
  return ok;
}

void check_report(const std::string& file) {
  const auto doc = load(file);
  if (!doc) return;
  // Accept either producer: a run report or a per-traversal metrics file.
  if (has_key(*doc, "schema") &&
      *doc->find("schema") == json("sfg-metrics/1")) {
    if (!has_key(*doc, "traversals") || !doc->find("traversals")->is_array()) {
      fail(file, "sfg-metrics/1 missing array \"traversals\"");
    }
    if (!has_key(*doc, "metrics") || !doc->find("metrics")->is_object()) {
      fail(file, "sfg-metrics/1 missing object \"metrics\"");
    }
    return;
  }
  check_run_report_envelope(file, *doc);
}

/// Deep checks for a per-partitioner comparison table (emitted by
/// ablation_partitioners; any bench gaining a "partitioners" table is held
/// to the same contract).  Guards the fields the partitioner-matrix CI job
/// consumes: one row per known scheme, and sane replication numbers — an
/// RF below 1 or a missing bottleneck column means the bench is measuring
/// the wrong thing, not just formatting it badly.
void check_partitioner_table(const std::string& file, const json& t) {
  const json& headers = *t.find("headers");
  std::map<std::string, std::size_t> col;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    col[headers.at(i).as_string()] = i;
  }
  for (const char* required :
       {"partitioner", "chain_rf", "endpoint_rf", "edge_imbalance",
        "max_rank_delivered", "max_rank_msgs", "max_pair_bytes",
        "matrix_imbalance", "traffic_amp"}) {
    if (!col.contains(required)) {
      fail(file, std::string("partitioners table missing column \"") +
                     required + "\"");
      return;
    }
  }
  const json& rows = *t.find("rows");
  std::set<std::string> seen;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const json& row = rows.at(r);
    const std::string where = "partitioners row " + std::to_string(r);
    const json& name = row.at(col["partitioner"]);
    if (!name.is_string() || !seen.insert(name.as_string()).second) {
      fail(file, where + " has a missing or duplicate partitioner name");
      return;
    }
    for (const char* rf : {"chain_rf", "endpoint_rf", "edge_imbalance"}) {
      const json& v = row.at(col[rf]);
      if (!v.is_number() || v.as_double() < 1.0) {
        fail(file, where + " \"" + rf + "\" is not a number >= 1");
        return;
      }
    }
    for (const char* n : {"max_rank_delivered", "max_rank_msgs",
                          "max_pair_bytes", "matrix_imbalance",
                          "traffic_amp"}) {
      if (!row.at(col[n]).is_number()) {
        fail(file, where + " \"" + n + "\" is not a number");
        return;
      }
    }
  }
  for (const char* scheme : {"edge_list", "dbh", "hdrf", "sne"}) {
    if (!seen.contains(scheme)) {
      fail(file,
           std::string("partitioners table missing scheme \"") + scheme +
               "\"");
    }
  }
}

void check_bench(const std::string& file) {
  const auto doc = load(file);
  if (!doc) return;
  if (!check_run_report_envelope(file, *doc)) return;
  if (!has_key(*doc, "schema_bench") ||
      !(*doc->find("schema_bench") == json("sfg-bench-report/1"))) {
    fail(file, "schema_bench is not \"sfg-bench-report/1\"");
    return;
  }
  if (!has_key(*doc, "wall_time_s") || !doc->find("wall_time_s")->is_number()) {
    fail(file, "missing numeric \"wall_time_s\"");
  }
  if (!has_key(*doc, "tables") || !doc->find("tables")->is_object() ||
      doc->find("tables")->size() == 0) {
    fail(file, "missing non-empty object \"tables\"");
    return;
  }
  for (const auto& [name, t] : doc->find("tables")->items()) {
    if (!has_key(t, "headers") || !t.find("headers")->is_array() ||
        !has_key(t, "rows") || !t.find("rows")->is_array()) {
      fail(file, "table \"" + name + "\" missing headers/rows");
      continue;
    }
    const std::size_t width = t.find("headers")->size();
    bool widths_ok = true;
    for (std::size_t i = 0; i < t.find("rows")->size(); ++i) {
      if (t.find("rows")->at(i).size() != width) {
        fail(file, "table \"" + name + "\" row " + std::to_string(i) +
                       " width != header width");
        widths_ok = false;
        break;
      }
    }
    if (name == "partitioners" && widths_ok) {
      check_partitioner_table(file, t);
    }
  }
}

void check_trace(const std::string& file) {
  const auto doc = load(file);
  if (!doc) return;
  if (!has_key(*doc, "traceEvents") || !doc->find("traceEvents")->is_array()) {
    fail(file, "missing array \"traceEvents\"");
    return;
  }
  const json& events = *doc->find("traceEvents");
  if (events.size() == 0) {
    fail(file, "traceEvents is empty");
    return;
  }
  // Flow events bind by (cat, id); track which phases each flow carries so
  // we can require at least one *complete* chain (start and end) when the
  // trace contains any flows at all.
  struct flow_phases {
    bool s = false, f = false;
  };
  std::map<std::pair<std::string, std::uint64_t>, flow_phases> flows;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json& ev = events.at(i);
    for (const char* key : {"name", "ph", "pid"}) {
      if (!has_key(ev, key)) {
        fail(file, "event " + std::to_string(i) + " missing \"" + key + "\"");
        return;  // one malformed event fails the file; no need to spam
      }
    }
    const std::string ph = ev.find("ph")->as_string();
    if (ph != "M" && !has_key(ev, "ts")) {
      fail(file, "event " + std::to_string(i) + " (ph=" + ph +
                     ") missing \"ts\"");
      return;
    }
    if (ph == "X" && !has_key(ev, "dur")) {
      fail(file, "complete event " + std::to_string(i) + " missing \"dur\"");
      return;
    }
    if (ph == "s" || ph == "t" || ph == "f") {
      if (!has_key(ev, "id") || !ev.find("id")->is_number()) {
        fail(file, "flow event " + std::to_string(i) + " (ph=" + ph +
                       ") missing numeric \"id\"");
        return;
      }
      const std::string cat =
          has_key(ev, "cat") ? ev.find("cat")->as_string() : "";
      auto& fp = flows[{cat, ev.find("id")->as_u64()}];
      if (ph == "s") fp.s = true;
      if (ph == "f") fp.f = true;
    }
  }
  if (!flows.empty()) {
    bool complete = false;
    for (const auto& [key, fp] : flows) complete = complete || (fp.s && fp.f);
    if (!complete) {
      fail(file, "trace has flow events but no flow id carries both a start "
                 "('s') and an end ('f') — no complete causal chain");
    }
  }
}

void check_flight(const std::string& file) {
  const auto doc = load(file);
  if (!doc) return;
  if (!has_key(*doc, "schema") ||
      !(*doc->find("schema") == json("sfg-flight/1"))) {
    fail(file, "schema is not \"sfg-flight/1\"");
    return;
  }
  if (!has_key(*doc, "why") || !doc->find("why")->is_string()) {
    fail(file, "missing string \"why\"");
  }
  if (!has_key(*doc, "capacity") || !doc->find("capacity")->is_number()) {
    fail(file, "missing numeric \"capacity\"");
  }
  if (!has_key(*doc, "ranks") || !doc->find("ranks")->is_array()) {
    fail(file, "missing array \"ranks\"");
    return;
  }
  const json& ranks = *doc->find("ranks");
  std::set<std::int64_t> seen_ranks;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const json& entry = ranks.at(r);
    const std::string where = "ranks[" + std::to_string(r) + "]";
    for (const char* key : {"rank", "recorded", "dropped"}) {
      if (!has_key(entry, key) || !entry.find(key)->is_number()) {
        fail(file, where + " missing numeric \"" + key + "\"");
        return;
      }
    }
    const std::int64_t rank = entry.find("rank")->as_i64();
    if (!seen_ranks.insert(rank).second) {
      fail(file, where + " duplicates rank " + std::to_string(rank));
      return;
    }
    if (!has_key(entry, "events") || !entry.find("events")->is_array()) {
      fail(file, where + " missing array \"events\"");
      return;
    }
    const json& events = *entry.find("events");
    const std::uint64_t recorded = entry.find("recorded")->as_u64();
    const std::uint64_t dropped = entry.find("dropped")->as_u64();
    if (dropped > recorded || events.size() != recorded - dropped) {
      fail(file, where + " events count != recorded - dropped");
      return;
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const json& ev = events.at(i);
      const std::string ev_where = where + ".events[" + std::to_string(i) + "]";
      if (!has_key(ev, "ts_us") || !ev.find("ts_us")->is_number()) {
        fail(file, ev_where + " missing numeric \"ts_us\"");
        return;
      }
      if (!has_key(ev, "kind") || !ev.find("kind")->is_string()) {
        fail(file, ev_where + " missing string \"kind\"");
        return;
      }
      for (const char* key : {"a", "b"}) {
        if (!has_key(ev, key) || !ev.find(key)->is_number()) {
          fail(file, ev_where + " missing numeric \"" + key + "\"");
          return;
        }
      }
    }
  }
}

/// One traversal entry's "comm_matrix" section (sfg-comm-matrix/1): the
/// rank x rank traffic matrix gathered by visitor_queue.  Checks both
/// shape (square N x N, non-negative) and the conservation invariants the
/// mailbox guarantees at quiescence: row sums match the embedded totals
/// snapshot, the diagonal is self-delivery (sent[i][i] == delivered on i
/// from i), the transpose balances (what o sent toward d, d delivered
/// from o), and the per-traversal sfg-metrics mailbox counters never
/// exceed the cumulative totals.
void check_comm_matrix_entry(const std::string& file, const json& entry,
                             std::size_t traversal_idx) {
  const std::string where = "traversal " + std::to_string(traversal_idx);
  const json& cm = *entry.find("comm_matrix");
  if (!has_key(cm, "schema") ||
      !(*cm.find("schema") == json("sfg-comm-matrix/1"))) {
    fail(file, where + " comm_matrix schema is not \"sfg-comm-matrix/1\"");
    return;
  }
  if (!has_key(cm, "ranks") || !cm.find("ranks")->is_number() ||
      !has_key(cm, "rows") || !cm.find("rows")->is_array()) {
    fail(file, where + " comm_matrix missing \"ranks\"/\"rows\"");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(cm.find("ranks")->as_u64());
  const json& rows = *cm.find("rows");
  if (n == 0 || rows.size() != n) {
    fail(file, where + " comm_matrix rows count != ranks");
    return;
  }
  constexpr const char* kRowKeys[] = {
      "sent_records", "sent_bytes",    "delivered_records", "delivered_bytes",
      "dup_records",  "flush_packets", "flush_bytes"};
  // matrix[key][rank] = that rank's row, loaded as u64 for exact sums.
  std::map<std::string, std::vector<std::vector<std::uint64_t>>> m;
  for (std::size_t r = 0; r < n; ++r) {
    const json& row = rows.at(r);
    const std::string rw = where + " comm_matrix row " + std::to_string(r);
    if (!has_key(row, "rank") || !row.find("rank")->is_number() ||
        row.find("rank")->as_u64() != r) {
      fail(file, rw + " \"rank\" is not " + std::to_string(r) +
                     " (rows must be in rank order)");
      return;
    }
    for (const char* key : kRowKeys) {
      if (!has_key(row, key) || !row.find(key)->is_array() ||
          row.find(key)->size() != n) {
        fail(file, rw + " \"" + key + "\" is not a length-" +
                       std::to_string(n) + " array (matrix must be square)");
        return;
      }
      std::vector<std::uint64_t> vals;
      for (std::size_t c = 0; c < n; ++c) {
        const json& v = row.find(key)->at(c);
        if (!v.is_number() || v.as_double() < 0) {
          fail(file, rw + " \"" + key + "\"[" + std::to_string(c) +
                         "] is not a non-negative number");
          return;
        }
        vals.push_back(v.as_u64());
      }
      m[key].push_back(std::move(vals));
    }
    if (!has_key(row, "latency_us")) {
      fail(file, rw + " missing \"latency_us\" histogram");
      return;
    }
  }
  // Row sums vs the totals snapshot taken at the same instant.
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    std::uint64_t s = 0;
    for (const auto x : v) s += x;
    return s;
  };
  constexpr std::pair<const char*, const char*> kSumChecks[] = {
      {"sent_records", "records_sent"},
      {"delivered_records", "records_delivered"},
      {"flush_packets", "packets_sent"},
      {"flush_bytes", "packet_bytes_sent"}};
  for (std::size_t r = 0; r < n; ++r) {
    const json& row = rows.at(r);
    const std::string rw = where + " comm_matrix row " + std::to_string(r);
    if (!has_key(row, "totals") || !row.find("totals")->is_object()) {
      fail(file, rw + " missing object \"totals\"");
      return;
    }
    const json& totals = *row.find("totals");
    for (const auto& [row_key, total_key] : kSumChecks) {
      if (!has_key(totals, total_key) ||
          !totals.find(total_key)->is_number()) {
        fail(file, rw + " totals missing numeric \"" + total_key + "\"");
        return;
      }
      const std::uint64_t got = sum(m[row_key][r]);
      const std::uint64_t want = totals.find(total_key)->as_u64();
      if (got != want) {
        fail(file, rw + " sum(" + row_key + ") = " + std::to_string(got) +
                       " != totals." + total_key + " = " +
                       std::to_string(want));
        return;
      }
    }
    // Diagonal: what rank r sent to itself it also delivered from itself.
    if (m["sent_records"][r][r] != m["delivered_records"][r][r]) {
      fail(file, rw + " diagonal sent_records != delivered_records "
                      "(self-delivery must balance)");
      return;
    }
  }
  // Transpose conservation at quiescence: every record o sent toward
  // final dest d was delivered by d and attributed to origin o (routing
  // relays don't touch these rows; duplicates are suppressed before
  // delivery and land in dup_records instead).
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t d = 0; d < n; ++d) {
      if (m["sent_records"][o][d] != m["delivered_records"][d][o]) {
        fail(file, where + " comm_matrix sent_records[" + std::to_string(o) +
                       "][" + std::to_string(d) + "] != delivered_records[" +
                       std::to_string(d) + "][" + std::to_string(o) + "]");
        return;
      }
    }
  }
  // The sfg-metrics per-rank mailbox counters are per-traversal deltas;
  // the matrix totals are cumulative over the queue's life, so delta <=
  // cumulative always.
  if (has_key(entry, "per_rank") && entry.find("per_rank")->is_array() &&
      entry.find("per_rank")->size() == n) {
    for (std::size_t r = 0; r < n; ++r) {
      const json& pr = entry.find("per_rank")->at(r);
      if (!has_key(pr, "mailbox")) continue;
      const json& mb = *pr.find("mailbox");
      const json& totals = *rows.at(r).find("totals");
      for (const char* key : {"records_sent", "records_delivered",
                              "packets_sent", "packet_bytes_sent"}) {
        if (!has_key(mb, key) || !has_key(totals, key)) continue;
        if (mb.find(key)->as_u64() > totals.find(key)->as_u64()) {
          fail(file, where + " per_rank[" + std::to_string(r) +
                         "].mailbox." + key +
                         " exceeds the cumulative matrix total");
          return;
        }
      }
    }
  }
}

/// --comm-matrix: an sfg-metrics/1 report whose traversals carry
/// sfg-comm-matrix/1 sections.  At least one traversal must have one, and
/// every one present must validate.
void check_comm_matrix(const std::string& file) {
  const auto doc = load(file);
  if (!doc) return;
  if (!has_key(*doc, "schema") ||
      !(*doc->find("schema") == json("sfg-metrics/1"))) {
    fail(file, "schema is not \"sfg-metrics/1\"");
    return;
  }
  if (!has_key(*doc, "traversals") || !doc->find("traversals")->is_array()) {
    fail(file, "missing array \"traversals\"");
    return;
  }
  const json& traversals = *doc->find("traversals");
  std::size_t with_matrix = 0;
  for (std::size_t i = 0; i < traversals.size(); ++i) {
    const json& entry = traversals.at(i);
    if (!has_key(entry, "comm_matrix")) continue;
    ++with_matrix;
    check_comm_matrix_entry(file, entry, i);
  }
  if (with_matrix == 0) {
    fail(file, "no traversal carries a \"comm_matrix\" section (was "
               "SFG_COMM_MATRIX / SFG_METRICS set?)");
  }
}

/// One traversal's "bfs" section: mode tag, the α/β knobs actually used,
/// a non-empty per-level direction trace, and a direction_switch_level
/// consistent with that trace (== index of the first bottom-up level, or
/// -1 when the traversal never left top-down).
void check_bfs_entry(const std::string& file, const json& bfs,
                     std::size_t index) {
  const std::string where = "traversals[" + std::to_string(index) + "].bfs";
  if (!has_key(bfs, "mode") || !bfs.find("mode")->is_string()) {
    fail(file, where + " missing string \"mode\"");
    return;
  }
  const std::string& mode = bfs.find("mode")->as_string();
  if (mode != "async" && mode != "topdown" && mode != "bottomup" &&
      mode != "hybrid") {
    fail(file, where + ".mode \"" + mode + "\" is not a BFS mode");
    return;
  }
  for (const char* key : {"alpha", "beta"}) {
    if (!has_key(bfs, key) || !bfs.find(key)->is_number()) {
      fail(file, where + " missing numeric \"" + key + "\"");
      return;
    }
  }
  if (!has_key(bfs, "direction_switch_level") ||
      !bfs.find("direction_switch_level")->is_number()) {
    fail(file, where + " missing numeric \"direction_switch_level\"");
    return;
  }
  const std::int64_t switch_level =
      bfs.find("direction_switch_level")->as_i64();
  if (!has_key(bfs, "levels") || !bfs.find("levels")->is_array()) {
    fail(file, where + " missing array \"levels\"");
    return;
  }
  const json& levels = *bfs.find("levels");
  if (levels.size() == 0) {
    fail(file, where + ".levels is empty (level-synchronous traversal "
                       "recorded no levels)");
    return;
  }
  std::int64_t first_bottom_up = -1;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const json& l = levels.at(i);
    const std::string lwhere = where + ".levels[" + std::to_string(i) + "]";
    for (const char* key :
         {"level", "frontier_vertices", "frontier_edges", "claims_sent"}) {
      if (!has_key(l, key) || !l.find(key)->is_number()) {
        fail(file, lwhere + " missing numeric \"" + key + "\"");
        return;
      }
    }
    if (l.find("level")->as_u64() != i) {
      fail(file, lwhere + ".level != " + std::to_string(i));
      return;
    }
    if (!has_key(l, "direction") || !l.find("direction")->is_string()) {
      fail(file, lwhere + " missing string \"direction\"");
      return;
    }
    const std::string& dir = l.find("direction")->as_string();
    if (dir != "topdown" && dir != "bottomup") {
      fail(file, lwhere + ".direction \"" + dir + "\" is not a direction");
      return;
    }
    if (dir == "bottomup" && first_bottom_up < 0) {
      first_bottom_up = static_cast<std::int64_t>(i);
    }
  }
  if (switch_level != first_bottom_up) {
    fail(file, where + ".direction_switch_level (" +
                   std::to_string(switch_level) +
                   ") does not match the first bottom-up level in the "
                   "trace (" +
                   std::to_string(first_bottom_up) + ")");
  }
}

/// --bfs-levels: an sfg-metrics/1 report where at least one traversal
/// carries a "bfs" direction trace, and every one present validates.
/// The async queue writes no "bfs" section, so a report from a mixed run
/// passes as long as one level-synchronous traversal is in it.
void check_bfs_levels(const std::string& file) {
  const auto doc = load(file);
  if (!doc) return;
  if (!has_key(*doc, "schema") ||
      !(*doc->find("schema") == json("sfg-metrics/1"))) {
    fail(file, "schema is not \"sfg-metrics/1\"");
    return;
  }
  if (!has_key(*doc, "traversals") || !doc->find("traversals")->is_array()) {
    fail(file, "missing array \"traversals\"");
    return;
  }
  const json& traversals = *doc->find("traversals");
  std::size_t with_bfs = 0;
  for (std::size_t i = 0; i < traversals.size(); ++i) {
    const json& entry = traversals.at(i);
    if (!has_key(entry, "bfs")) continue;
    ++with_bfs;
    check_bfs_entry(file, *entry.find("bfs"), i);
  }
  if (with_bfs == 0) {
    fail(file, "no traversal carries a \"bfs\" section (was the traversal "
               "run with --bfs=topdown|bottomup|hybrid and SFG_METRICS "
               "set?)");
  }
}

/// --critpath: an sfg-metrics/1 report where at least one traversal
/// carries an sfg-critpath/1 section (embedded when SFG_SPANS was set),
/// and every one present passes the invariants enforced next to the
/// analyzer (obs/critpath.cpp): not incomplete (no ring overflow lost the
/// window), a connected start→finish segment chain within the measured
/// window, fractions consistent with durations, blame totals matching the
/// segments, and coverage >= 90%.
void check_critpath(const std::string& file) {
  const auto doc = load(file);
  if (!doc) return;
  if (!has_key(*doc, "schema") ||
      !(*doc->find("schema") == json("sfg-metrics/1"))) {
    fail(file, "schema is not \"sfg-metrics/1\"");
    return;
  }
  if (!has_key(*doc, "traversals") || !doc->find("traversals")->is_array()) {
    fail(file, "missing array \"traversals\"");
    return;
  }
  const json& traversals = *doc->find("traversals");
  std::size_t with_critpath = 0;
  for (std::size_t i = 0; i < traversals.size(); ++i) {
    const json& entry = traversals.at(i);
    if (!has_key(entry, "critpath")) continue;
    ++with_critpath;
    std::vector<std::string> errors;
    if (!sfg::obs::critpath_validate(*entry.find("critpath"), &errors)) {
      const std::string where = "traversals[" + std::to_string(i) + "].critpath";
      for (const std::string& e : errors) fail(file, where + ": " + e);
      if (errors.empty()) fail(file, where + " is invalid");
    }
  }
  if (with_critpath == 0) {
    fail(file, "no traversal carries a \"critpath\" section (was SFG_SPANS "
               "set alongside SFG_METRICS?)");
  }
}

/// One traversal's "mem" section: the shape rules live next to the
/// producer (obs/mem.cpp, mem_validate), so the unit tests and this tool
/// can never drift apart.
void check_mem_entry(const std::string& file, const json& entry,
                     std::size_t index) {
  std::vector<std::string> errors;
  if (!sfg::obs::mem_validate(*entry.find("mem"), &errors)) {
    const std::string where = "traversals[" + std::to_string(index) + "].mem";
    for (const std::string& e : errors) fail(file, where + ": " + e);
    if (errors.empty()) fail(file, where + " is invalid");
  }
}

/// --mem: an sfg-metrics/1 report where at least one traversal carries an
/// sfg-mem/1 section, and every one present validates.
void check_mem(const std::string& file) {
  const auto doc = load(file);
  if (!doc) return;
  if (!has_key(*doc, "schema") ||
      !(*doc->find("schema") == json("sfg-metrics/1"))) {
    fail(file, "schema is not \"sfg-metrics/1\"");
    return;
  }
  if (!has_key(*doc, "traversals") || !doc->find("traversals")->is_array()) {
    fail(file, "missing array \"traversals\"");
    return;
  }
  const json& traversals = *doc->find("traversals");
  std::size_t with_mem = 0;
  for (std::size_t i = 0; i < traversals.size(); ++i) {
    const json& entry = traversals.at(i);
    if (!has_key(entry, "mem")) continue;
    ++with_mem;
    check_mem_entry(file, entry, i);
  }
  if (with_mem == 0) {
    fail(file, "no traversal carries a \"mem\" section (was SFG_MEM / "
               "SFG_MEM_BUDGET set alongside SFG_METRICS?)");
  }
}

void check_timeseries(const std::string& file) {
  // The line-level rules live next to the producer (obs/timeseries.cpp),
  // so the chaos test and this tool can never drift apart.
  std::vector<std::string> errors;
  if (!sfg::obs::ts_validate_file(file, &errors)) {
    for (const std::string& e : errors) fail(file, e);
    if (errors.empty()) fail(file, "invalid time-series file");
  }
}

/// --all: schema-sniffed umbrella.  One flag, every registered validator
/// that applies to the file.  Sniffing is structural, not by extension:
/// a whole-file JSON parse that fails falls through to the line-oriented
/// time-series validator (the only JSONL format we emit); parsed
/// documents dispatch on their schema tag.  Metrics reports additionally
/// run the section validators for whichever sections are actually
/// present — unlike the dedicated flags, --all does not require any
/// particular section to exist.
void check_all(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    fail(file, "cannot open");
    return;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = json::parse(ss.str());
  if (!doc || !doc->is_object()) {
    check_timeseries(file);
    return;
  }
  if (has_key(*doc, "traceEvents")) {
    check_trace(file);
    return;
  }
  const json* schema = doc->find("schema");
  const std::string tag =
      (schema != nullptr && schema->is_string()) ? schema->as_string() : "";
  if (tag == "sfg-flight/1") {
    check_flight(file);
  } else if (tag == "sfg-run-report/1") {
    if (has_key(*doc, "schema_bench")) {
      check_bench(file);
    } else {
      check_report(file);
    }
  } else if (tag == "sfg-metrics/1") {
    check_report(file);
    if (!has_key(*doc, "traversals") || !doc->find("traversals")->is_array()) {
      return;  // check_report already failed the file
    }
    const json& traversals = *doc->find("traversals");
    for (std::size_t i = 0; i < traversals.size(); ++i) {
      const json& entry = traversals.at(i);
      if (has_key(entry, "comm_matrix")) {
        check_comm_matrix_entry(file, entry, i);
      }
      if (has_key(entry, "bfs")) {
        check_bfs_entry(file, *entry.find("bfs"), i);
      }
      if (has_key(entry, "critpath")) {
        std::vector<std::string> errors;
        if (!sfg::obs::critpath_validate(*entry.find("critpath"), &errors)) {
          const std::string where =
              "traversals[" + std::to_string(i) + "].critpath";
          for (const std::string& e : errors) fail(file, where + ": " + e);
          if (errors.empty()) fail(file, where + " is invalid");
        }
      }
      if (has_key(entry, "mem")) {
        check_mem_entry(file, entry, i);
      }
    }
  } else {
    fail(file, "unrecognized document (no known schema tag, traceEvents, or "
               "time-series stream)");
  }
}

int usage() {
  std::cerr << "usage: sfg_report_check [--bench FILE]... [--report FILE]... "
               "[--trace FILE]... [--flight FILE]... [--timeseries FILE]... "
               "[--comm-matrix FILE]... [--bfs-levels FILE]... "
               "[--critpath FILE]... [--mem FILE]... [--all FILE]...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  int checked = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string file = argv[++i];
    if (a == "--bench") {
      check_bench(file);
    } else if (a == "--report") {
      check_report(file);
    } else if (a == "--trace") {
      check_trace(file);
    } else if (a == "--flight") {
      check_flight(file);
    } else if (a == "--timeseries") {
      check_timeseries(file);
    } else if (a == "--comm-matrix") {
      check_comm_matrix(file);
    } else if (a == "--bfs-levels") {
      check_bfs_levels(file);
    } else if (a == "--critpath") {
      check_critpath(file);
    } else if (a == "--mem") {
      check_mem(file);
    } else if (a == "--all") {
      check_all(file);
    } else {
      return usage();
    }
    ++checked;
  }
  if (g_failures == 0) {
    std::cout << "sfg_report_check: " << checked << " file(s) OK\n";
    return 0;
  }
  return 1;
}
