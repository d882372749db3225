/// \file sfg_why.cpp
/// Bottleneck attribution: renders the ranked answer to "where did the
/// wall time go?" from the sfg-critpath/1 section a traversal embeds when
/// SFG_SPANS is set (DESIGN.md §14).  Each blame line is cross-referenced
/// against the *other* sections of the same report:
///
///   - wire segments name their channel and are checked against the
///     comm-matrix hottest origin->dest pair (sfg-comm-matrix/1);
///   - io_wait segments carry the page-cache read amplification from the
///     registry snapshot (cache.dev_bytes_read / cache.bytes_requested);
///   - when the traversal was a level-synchronous BFS, blame is located
///     in level space via the critpath section's barrier markers.
///
///   sfg_why [--json] [--traversal N] FILE
///
/// Exit 0 after rendering a validated section; 1 on a missing/invalid
/// report or a critpath section that fails critpath_validate — including
/// an incomplete one, whose message names the span-ring drop count (CI
/// gates on this, like sfg_heat --once); 2 on usage errors.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/json.hpp"

namespace {

using sfg::obs::json;

double num_or(const json& obj, const char* key, double fallback) {
  const json* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : fallback;
}

std::string human_bytes(double v) {
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fGB", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fMB", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fkB", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fB", v);
  }
  return buf;
}

std::string human_us(double us) {
  char buf[32];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fs", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fus", us);
  }
  return buf;
}

/// "wire S->D" -> (S, D); false for every other blame kind.
bool parse_wire_kind(const std::string& kind, int& src, int& dst) {
  constexpr std::string_view prefix = "wire ";
  if (kind.compare(0, prefix.size(), prefix) != 0) return false;
  const auto arrow = kind.find("->", prefix.size());
  if (arrow == std::string::npos) return false;
  src = std::atoi(kind.c_str() + prefix.size());
  dst = std::atoi(kind.c_str() + arrow + 2);
  return true;
}

/// Comm-matrix cross-reference: the hottest off-diagonal sent-bytes pair
/// plus a lookup for any specific channel.
struct matrix_ref {
  bool valid = false;
  int hot_src = 0, hot_dst = 0;
  std::uint64_t hot_bytes = 0;
  std::vector<std::vector<std::uint64_t>> sent_bytes;
};

/// Map a blame entry's chain extent to the BFS levels it overlaps.
/// levels[i].ts_us is level i's barrier exit, so level i's work spans
/// [levels[i].ts_us, levels[i+1].ts_us).
bool level_range(const json& section, int rank, const std::string& kind,
                 std::uint64_t& lo_level, std::uint64_t& hi_level) {
  const json* levels = section.find("levels");
  const json* segs = section.find("segments");
  if (levels == nullptr || !levels->is_array() || levels->size() == 0 ||
      segs == nullptr || !segs->is_array()) {
    return false;
  }
  std::uint64_t lo_ts = ~std::uint64_t{0}, hi_ts = 0;
  for (std::size_t i = 0; i < segs->size(); ++i) {
    const json& e = segs->at(i);
    const json* k = e.find("kind");
    const json* w = e.find("src");
    std::string seg_kind = (k != nullptr && k->is_string()) ? k->as_string() : "";
    if (w != nullptr) {  // wire segments blame under their channel key
      seg_kind = "wire " + std::to_string(static_cast<int>(num_or(e, "src", 0))) +
                 "->" + std::to_string(static_cast<int>(num_or(e, "dst", 0)));
    }
    if (static_cast<int>(num_or(e, "rank", -1)) != rank || seg_kind != kind) {
      continue;
    }
    lo_ts = std::min(lo_ts, static_cast<std::uint64_t>(num_or(e, "t0_us", 0)));
    hi_ts = std::max(hi_ts, static_cast<std::uint64_t>(num_or(e, "t1_us", 0)));
  }
  if (hi_ts == 0 || lo_ts > hi_ts) return false;
  bool found = false;
  for (std::size_t i = 0; i < levels->size(); ++i) {
    const auto lv = static_cast<std::uint64_t>(num_or(levels->at(i), "level", 0));
    const auto t0 = static_cast<std::uint64_t>(num_or(levels->at(i), "ts_us", 0));
    const std::uint64_t t1 = i + 1 < levels->size()
                                 ? static_cast<std::uint64_t>(
                                       num_or(levels->at(i + 1), "ts_us", 0))
                                 : ~std::uint64_t{0};
    if (t1 <= lo_ts || t0 >= hi_ts) continue;  // no overlap
    if (!found) {
      lo_level = hi_level = lv;
      found = true;
    } else {
      hi_level = std::max(hi_level, lv);
    }
  }
  return found;
}

int usage() {
  std::cerr << "usage: sfg_why [--json] [--traversal N] FILE\n"
               "  FILE is an sfg-metrics/1 report with an embedded\n"
               "  sfg-critpath/1 section (run with SFG_SPANS=1)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool as_json = false;
  long want_traversal = -1;
  std::string file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") {
      as_json = true;
    } else if (a == "--traversal" && i + 1 < argc) {
      char* end = nullptr;
      want_traversal = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || want_traversal < 0) return usage();
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else if (file.empty()) {
      file = a;
    } else {
      return usage();
    }
  }
  if (file.empty()) return usage();

  std::ifstream in(file);
  if (!in) {
    std::cerr << "sfg_why: cannot open " << file << "\n";
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = json::parse(ss.str());
  if (!doc || !doc->is_object()) {
    std::cerr << "sfg_why: " << file << " is not valid JSON\n";
    return 1;
  }
  const json* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "sfg-metrics/1") {
    std::cerr << "sfg_why: " << file << " is not an sfg-metrics/1 report\n";
    return 1;
  }
  const json* traversals = doc->find("traversals");
  if (traversals == nullptr || !traversals->is_array() ||
      traversals->size() == 0) {
    std::cerr << "sfg_why: " << file << " has no traversals\n";
    return 1;
  }

  // Pick the requested traversal, or the last one carrying a critpath.
  const json* entry = nullptr;
  std::size_t which = 0;
  if (want_traversal >= 0) {
    if (static_cast<std::size_t>(want_traversal) >= traversals->size()) {
      std::cerr << "sfg_why: traversal " << want_traversal
                << " out of range (report has " << traversals->size() << ")\n";
      return 1;
    }
    which = static_cast<std::size_t>(want_traversal);
    entry = &traversals->at(which);
  } else {
    for (std::size_t i = 0; i < traversals->size(); ++i) {
      if (const json* c = traversals->at(i).find("critpath");
          c != nullptr && c->is_object()) {
        entry = &traversals->at(i);
        which = i;
      }
    }
  }
  const json* section = entry != nullptr ? entry->find("critpath") : nullptr;
  if (section == nullptr || !section->is_object()) {
    std::cerr << "sfg_why: " << file
              << " has no critpath section (run with SFG_SPANS=1)\n";
    return 1;
  }
  std::vector<std::string> errors;
  if (!sfg::obs::critpath_validate(*section, &errors)) {
    std::cerr << "sfg_why: " << file << " critpath section is invalid:\n";
    for (const auto& e : errors) std::cerr << "  " << e << "\n";
    return 1;
  }

  const double wall_us = num_or(*section, "wall_us", 0);
  const double coverage = num_or(*section, "coverage", 0);

  // Cross-reference inputs from the rest of the report.
  const matrix_ref matrix = [&] {
    matrix_ref m;
    const json* cm = entry->find("comm_matrix");
    if (cm == nullptr || !cm->is_object()) return m;
    const auto n = static_cast<std::size_t>(num_or(*cm, "ranks", 0));
    const json* rows = cm->find("rows");
    if (n == 0 || rows == nullptr || !rows->is_array() || rows->size() != n) {
      return m;
    }
    for (std::size_t r = 0; r < n; ++r) {
      const json* arr = rows->at(r).find("sent_bytes");
      if (arr == nullptr || !arr->is_array() || arr->size() != n) return m;
      std::vector<std::uint64_t> vals;
      for (std::size_t c = 0; c < n; ++c) {
        vals.push_back(arr->at(c).is_number() ? arr->at(c).as_u64() : 0);
      }
      m.sent_bytes.push_back(std::move(vals));
    }
    for (std::size_t o = 0; o < n; ++o) {
      for (std::size_t d = 0; d < n; ++d) {
        if (o != d && m.sent_bytes[o][d] > m.hot_bytes) {
          m.hot_bytes = m.sent_bytes[o][d];
          m.hot_src = static_cast<int>(o);
          m.hot_dst = static_cast<int>(d);
        }
      }
    }
    m.valid = true;
    return m;
  }();
  double read_amp = 0;
  if (const json* metrics = doc->find("metrics");
      metrics != nullptr && metrics->is_object()) {
    if (const json* counters = metrics->find("counters");
        counters != nullptr && counters->is_object()) {
      const double req = num_or(*counters, "cache.bytes_requested", 0);
      const double dev = num_or(*counters, "cache.dev_bytes_read", 0);
      if (req > 0) read_amp = dev / req;
    }
  }

  const json* blame = section->find("blame");
  json out_attr = json::array();
  if (!as_json) {
    std::printf("sfg_why — %s, traversal %zu of %zu\n", file.c_str(), which + 1,
                traversals->size());
    std::printf("wall %s, critical path covers %.1f%%\n",
                human_us(wall_us).c_str(), coverage * 100.0);
  }
  constexpr std::size_t kTopText = 10;
  for (std::size_t i = 0; blame != nullptr && i < blame->size(); ++i) {
    const json& b = blame->at(i);
    const int rank = static_cast<int>(num_or(b, "rank", 0));
    const json* k = b.find("kind");
    const std::string kind =
        (k != nullptr && k->is_string()) ? k->as_string() : "?";
    const double dur_us = num_or(b, "dur_us", 0);
    const double frac = num_or(b, "frac", 0);

    std::string note;
    int wsrc = 0, wdst = 0;
    if (parse_wire_kind(kind, wsrc, wdst) && matrix.valid) {
      const std::uint64_t bytes =
          (static_cast<std::size_t>(wsrc) < matrix.sent_bytes.size() &&
           static_cast<std::size_t>(wdst) < matrix.sent_bytes.size())
              ? matrix.sent_bytes[static_cast<std::size_t>(wsrc)]
                                 [static_cast<std::size_t>(wdst)]
              : 0;
      if (wsrc == matrix.hot_src && wdst == matrix.hot_dst) {
        note = "the max-pair channel (" +
               human_bytes(static_cast<double>(bytes)) + ")";
      } else {
        note = human_bytes(static_cast<double>(bytes)) + " (max pair " +
               std::to_string(matrix.hot_src) + "->" +
               std::to_string(matrix.hot_dst) + ")";
      }
    } else if (kind == "io_wait" && read_amp > 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "read-amp %.2fx", read_amp);
      note = buf;
    }
    std::uint64_t lo_level = 0, hi_level = 0;
    const bool has_levels = level_range(*section, rank, kind, lo_level, hi_level);
    std::string at_levels;
    if (has_levels) {
      at_levels = lo_level == hi_level
                      ? "level " + std::to_string(lo_level)
                      : "levels " + std::to_string(lo_level) + "-" +
                            std::to_string(hi_level);
    }

    if (as_json) {
      json e = json::object();
      e["rank"] = static_cast<std::int64_t>(rank);
      e["kind"] = kind;
      e["dur_us"] = dur_us;
      e["frac"] = frac;
      if (has_levels) {
        e["level_lo"] = lo_level;
        e["level_hi"] = hi_level;
      }
      if (!note.empty()) e["note"] = note;
      out_attr.push_back(std::move(e));
    } else if (i < kTopText) {
      std::string detail;
      if (!at_levels.empty()) detail += at_levels;
      if (!note.empty()) {
        if (!detail.empty()) detail += ", ";
        detail += note;
      }
      std::printf("  %5.1f%%  rank %-3d %-12s %10s  %s\n", frac * 100.0, rank,
                  kind.c_str(), human_us(dur_us).c_str(), detail.c_str());
    }
  }
  if (as_json) {
    json out = json::object();
    out["file"] = file;
    out["traversal"] = static_cast<std::uint64_t>(which);
    out["wall_us"] = wall_us;
    out["coverage"] = coverage;
    out["attribution"] = std::move(out_attr);
    std::printf("%s\n", out.dump().c_str());
  } else if (blame != nullptr && blame->size() > kTopText) {
    std::printf("  ... %zu more blame entr%s (use --json for all)\n",
                blame->size() - kTopText,
                blame->size() - kTopText == 1 ? "y" : "ies");
  }
  std::fflush(stdout);
  return 0;
}
