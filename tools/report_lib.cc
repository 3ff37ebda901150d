#include "tools/report_lib.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "src/common/json.h"

namespace dfil::report {
namespace {

// Figure 10 row order (matches TimeCategoryName; the writer emits all six keys).
constexpr const char* kTimeCategories[] = {"work",          "filament_exec", "data_transfer",
                                           "sync_overhead", "sync_delay",    "idle"};

// Figure 9 rows: the protocol-differentiating traffic counters from the paper, plus the
// multiple-writer diff / adapter traffic (DESIGN.md §10) and totals.
constexpr const char* kFigure9Counters[] = {
    "dsm.page_request_messages", "net.sent.page_request",  "net.sent.bulk_page_request",
    "net.sent.invalidate",       "net.sent.diff_merge",    "dsm.diff_bytes_sent",
    "dsm.page_data_bytes",       "dsm.adapter_switches_to_diff",
    "dsm.adapter_switches_to_ii",
    "net.barrier_messages",      "net.requests_sent",
    "net.replies_sent",          "net.acks_sent",          "net.retransmissions",
    "net.messages_sent",         "net.bytes_sent",
    "core.rebalance_plans",      "core.filaments_migrated",
    "dsm.pages_rehomed",
};

std::string FormatUs(double us) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << us;
  return os.str();
}

}  // namespace

void HistSummary::Merge(const HistSummary& other) {
  if (other.count == 0) {
    return;
  }
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  // Buckets share the power-of-two grid, so merging is summing counts at equal lows.
  for (const auto& b : other.buckets) {
    bool merged = false;
    for (auto& mine : buckets) {
      if (mine[0] == b[0]) {
        mine[2] += b[2];
        merged = true;
        break;
      }
    }
    if (!merged) {
      buckets.push_back(b);
    }
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
}

double HistSummary::Percentile(double p) const {
  if (count == 0) {
    return 0.0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(count));
  double seen = 0.0;
  for (const auto& b : buckets) {
    if (seen + b[2] >= rank) {
      const double frac = b[2] > 0.0 ? (rank - seen) / b[2] : 0.0;
      const double v = b[0] + frac * (b[1] - b[0]);
      return std::min(std::max(v, min), max);
    }
    seen += b[2];
  }
  return max;
}

uint64_t RunSummary::ClusterCounter(const std::string& name) const {
  if (name == "makespan_us") {
    // Virtual pseudo-counter so gate baselines can pin the run's completion time alongside the
    // traffic counters (the load-balancing gate holds the balanced run's makespan down with it).
    return static_cast<uint64_t>(makespan_us);
  }
  auto it = cluster_counters.find(name);
  return it == cluster_counters.end() ? 0 : it->second;
}

HistSummary RunSummary::MergedHistogram(const std::string& name) const {
  HistSummary merged;
  for (const Node& n : per_node) {
    auto it = n.histograms.find(name);
    if (it != n.histograms.end()) {
      merged.Merge(it->second);
    }
  }
  return merged;
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = path + ": cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

namespace {

// Parses `text`; on failure returns null and sets *error to where and why.
json::ValuePtr ParseJson(const std::string& text, std::string* error) {
  json::ParseResult parsed = json::Parse(text);
  if (!parsed.ok()) {
    *error = "JSON parse error at byte " + std::to_string(parsed.error_offset) + ": " +
             parsed.error;
  }
  return parsed.value;
}

void ParseCounters(const json::Value* obj, std::map<std::string, uint64_t>* out) {
  if (obj == nullptr || !obj->is_object()) {
    return;
  }
  for (const auto& [key, value] : obj->object) {
    if (value->is_number()) {
      (*out)[key] = static_cast<uint64_t>(std::llround(value->number));
    }
  }
}

HistSummary ParseHistogram(const json::Value& h) {
  HistSummary out;
  out.count = static_cast<uint64_t>(h.GetNumber("count"));
  out.sum = h.GetNumber("sum");
  out.min = h.GetNumber("min");
  out.max = h.GetNumber("max");
  if (const json::Value* buckets = h.Get("buckets"); buckets != nullptr && buckets->is_array()) {
    for (const auto& b : buckets->array) {
      if (b->is_array() && b->array.size() == 3 && b->array[0]->is_number() &&
          b->array[1]->is_number() && b->array[2]->is_number()) {
        out.buckets.push_back(
            {b->array[0]->number, b->array[1]->number, b->array[2]->number});
      }
    }
  }
  return out;
}

PoolRow ParsePoolRow(const json::Value& v) {
  PoolRow r;
  r.pool = static_cast<int>(v.GetNumber("pool", -1));
  r.fn = static_cast<int>(v.GetNumber("fn", -1));
  r.run_us = v.GetNumber("run_us");
  r.blocked_us = v.GetNumber("blocked_us");
  r.serve_us = v.GetNumber("serve_us");
  r.faults = static_cast<uint64_t>(std::llround(v.GetNumber("faults")));
  r.filaments_run = static_cast<uint64_t>(std::llround(v.GetNumber("filaments_run")));
  r.migrated_in = static_cast<uint64_t>(std::llround(v.GetNumber("migrated_in")));
  return r;
}

// Requires `key` to exist on `obj` with the named JSON type; false + *error otherwise. The
// contract ParseRun enforces: the structural skeleton of a metrics document must be present and
// well-typed, so a truncated or hand-damaged file is rejected with a field-level message instead
// of silently parsing to a zeroed summary the downstream gates would happily "pass".
bool RequireField(const json::Value& obj, const std::string& where, const std::string& key,
                  json::Type type, std::string* error) {
  const json::Value* v = obj.Get(key);
  const char* want = type == json::Type::kString ? "string"
                     : type == json::Type::kNumber ? "number"
                     : type == json::Type::kArray ? "array"
                                                  : "object";
  if (v == nullptr) {
    *error = where + ": missing required " + want + " field \"" + key + "\"";
    return false;
  }
  if (v->type != type) {
    *error = where + ": field \"" + key + "\" is not a " + want;
    return false;
  }
  return true;
}

}  // namespace

bool ParseRun(const std::string& text, RunSummary* out, std::string* error) {
  const json::ValuePtr doc = ParseJson(text, error);
  if (doc == nullptr) {
    return false;
  }
  const json::Value& root = *doc;
  if (!root.is_object()) {
    *error = "root is not a JSON object";
    return false;
  }
  if (!RequireField(root, "root", "schema", json::Type::kString, error)) {
    return false;
  }
  const std::string schema = root.GetString("schema");
  if (schema != "dfil-metrics-v2") {
    *error = "not a dfil-metrics-v2 document (schema=\"" + schema + "\")";
    return false;
  }
  for (const char* key : {"label", "pcp"}) {
    if (!RequireField(root, "root", key, json::Type::kString, error)) {
      return false;
    }
  }
  for (const char* key : {"nodes", "completed", "makespan_us"}) {
    if (!RequireField(root, "root", key, json::Type::kNumber, error)) {
      return false;
    }
  }
  out->label = root.GetString("label");
  out->pcp = root.GetString("pcp");
  out->nodes = static_cast<int>(root.GetNumber("nodes"));
  out->completed = root.GetNumber("completed") != 0;
  out->makespan_us = root.GetNumber("makespan_us");
  out->fingerprint = Fingerprint{};
  out->provenance.clear();
  out->cluster_counters.clear();
  out->pools_by_fn.clear();
  out->per_node.clear();
  if (const json::Value* prov = root.Get("provenance"); prov != nullptr && prov->is_object()) {
    for (const auto& [key, value] : prov->object) {
      if (value->is_string()) {
        out->provenance[key] = value->str;
      }
    }
  }
  if (const json::Value* fp = root.Get("fingerprint"); fp != nullptr && fp->is_object()) {
    out->fingerprint.config = fp->GetString("config");
    out->fingerprint.git = fp->GetString("git");
    out->fingerprint.seed = fp->GetString("seed");
    out->fingerprint.app = fp->GetString("app");
  }
  if (const json::Value* cluster = root.Get("cluster"); cluster != nullptr) {
    if (!cluster->is_object()) {
      *error = "root: field \"cluster\" is not an object";
      return false;
    }
    ParseCounters(cluster->Get("counters"), &out->cluster_counters);
    if (const json::Value* by_fn = cluster->Get("pools_by_fn");
        by_fn != nullptr && by_fn->is_array()) {
      for (const auto& row : by_fn->array) {
        if (row->is_object()) {
          out->pools_by_fn.push_back(ParsePoolRow(*row));
        }
      }
    }
  }
  if (!RequireField(root, "root", "per_node", json::Type::kArray, error)) {
    return false;
  }
  const json::Value* per_node = root.Get("per_node");
  for (size_t i = 0; i < per_node->array.size(); ++i) {
    const json::ValuePtr& n = per_node->array[i];
    const std::string where = "per_node[" + std::to_string(i) + "]";
    if (!n->is_object()) {
      *error = where + ": not an object";
      return false;
    }
    if (!RequireField(*n, where, "node", json::Type::kNumber, error)) {
      return false;
    }
    RunSummary::Node node;
    node.node = static_cast<int>(n->GetNumber("node"));
    node.finished_at_us = n->GetNumber("finished_at_us");
    node.final_clock_us = n->GetNumber("final_clock_us");
    node.run_us = n->GetNumber("run_us");
    node.serve_us = n->GetNumber("serve_us");
    if (const json::Value* t = n->Get("time_us"); t != nullptr && t->is_object()) {
      for (const auto& [key, value] : t->object) {
        if (value->is_number()) {
          node.time_us[key] = value->number;
        }
      }
    }
    if (const json::Value* w = n->Get("wait_us"); w != nullptr && w->is_object()) {
      for (const auto& [key, value] : w->object) {
        if (value->is_number()) {
          node.wait_us[key] = value->number;
        }
      }
    }
    if (const json::Value* w = n->Get("wait_events"); w != nullptr && w->is_object()) {
      ParseCounters(w, &node.wait_events);
    }
    if (const json::Value* pools = n->Get("pools"); pools != nullptr && pools->is_array()) {
      for (const auto& row : pools->array) {
        if (row->is_object()) {
          node.pools.push_back(ParsePoolRow(*row));
        }
      }
    }
    if (const json::Value* es = n->Get("epochs"); es != nullptr && es->is_array()) {
      for (const auto& row : es->array) {
        if (!row->is_object()) {
          continue;
        }
        std::map<std::string, double> cols;
        for (const auto& [key, value] : row->object) {
          if (value->is_number()) {
            cols[key] = value->number;
          }
        }
        node.epochs.push_back(std::move(cols));
      }
    }
    if (const json::Value* m = n->Get("metrics"); m != nullptr && m->is_object()) {
      ParseCounters(m->Get("counters"), &node.counters);
      if (const json::Value* hists = m->Get("histograms");
          hists != nullptr && hists->is_object()) {
        for (const auto& [key, value] : hists->object) {
          if (value->is_object()) {
            node.histograms[key] = ParseHistogram(*value);
          }
        }
      }
    }
    if (const json::Value* heat = n->Get("page_heat"); heat != nullptr && heat->is_array()) {
      for (const auto& pair : heat->array) {
        if (pair->is_array() && pair->array.size() == 2 && pair->array[0]->is_number() &&
            pair->array[1]->is_number()) {
          node.page_heat.emplace_back(static_cast<uint64_t>(pair->array[0]->number),
                                      static_cast<uint64_t>(pair->array[1]->number));
        }
      }
    }
    out->per_node.push_back(std::move(node));
  }
  return true;
}

bool LoadRun(const std::string& path, RunSummary* out, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text, error)) {
    return false;
  }
  if (!ParseRun(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  out->path = path;
  return true;
}

void PrintFigure10(const RunSummary& run, std::ostream& os) {
  os << "Figure 10 — per-node time breakdown (us): " << run.label << " (" << run.pcp << ", "
     << run.nodes << " nodes, makespan " << FormatUs(run.makespan_us) << " us)\n";
  os << std::setw(5) << "node";
  for (const char* cat : kTimeCategories) {
    os << std::setw(15) << cat;
  }
  os << std::setw(15) << "total" << "\n";
  std::map<std::string, double> totals;
  double grand_total = 0.0;
  for (const RunSummary::Node& n : run.per_node) {
    os << std::setw(5) << n.node;
    double row_total = 0.0;
    for (const char* cat : kTimeCategories) {
      auto it = n.time_us.find(cat);
      const double us = it == n.time_us.end() ? 0.0 : it->second;
      totals[cat] += us;
      row_total += us;
      os << std::setw(15) << FormatUs(us);
    }
    grand_total += row_total;
    os << std::setw(15) << FormatUs(row_total) << "\n";
  }
  os << std::setw(5) << "sum";
  for (const char* cat : kTimeCategories) {
    os << std::setw(15) << FormatUs(totals[cat]);
  }
  os << std::setw(15) << FormatUs(grand_total) << "\n";
  os << std::setw(5) << "share";
  for (const char* cat : kTimeCategories) {
    std::ostringstream pct;
    pct << std::fixed << std::setprecision(1)
        << (grand_total > 0.0 ? 100.0 * totals[cat] / grand_total : 0.0) << "%";
    os << std::setw(15) << pct.str();
  }
  os << "\n";
}

void PrintFigure9(const std::vector<RunSummary>& runs, std::ostream& os) {
  os << "Figure 9 — message counts by protocol";
  if (!runs.empty()) {
    os << " (" << runs.front().nodes << " nodes)";
  }
  os << "\n" << std::left << std::setw(28) << "counter" << std::right;
  for (const RunSummary& run : runs) {
    os << std::setw(21) << run.pcp;
  }
  os << "\n";
  for (const char* counter : kFigure9Counters) {
    os << std::left << std::setw(28) << counter << std::right;
    for (const RunSummary& run : runs) {
      os << std::setw(21) << run.ClusterCounter(counter);
    }
    os << "\n";
  }
  for (const char* row : {"fault_wait_us p50", "fault_wait_us p99"}) {
    const double p = row[std::string(row).size() - 2] == '5' ? 50.0 : 99.0;
    os << std::left << std::setw(28) << row << std::right;
    for (const RunSummary& run : runs) {
      os << std::setw(21) << FormatUs(run.MergedHistogram("dsm.fault_wait_us").Percentile(p));
    }
    os << "\n";
  }
}

void PrintFaultLatency(const RunSummary& run, std::ostream& os) {
  const HistSummary h = run.MergedHistogram("dsm.fault_wait_us");
  os << "Fault latency: " << run.label << " — " << h.count << " remote faults";
  if (h.count > 0) {
    os << ", p50 " << FormatUs(h.Percentile(50.0)) << " us, p90 " << FormatUs(h.Percentile(90.0))
       << " us, p99 " << FormatUs(h.Percentile(99.0)) << " us, max " << FormatUs(h.max) << " us";
  }
  os << "\n";
}

void PrintHotPages(const RunSummary& run, size_t top_n, std::ostream& os) {
  std::map<uint64_t, uint64_t> heat;  // page -> total demand faults
  std::map<uint64_t, int> spread;     // page -> nodes that faulted it
  for (const RunSummary::Node& n : run.per_node) {
    for (const auto& [page, faults] : n.page_heat) {
      heat[page] += faults;
      spread[page]++;
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> ranked(heat.begin(), heat.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  os << "Hottest pages: " << run.label << " (" << ranked.size() << " pages faulted)\n";
  os << std::setw(10) << "page" << std::setw(10) << "faults" << std::setw(10) << "nodes" << "\n";
  for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    os << std::setw(10) << ranked[i].first << std::setw(10) << ranked[i].second << std::setw(10)
       << spread[ranked[i].first] << "\n";
  }
}

// ---- Trace analysis ------------------------------------------------------------------------

namespace {

// Accepts a bare event array (what WriteChromeTrace emits) or the {"traceEvents": [...]} wrapper.
const json::Value* TraceEvents(const json::Value& root) {
  if (root.is_array()) {
    return &root;
  }
  const json::Value* events = root.Get("traceEvents");
  return events != nullptr && events->is_array() ? events : nullptr;
}

}  // namespace

TraceCheck CheckChromeTrace(const json::Value& trace) {
  TraceCheck out;
  constexpr size_t kMaxErrors = 32;
  auto fail = [&out](std::string msg) {
    if (out.errors.size() < kMaxErrors) {
      out.errors.push_back(std::move(msg));
    }
  };
  const json::Value* events = TraceEvents(trace);
  if (events == nullptr) {
    fail("no trace event array found");
    return out;
  }
  struct Track {
    int depth = 0;
    double last_ts = -1.0;
  };
  std::map<std::pair<int64_t, int64_t>, Track> tracks;
  std::set<uint64_t> flow_start_ids;
  std::set<uint64_t> flow_end_ids;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const json::Value& e = *events->array[i];
    out.events++;
    const std::string ph = e.GetString("ph");
    const auto pid = static_cast<int64_t>(e.GetNumber("pid", -1));
    const auto tid = static_cast<int64_t>(e.GetNumber("tid", -1));
    const double ts = e.GetNumber("ts", -1.0);
    if (ph.size() != 1) {
      fail("event " + std::to_string(i) + ": missing/bad ph");
      continue;
    }
    Track& track = tracks[{pid, tid}];
    switch (ph[0]) {
      case 'B':
      case 'E':
        // Duration events must nest and be time-ordered per (pid, tid) track.
        if (ts < track.last_ts) {
          fail("event " + std::to_string(i) + ": ts " + std::to_string(ts) +
               " goes backwards on track (" + std::to_string(pid) + "," + std::to_string(tid) +
               ")");
        }
        track.last_ts = ts;
        if (ph[0] == 'B') {
          if (e.GetString("name").empty()) {
            fail("event " + std::to_string(i) + ": B without a name");
          }
          track.depth++;
        } else {
          if (track.depth <= 0) {
            fail("event " + std::to_string(i) + ": E with no open span on track (" +
                 std::to_string(pid) + "," + std::to_string(tid) + ")");
          } else {
            track.depth--;
            out.spans++;
          }
        }
        break;
      case 's':
      case 't':
      case 'f': {
        const auto id = static_cast<uint64_t>(e.GetNumber("id", 0));
        if (id == 0) {
          fail("event " + std::to_string(i) + ": flow '" + ph + "' without an id");
          break;
        }
        if (ph[0] == 's') {
          if (!flow_start_ids.insert(id).second) {
            fail("event " + std::to_string(i) + ": duplicate flow start id " +
                 std::to_string(id));
          }
          out.flow_starts++;
        } else if (ph[0] == 'f') {
          flow_end_ids.insert(id);
          out.flow_ends++;
        }
        break;
      }
      case 'i':
        break;  // instants may sit on dedicated tracks (injection events) at delivery times
      default:
        fail("event " + std::to_string(i) + ": unexpected ph '" + ph + "'");
    }
  }
  for (const auto& [key, track] : tracks) {
    if (track.depth != 0) {
      fail("track (" + std::to_string(key.first) + "," + std::to_string(key.second) + ") ends with " +
           std::to_string(track.depth) + " unclosed span(s)");
    }
  }
  // An 'f' without an 's' is fine (a serve observed without the faulting side blocking), but every
  // started arc must terminate somewhere or Perfetto renders a dangling arrow.
  for (uint64_t id : flow_start_ids) {
    if (flow_end_ids.count(id) != 0) {
      out.complete_flows++;
    } else {
      fail("flow id " + std::to_string(id) + " has 's' but no matching 'f'");
    }
  }
  out.ok = out.errors.empty();
  return out;
}

std::vector<FlowArc> ExtractFlows(const json::Value& trace) {
  std::vector<FlowArc> arcs;
  const json::Value* events = TraceEvents(trace);
  if (events == nullptr) {
    return arcs;
  }
  std::map<uint64_t, FlowArc> by_id;
  std::set<uint64_t> finished;
  for (const auto& ep : events->array) {
    const json::Value& e = *ep;
    const std::string ph = e.GetString("ph");
    if (ph != "s" && ph != "t" && ph != "f") {
      continue;
    }
    const auto id = static_cast<uint64_t>(e.GetNumber("id", 0));
    if (id == 0) {
      continue;
    }
    FlowArc& arc = by_id[id];
    arc.id = id;
    if (ph == "s") {
      arc.name = e.GetString("name");
      arc.start_ts = e.GetNumber("ts");
      arc.start_node = static_cast<int>(e.GetNumber("pid", -1));
    } else if (ph == "t") {
      arc.steps++;
    } else {
      arc.end_ts = e.GetNumber("ts");
      arc.end_node = static_cast<int>(e.GetNumber("pid", -1));
      finished.insert(id);
    }
  }
  for (const auto& [id, arc] : by_id) {
    if (arc.start_node >= 0 && finished.count(id) != 0) {
      arcs.push_back(arc);
    }
  }
  return arcs;
}

// ---- End-to-end critical path --------------------------------------------------------------

const char* PathSegmentKindName(PathSegment::Kind kind) {
  switch (kind) {
    case PathSegment::Kind::kCompute:
      return "compute";
    case PathSegment::Kind::kPageFault:
      return "page_fault";
    case PathSegment::Kind::kBarrier:
      return "barrier";
  }
  return "?";
}

namespace {

struct TraceSpan {
  double b = 0.0;
  double e = 0.0;
};

// The three trace shapes the walker consumes, keyed for lookup: per-node completion instants,
// per-(node, epoch) barrier spans, and per-node fault spans (across all thread tracks — several
// threads of one node can be blocked faulting concurrently).
struct CritTrace {
  std::map<int, double> done_ts;
  std::map<int, std::map<uint64_t, TraceSpan>> reduces;
  std::map<int, std::vector<std::pair<TraceSpan, uint64_t>>> faults;
  uint64_t rebalance_events = 0;  // plan/migrate instants on the rebalance track
};

bool ParseCritTrace(const json::Value& trace, CritTrace* out, std::string* error) {
  const json::Value* events = TraceEvents(trace);
  if (events == nullptr) {
    *error = "no trace event array found";
    return false;
  }
  // Open-span stack per (pid, tid) track; E events carry no name, so the B name rides the stack.
  std::map<std::pair<int, int64_t>, std::vector<std::pair<std::string, double>>> open;
  for (const auto& ep : events->array) {
    const json::Value& e = *ep;
    const std::string ph = e.GetString("ph");
    const int pid = static_cast<int>(e.GetNumber("pid", -1));
    const auto tid = static_cast<int64_t>(e.GetNumber("tid", -1));
    const double ts = e.GetNumber("ts", 0.0);
    if (ph == "i") {
      const std::string name = e.GetString("name");
      if (name == "done" && ts > out->done_ts[pid]) {
        out->done_ts[pid] = ts;
      } else if (name.rfind("rebalance", 0) == 0) {
        ++out->rebalance_events;
      }
    } else if (ph == "B") {
      open[{pid, tid}].emplace_back(e.GetString("name"), ts);
    } else if (ph == "E") {
      auto& stack = open[{pid, tid}];
      if (stack.empty()) {
        continue;  // unbalanced track; CheckChromeTrace is the validity gate, not this parser
      }
      const auto [name, begin_ts] = stack.back();
      stack.pop_back();
      if (name.rfind("reduce e", 0) == 0) {
        const uint64_t epoch = std::strtoull(name.c_str() + 8, nullptr, 10);
        out->reduces[pid][epoch] = TraceSpan{begin_ts, ts};
      } else if (name.rfind("fault p", 0) == 0) {
        const uint64_t page = std::strtoull(name.c_str() + 7, nullptr, 10);
        out->faults[pid].emplace_back(TraceSpan{begin_ts, ts}, page);
      }
    }
  }
  return true;
}

// Decomposes the on-node interval [s, e] into page-fault stalls vs compute: fault spans are
// clipped to the interval and merged where they overlap (concurrent faults from different
// threads), each merged stall attributed to the page covering the most of it; what no fault
// covers is compute. The returned segments tile [s, e] exactly, in time order.
std::vector<PathSegment> DecomposeGap(const CritTrace& t, int node, double s, double e) {
  std::vector<PathSegment> out;
  if (e <= s) {
    return out;
  }
  struct Clip {
    double b, e;
    uint64_t page;
  };
  std::vector<Clip> clips;
  if (auto it = t.faults.find(node); it != t.faults.end()) {
    for (const auto& [span, page] : it->second) {
      if (span.e > s && span.b < e) {
        clips.push_back({std::max(span.b, s), std::min(span.e, e), page});
      }
    }
  }
  std::sort(clips.begin(), clips.end(), [](const Clip& a, const Clip& b) { return a.b < b.b; });
  auto push = [&out, node](PathSegment::Kind kind, double b, double end, uint64_t page) {
    if (end <= b) {
      return;  // zero-width: boundaries are shared, so dropping it keeps the tiling exact
    }
    PathSegment seg;
    seg.kind = kind;
    seg.node = node;
    seg.start_us = b;
    seg.end_us = end;
    seg.page = page;
    out.push_back(seg);
  };
  double cursor = s;
  for (size_t i = 0; i < clips.size();) {
    double merged_end = clips[i].e;
    std::map<uint64_t, double> cover;
    cover[clips[i].page] += clips[i].e - clips[i].b;
    size_t j = i + 1;
    while (j < clips.size() && clips[j].b <= merged_end) {
      merged_end = std::max(merged_end, clips[j].e);
      cover[clips[j].page] += clips[j].e - clips[j].b;
      ++j;
    }
    uint64_t page = clips[i].page;
    double best = -1.0;
    for (const auto& [p, us] : cover) {
      if (us > best) {
        best = us;
        page = p;
      }
    }
    push(PathSegment::Kind::kCompute, cursor, clips[i].b, 0);
    push(PathSegment::Kind::kPageFault, clips[i].b, merged_end, page);
    cursor = merged_end;
    i = j;
  }
  push(PathSegment::Kind::kCompute, cursor, e, 0);
  return out;
}

}  // namespace

CriticalPath BuildCriticalPath(const json::Value& trace) {
  CriticalPath path;
  CritTrace t;
  if (!ParseCritTrace(trace, &t, &path.error)) {
    return path;
  }
  if (t.done_ts.empty()) {
    path.error = "trace has no per-node \"done\" instants (not produced by this runtime?)";
    return path;
  }
  path.rebalance_events = t.rebalance_events;
  for (const auto& [node, ts] : t.done_ts) {
    if (ts > path.completion_us) {
      path.completion_us = ts;
      path.critical_node = node;
    }
  }
  // Walk backward from the last-finishing node's "done". At each step the interval since the
  // previous barrier release belongs to the current node; the barrier itself is blamed on the
  // epoch and the walk jumps to its last arriver — the node that held the release back.
  constexpr double kEps = 1e-6;
  std::vector<PathSegment> rev;  // built back-to-front
  int node = path.critical_node;
  double anchor = path.completion_us;
  uint64_t prev_epoch = UINT64_MAX;  // epochs must strictly decrease, guaranteeing termination
  while (true) {
    const TraceSpan* release = nullptr;
    uint64_t epoch = 0;
    if (auto it = t.reduces.find(node); it != t.reduces.end()) {
      for (const auto& [ep, span] : it->second) {
        if (ep < prev_epoch && span.e <= anchor + kEps &&
            (release == nullptr || span.e > release->e)) {
          release = &span;
          epoch = ep;
        }
      }
    }
    if (release == nullptr) {
      // No earlier barrier on this node: the chain starts with its initial segment from t = 0.
      const auto gap = DecomposeGap(t, node, 0.0, anchor);
      rev.insert(rev.end(), gap.rbegin(), gap.rend());
      break;
    }
    const auto gap = DecomposeGap(t, node, release->e, anchor);
    rev.insert(rev.end(), gap.rbegin(), gap.rend());
    // Last arriver for this epoch across all nodes; its entry opens the barrier hop.
    int last_arriver = node;
    double entry = release->b;
    for (const auto& [n, reds] : t.reduces) {
      if (auto it = reds.find(epoch); it != reds.end() && it->second.b > entry) {
        entry = it->second.b;
        last_arriver = n;
      }
    }
    if (entry > release->e + kEps) {
      path.error = "barrier e" + std::to_string(epoch) + " released on node " +
                   std::to_string(node) + " before its last arriver entered (malformed trace)";
      path.segments.clear();
      return path;
    }
    PathSegment hop;
    hop.kind = PathSegment::Kind::kBarrier;
    hop.node = node;
    hop.start_us = std::min(entry, release->e);
    hop.end_us = release->e;
    hop.epoch = epoch;
    if (hop.end_us > hop.start_us) {
      rev.push_back(hop);
    }
    node = last_arriver;
    anchor = hop.start_us;
    prev_epoch = epoch;
  }
  path.segments.assign(rev.rbegin(), rev.rend());
  // The invariant the whole analysis rests on: the hops tile [0, completion] with no gap and no
  // overlap, so their durations sum to the run's virtual completion time.
  double cursor = 0.0;
  for (const PathSegment& seg : path.segments) {
    if (std::abs(seg.start_us - cursor) > 1e-3) {
      path.error = "path discontinuity at " + FormatUs(seg.start_us) + " us (previous hop ended " +
                   FormatUs(cursor) + " us)";
      return path;
    }
    cursor = seg.end_us;
    switch (seg.kind) {
      case PathSegment::Kind::kCompute:
        path.compute_us += seg.duration_us();
        break;
      case PathSegment::Kind::kPageFault:
        path.fault_us += seg.duration_us();
        break;
      case PathSegment::Kind::kBarrier:
        path.barrier_us += seg.duration_us();
        break;
    }
  }
  if (std::abs(cursor - path.completion_us) > 1e-3) {
    path.error = "path length " + FormatUs(cursor) + " us != completion time " +
                 FormatUs(path.completion_us) + " us";
    return path;
  }
  path.ok = true;
  return path;
}

std::vector<BlameRow> BlamePath(const CriticalPath& path) {
  std::map<std::string, BlameRow> rows;
  for (const PathSegment& seg : path.segments) {
    std::string label;
    switch (seg.kind) {
      case PathSegment::Kind::kCompute:
        label = "compute n" + std::to_string(seg.node);
        break;
      case PathSegment::Kind::kPageFault:
        label = "page " + std::to_string(seg.page);
        break;
      case PathSegment::Kind::kBarrier:
        label = "barrier e" + std::to_string(seg.epoch);
        break;
    }
    BlameRow& row = rows[label];
    row.label = label;
    row.us += seg.duration_us();
    row.hops++;
  }
  std::vector<BlameRow> ranked;
  ranked.reserve(rows.size());
  for (auto& [label, row] : rows) {
    ranked.push_back(std::move(row));
  }
  std::sort(ranked.begin(), ranked.end(), [](const BlameRow& a, const BlameRow& b) {
    return a.us != b.us ? a.us > b.us : a.label < b.label;
  });
  return ranked;
}

double WhatIfZeroCostPages(const CriticalPath& path) {
  return path.completion_us - path.fault_us;
}

namespace {

std::string Pct(double part, double whole) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << (whole > 0.0 ? 100.0 * part / whole : 0.0) << "%";
  return os.str();
}

std::string SegmentDetail(const PathSegment& seg) {
  switch (seg.kind) {
    case PathSegment::Kind::kPageFault:
      return "p" + std::to_string(seg.page);
    case PathSegment::Kind::kBarrier:
      return "e" + std::to_string(seg.epoch);
    case PathSegment::Kind::kCompute:
      break;
  }
  return "-";
}

}  // namespace

void PrintCritPath(const CriticalPath& path, size_t top_n, std::ostream& os) {
  if (!path.ok) {
    os << "critical path: UNAVAILABLE — " << path.error << "\n";
    return;
  }
  os << "Critical path: " << FormatUs(path.completion_us) << " us end-to-end, finishing on node "
     << path.critical_node << " (" << path.segments.size() << " hops)\n";
  os << "  compute " << FormatUs(path.compute_us) << " us (" << Pct(path.compute_us, path.completion_us)
     << "), page_fault " << FormatUs(path.fault_us) << " us ("
     << Pct(path.fault_us, path.completion_us) << "), barrier " << FormatUs(path.barrier_us)
     << " us (" << Pct(path.barrier_us, path.completion_us) << ")\n";
  os << "  what-if zero-cost page serves: " << FormatUs(WhatIfZeroCostPages(path)) << " us ("
     << Pct(path.fault_us, path.completion_us) << " faster)\n";
  if (path.rebalance_events > 0) {
    os << "  load balancing: " << path.rebalance_events
       << " rebalance event(s) on the trace (plans + migrations, DESIGN.md §13)\n";
  }
  // The top_n longest hops, each tagged with its position on the path so the reader can line
  // them up with the full timeline.
  std::vector<size_t> order(path.segments.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&path](size_t a, size_t b) {
    return path.segments[a].duration_us() > path.segments[b].duration_us();
  });
  os << std::setw(8) << "hop" << std::setw(12) << "kind" << std::setw(8) << "node" << std::setw(10)
     << "detail" << std::setw(14) << "start_us" << std::setw(14) << "dur_us" << std::setw(9)
     << "share" << "\n";
  for (size_t i = 0; i < order.size() && i < top_n; ++i) {
    const PathSegment& seg = path.segments[order[i]];
    os << std::setw(8) << ("#" + std::to_string(order[i])) << std::setw(12)
       << PathSegmentKindName(seg.kind) << std::setw(8) << seg.node << std::setw(10)
       << SegmentDetail(seg) << std::setw(14) << FormatUs(seg.start_us) << std::setw(14)
       << FormatUs(seg.duration_us()) << std::setw(9) << Pct(seg.duration_us(), path.completion_us)
       << "\n";
  }
}

void PrintBlame(const CriticalPath& path, size_t top_n, std::ostream& os) {
  if (!path.ok) {
    os << "blame: UNAVAILABLE — " << path.error << "\n";
    return;
  }
  const std::vector<BlameRow> ranked = BlamePath(path);
  os << "Critical-path blame (" << FormatUs(path.completion_us) << " us total, " << ranked.size()
     << " causes)\n";
  os << std::left << std::setw(20) << "cause" << std::right << std::setw(14) << "path_us"
     << std::setw(9) << "share" << std::setw(8) << "hops" << "\n";
  for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    const BlameRow& row = ranked[i];
    os << std::left << std::setw(20) << row.label << std::right << std::setw(14)
       << FormatUs(row.us) << std::setw(9) << Pct(row.us, path.completion_us) << std::setw(8)
       << row.hops << "\n";
  }
}

// ---- Flight-recorder dumps -----------------------------------------------------------------

bool ParseFlight(const std::string& text, FlightDump* out, std::string* error) {
  const json::ValuePtr doc = ParseJson(text, error);
  if (doc == nullptr) {
    return false;
  }
  const json::Value& root = *doc;
  if (root.GetString("schema") != "dfil-flight-v1") {
    *error = "not a dfil-flight-v1 document (schema=\"" + root.GetString("schema") + "\")";
    return false;
  }
  out->label = root.GetString("label");
  out->at_violation = root.GetNumber("at_violation") != 0;
  out->violations.clear();
  out->nodes.clear();
  out->injections.clear();
  if (const json::Value* v = root.Get("violations"); v != nullptr && v->is_array()) {
    for (const auto& item : v->array) {
      if (item->is_string()) {
        out->violations.push_back(item->str);
      }
    }
  }
  if (const json::Value* nodes = root.Get("nodes"); nodes != nullptr && nodes->is_array()) {
    for (const auto& n : nodes->array) {
      FlightDump::NodeLog log;
      log.node = static_cast<int>(n->GetNumber("node"));
      if (const json::Value* events = n->Get("events"); events != nullptr && events->is_array()) {
        for (const auto& e : events->array) {
          FlightDump::Event event;
          event.kind = e->GetString("kind");
          event.detail = static_cast<uint64_t>(e->GetNumber("detail"));
          event.start_us = e->GetNumber("start_us");
          event.end_us = e->GetNumber("end_us");
          log.events.push_back(std::move(event));
        }
      }
      out->nodes.push_back(std::move(log));
    }
  }
  if (const json::Value* inj = root.Get("injections"); inj != nullptr && inj->is_array()) {
    for (const auto& i : inj->array) {
      FlightDump::Injection note;
      note.what = i->GetString("what");
      note.klass = i->GetString("class");
      note.type = static_cast<uint32_t>(i->GetNumber("type"));
      note.src = static_cast<int>(i->GetNumber("src"));
      note.dst = static_cast<int>(i->GetNumber("dst"));
      note.at_us = i->GetNumber("at_us");
      out->injections.push_back(std::move(note));
    }
  }
  return true;
}

void PrintFlight(const FlightDump& dump, std::ostream& os) {
  os << "Flight recorder: " << dump.label << " — captured "
     << (dump.at_violation ? "at first oracle violation" : "at end of run") << "\n";
  if (!dump.violations.empty()) {
    os << dump.violations.size() << " violation(s):\n";
    for (const std::string& v : dump.violations) {
      os << "  ! " << v << "\n";
    }
  }
  // Interleave the per-node wait rings and the injection log into one timeline, ordered by the
  // instant each entry completed — the shape of the cluster's final moments.
  struct Line {
    double ts;
    std::string text;
  };
  std::vector<Line> lines;
  size_t events = 0;
  for (const FlightDump::NodeLog& log : dump.nodes) {
    for (const FlightDump::Event& e : log.events) {
      events++;
      std::ostringstream text;
      text << std::fixed << std::setprecision(1) << std::setw(14) << e.end_us << "  n" << log.node
           << " " << e.kind;
      if (e.kind == "page_fault") {
        text << " p" << e.detail;
      } else if (e.kind == "barrier") {
        text << " e" << e.detail;
      } else if (e.detail != 0) {
        text << " d" << e.detail;
      }
      text << " (" << FormatUs(e.end_us - e.start_us) << " us)";
      lines.push_back({e.end_us, text.str()});
    }
  }
  for (const FlightDump::Injection& i : dump.injections) {
    std::ostringstream text;
    text << std::fixed << std::setprecision(1) << std::setw(14) << i.at_us << "  inject " << i.what
         << " " << i.klass << " svc" << i.type << " n" << i.src << "->n" << i.dst;
    lines.push_back({i.at_us, text.str()});
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.ts < b.ts; });
  os << events << " wait event(s) across " << dump.nodes.size() << " node(s), "
     << dump.injections.size() << " injection(s):\n";
  for (const Line& line : lines) {
    os << line.text << "\n";
  }
}

// ---- CI regression gate --------------------------------------------------------------------

namespace {

const RunSummary* FindRun(const std::vector<RunSummary>& runs, const std::string& label) {
  for (const RunSummary& run : runs) {
    if (run.label == label) {
      return &run;
    }
  }
  return nullptr;
}

// The baseline of either gate, parsed; null with *error set when it is not JSON.
json::ValuePtr ParseBaseline(const std::string& baseline_text, std::string* error) {
  json::ValuePtr doc = ParseJson(baseline_text, error);
  if (doc == nullptr) {
    *error = "baseline " + *error;
  }
  return doc;
}

}  // namespace

GateResult CheckGate(const std::string& baseline_text, const std::vector<RunSummary>& runs,
                     std::string* error) {
  GateResult out;
  const json::ValuePtr doc = ParseBaseline(baseline_text, error);
  if (doc == nullptr) {
    out.ok = false;
    return out;
  }
  const json::Value& root = *doc;
  if (root.GetString("schema") != "dfil-gate-v1") {
    *error = "baseline is not a dfil-gate-v1 document";
    out.ok = false;
    return out;
  }
  const double tolerance = root.GetNumber("tolerance", 0.10);
  const json::Value* baseline_runs = root.Get("runs");
  if (baseline_runs == nullptr || !baseline_runs->is_object()) {
    *error = "baseline has no runs object";
    out.ok = false;
    return out;
  }
  for (const auto& [label, expectations] : baseline_runs->object) {
    const RunSummary* run = FindRun(runs, label);
    if (run == nullptr) {
      out.ok = false;
      out.lines.push_back("FAIL " + label + ": no metrics file with this label was supplied");
      out.failures.emplace_back(label, "");
      continue;
    }
    for (const auto& [counter, expected_value] : expectations->object) {
      if (!expected_value->is_number()) {
        continue;
      }
      const double expected = expected_value->number;
      const auto actual = static_cast<double>(run->ClusterCounter(counter));
      const double drift = std::abs(actual - expected) / std::max(expected, 1.0);
      std::ostringstream line;
      line << (drift > tolerance ? "FAIL " : "ok   ") << label << " " << counter << ": expected "
           << std::llround(expected) << ", got " << std::llround(actual) << " ("
           << std::showpos << std::fixed << std::setprecision(1) << 100.0 * (actual - expected) /
                  std::max(expected, 1.0)
           << "%, tolerance ±" << std::noshowpos << 100.0 * tolerance << "%)";
      out.lines.push_back(line.str());
      if (drift > tolerance) {
        out.ok = false;
        out.failures.emplace_back(label, counter);
      }
    }
  }
  return out;
}

GateResult CheckCritpathGate(const std::string& baseline_text, const CriticalPath& path,
                             std::string* error) {
  GateResult out;
  const json::ValuePtr doc = ParseBaseline(baseline_text, error);
  if (doc == nullptr) {
    out.ok = false;
    return out;
  }
  const json::Value& root = *doc;
  if (root.GetString("schema") != "dfil-critpath-gate-v1") {
    *error = "baseline is not a dfil-critpath-gate-v1 document";
    out.ok = false;
    return out;
  }
  if (!path.ok) {
    out.ok = false;
    out.lines.push_back("FAIL critpath: " + path.error);
    return out;
  }
  out.lines.push_back("ok   critpath: " + std::to_string(path.segments.size()) + " hops tile [0, " +
                      FormatUs(path.completion_us) + " us] with no gaps");
  const double tolerance_pp = root.GetNumber("tolerance_pp", 10.0);
  const json::Value* shares = root.Get("shares_pct");
  if (shares == nullptr || !shares->is_object()) {
    *error = "baseline has no shares_pct object";
    out.ok = false;
    return out;
  }
  const double denom = path.completion_us > 0.0 ? path.completion_us : 1.0;
  const std::map<std::string, double> actual = {
      {"compute", 100.0 * path.compute_us / denom},
      {"page_fault", 100.0 * path.fault_us / denom},
      {"barrier", 100.0 * path.barrier_us / denom},
  };
  for (const auto& [kind, expected_value] : shares->object) {
    if (!expected_value->is_number()) {
      continue;
    }
    auto it = actual.find(kind);
    if (it == actual.end()) {
      out.ok = false;
      out.lines.push_back("FAIL critpath " + kind + ": unknown wait category in baseline");
      continue;
    }
    const double expected = expected_value->number;
    const double drift = std::abs(it->second - expected);
    std::ostringstream line;
    line << (drift > tolerance_pp ? "FAIL " : "ok   ") << "critpath " << kind << " share: expected "
         << std::fixed << std::setprecision(1) << expected << "pp, got " << it->second << "pp (±"
         << tolerance_pp << "pp)";
    out.lines.push_back(line.str());
    if (drift > tolerance_pp) {
      out.ok = false;
    }
  }
  return out;
}

// ---- Run diffing (`dfil diff`) -------------------------------------------------------------

double Delta::rel() const {
  return (b - a) / std::max(std::abs(a), 1.0);
}

namespace {

std::string ProvenanceOr(const RunSummary& run, const std::string& key) {
  auto it = run.provenance.find(key);
  return it == run.provenance.end() ? std::string() : it->second;
}

void AddDelta(std::vector<Delta>* out, std::string name, double a, double b) {
  if (a == b) {
    return;
  }
  out->push_back(Delta{std::move(name), a, b});
}

void RankDeltas(std::vector<Delta>* deltas) {
  std::sort(deltas->begin(), deltas->end(), [](const Delta& x, const Delta& y) {
    const double rx = std::abs(x.rel());
    const double ry = std::abs(y.rel());
    if (rx != ry) {
      return rx > ry;
    }
    const double dx = std::abs(x.diff());
    const double dy = std::abs(y.diff());
    return dx != dy ? dx > dy : x.name < y.name;
  });
}

// Per-epoch rows summed across nodes: epoch key (the "epoch" column when present, else the row
// index + 1) -> column -> cluster total.
std::map<uint64_t, std::map<std::string, double>> EpochTotals(const RunSummary& run) {
  std::map<uint64_t, std::map<std::string, double>> totals;
  for (const RunSummary::Node& n : run.per_node) {
    for (size_t i = 0; i < n.epochs.size(); ++i) {
      const auto& row = n.epochs[i];
      uint64_t epoch = i + 1;
      if (auto it = row.find("epoch"); it != row.end()) {
        epoch = static_cast<uint64_t>(it->second);
      }
      for (const auto& [col, value] : row) {
        if (col != "epoch") {
          totals[epoch][col] += value;
        }
      }
    }
  }
  return totals;
}

std::map<uint64_t, uint64_t> PageHeatTotals(const RunSummary& run) {
  std::map<uint64_t, uint64_t> heat;
  for (const RunSummary::Node& n : run.per_node) {
    for (const auto& [page, faults] : n.page_heat) {
      heat[page] += faults;
    }
  }
  return heat;
}

std::map<int, PoolRow> PoolsByFn(const RunSummary& run) {
  std::map<int, PoolRow> by_fn;
  for (const PoolRow& row : run.pools_by_fn) {
    by_fn[row.fn] = row;
  }
  return by_fn;
}

std::string FnLabel(int fn) { return fn < 0 ? std::string("residual") : "fn" + std::to_string(fn); }

}  // namespace

FingerprintCheck CompareFingerprints(const RunSummary& a, const RunSummary& b) {
  FingerprintCheck out;
  // Hard mismatches: the runs execute different programs or a different memory shape, so no
  // counter delta between them attributes anything. Empty fields (old files) are "unknown", not
  // a mismatch.
  auto hard = [&out](const char* what, const std::string& va, const std::string& vb) {
    if (!va.empty() && !vb.empty() && va != vb) {
      out.compatible = false;
      out.mismatches.push_back(std::string(what) + ": " + va + " vs " + vb);
    }
  };
  hard("app", a.fingerprint.app, b.fingerprint.app);
  hard("page_shift", ProvenanceOr(a, "page_shift"), ProvenanceOr(b, "page_shift"));
  if (a.nodes != b.nodes) {
    out.compatible = false;
    out.mismatches.push_back("nodes: " + std::to_string(a.nodes) + " vs " +
                             std::to_string(b.nodes));
  }
  out.identical_config =
      !a.fingerprint.config.empty() && a.fingerprint.config == b.fingerprint.config;
  if (!out.identical_config) {
    // The digest only says "something schedule-affecting differs"; the provenance block says
    // what. cli.* keys record how the bench was invoked, not what ran — skip them.
    std::set<std::string> keys;
    for (const auto& [key, value] : a.provenance) {
      keys.insert(key);
    }
    for (const auto& [key, value] : b.provenance) {
      keys.insert(key);
    }
    for (const std::string& key : keys) {
      if (key.rfind("cli.", 0) == 0 || key == "config_digest") {
        continue;
      }
      const std::string va = ProvenanceOr(a, key);
      const std::string vb = ProvenanceOr(b, key);
      if (va != vb) {
        out.config_notes.push_back(key + ": " + (va.empty() ? "(unset)" : va) + " -> " +
                                   (vb.empty() ? "(unset)" : vb));
      }
    }
  }
  return out;
}

RunDiff DiffRuns(const RunSummary& a, const RunSummary& b) {
  RunDiff d;
  d.fingerprints = CompareFingerprints(a, b);
  d.makespan = Delta{"makespan_us", a.makespan_us, b.makespan_us};

  std::set<std::string> counter_names;
  for (const auto& [name, value] : a.cluster_counters) {
    counter_names.insert(name);
  }
  for (const auto& [name, value] : b.cluster_counters) {
    counter_names.insert(name);
  }
  for (const std::string& name : counter_names) {
    AddDelta(&d.counters, name, static_cast<double>(a.ClusterCounter(name)),
             static_cast<double>(b.ClusterCounter(name)));
  }

  std::set<std::string> hist_names;
  for (const RunSummary* run : {&a, &b}) {
    for (const RunSummary::Node& n : run->per_node) {
      for (const auto& [name, hist] : n.histograms) {
        hist_names.insert(name);
      }
    }
  }
  for (const std::string& name : hist_names) {
    const HistSummary ha = a.MergedHistogram(name);
    const HistSummary hb = b.MergedHistogram(name);
    AddDelta(&d.histograms, name + ".p50", ha.Percentile(50.0), hb.Percentile(50.0));
    AddDelta(&d.histograms, name + ".p99", ha.Percentile(99.0), hb.Percentile(99.0));
  }

  const auto epochs_a = EpochTotals(a);
  const auto epochs_b = EpochTotals(b);
  std::set<uint64_t> epoch_keys;
  for (const auto& [epoch, cols] : epochs_a) {
    epoch_keys.insert(epoch);
  }
  for (const auto& [epoch, cols] : epochs_b) {
    epoch_keys.insert(epoch);
  }
  for (const uint64_t epoch : epoch_keys) {
    std::set<std::string> cols;
    if (auto it = epochs_a.find(epoch); it != epochs_a.end()) {
      for (const auto& [col, value] : it->second) {
        cols.insert(col);
      }
    }
    if (auto it = epochs_b.find(epoch); it != epochs_b.end()) {
      for (const auto& [col, value] : it->second) {
        cols.insert(col);
      }
    }
    for (const std::string& col : cols) {
      auto cell = [epoch, &col](const std::map<uint64_t, std::map<std::string, double>>& totals) {
        auto it = totals.find(epoch);
        if (it == totals.end()) {
          return 0.0;
        }
        auto ct = it->second.find(col);
        return ct == it->second.end() ? 0.0 : ct->second;
      };
      AddDelta(&d.epochs, std::string("e").append(std::to_string(epoch)).append(".").append(col),
               cell(epochs_a), cell(epochs_b));
    }
  }

  const auto pools_a = PoolsByFn(a);
  const auto pools_b = PoolsByFn(b);
  std::set<int> fns;
  for (const auto& [fn, row] : pools_a) {
    fns.insert(fn);
  }
  for (const auto& [fn, row] : pools_b) {
    fns.insert(fn);
  }
  for (const int fn : fns) {
    const PoolRow ra = pools_a.count(fn) != 0 ? pools_a.at(fn) : PoolRow{};
    const PoolRow rb = pools_b.count(fn) != 0 ? pools_b.at(fn) : PoolRow{};
    const std::string prefix = FnLabel(fn) + ".";
    AddDelta(&d.pools, prefix + "run_us", ra.run_us, rb.run_us);
    AddDelta(&d.pools, prefix + "blocked_us", ra.blocked_us, rb.blocked_us);
    AddDelta(&d.pools, prefix + "serve_us", ra.serve_us, rb.serve_us);
    AddDelta(&d.pools, prefix + "faults", static_cast<double>(ra.faults),
             static_cast<double>(rb.faults));
    AddDelta(&d.pools, prefix + "filaments_run", static_cast<double>(ra.filaments_run),
             static_cast<double>(rb.filaments_run));
    AddDelta(&d.pools, prefix + "migrated_in", static_cast<double>(ra.migrated_in),
             static_cast<double>(rb.migrated_in));
  }

  const auto heat_a = PageHeatTotals(a);
  const auto heat_b = PageHeatTotals(b);
  std::set<uint64_t> pages;
  for (const auto& [page, faults] : heat_a) {
    pages.insert(page);
  }
  for (const auto& [page, faults] : heat_b) {
    pages.insert(page);
  }
  for (const uint64_t page : pages) {
    const auto fa = heat_a.count(page) != 0 ? heat_a.at(page) : 0;
    const auto fb = heat_b.count(page) != 0 ? heat_b.at(page) : 0;
    AddDelta(&d.pages, "page " + std::to_string(page), static_cast<double>(fa),
             static_cast<double>(fb));
  }

  RankDeltas(&d.counters);
  RankDeltas(&d.histograms);
  RankDeltas(&d.epochs);
  RankDeltas(&d.pools);
  RankDeltas(&d.pages);
  return d;
}

namespace {

std::string DeltaNumber(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

std::string RelPct(const Delta& d) {
  // Appearing / vanishing quantities would print as absurd percentages of the +/-1 floor;
  // name the situation instead.
  if (d.a == 0.0 && d.b != 0.0) {
    return "(new)";
  }
  if (d.b == 0.0 && d.a != 0.0) {
    return "(gone)";
  }
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(1) << 100.0 * d.rel() << "%";
  return os.str();
}

void PrintDeltaTable(const char* title, const std::vector<Delta>& deltas, size_t top_n,
                     std::ostream& os) {
  if (deltas.empty()) {
    return;
  }
  os << title << " (" << deltas.size() << " changed)\n";
  os << std::left << std::setw(34) << "  name" << std::right << std::setw(16) << "A"
     << std::setw(16) << "B" << std::setw(16) << "delta" << std::setw(10) << "rel" << "\n";
  for (size_t i = 0; i < deltas.size() && i < top_n; ++i) {
    const Delta& d = deltas[i];
    os << std::left << std::setw(34) << ("  " + d.name) << std::right << std::setw(16)
       << DeltaNumber(d.a) << std::setw(16) << DeltaNumber(d.b) << std::setw(16)
       << DeltaNumber(d.diff()) << std::setw(10) << RelPct(d) << "\n";
  }
  if (deltas.size() > top_n) {
    os << "  ... " << deltas.size() - top_n << " more (raise --top)\n";
  }
}

}  // namespace

void PrintRunDiff(const RunDiff& diff, const RunSummary& a, const RunSummary& b, size_t top_n,
                  std::ostream& os) {
  os << "Run diff: A=" << a.label << " (" << a.pcp << ") vs B=" << b.label << " (" << b.pcp
     << ")\n";
  const FingerprintCheck& fp = diff.fingerprints;
  if (!fp.compatible) {
    os << "fingerprints: INCOMPATIBLE — the runs execute different programs:\n";
    for (const std::string& m : fp.mismatches) {
      os << "  ! " << m << "\n";
    }
  } else if (fp.identical_config) {
    os << "fingerprints: identical config (digest " << a.fingerprint.config
       << ") — any delta below is noise or a code change";
    if (!a.fingerprint.git.empty() && a.fingerprint.git != b.fingerprint.git) {
      os << " (git " << a.fingerprint.git << " -> " << b.fingerprint.git << ")";
    }
    os << "\n";
  } else {
    os << "fingerprints: comparable A/B (app " << (a.fingerprint.app.empty() ? "?" : a.fingerprint.app)
       << ", " << a.nodes << " nodes); config differs:\n";
    for (const std::string& note : fp.config_notes) {
      os << "  ~ " << note << "\n";
    }
    if (fp.config_notes.empty()) {
      os << "  ~ (digest differs but no provenance key does — a knob outside provenance moved)\n";
    }
  }
  {
    std::ostringstream line;
    line << "makespan_us: " << DeltaNumber(diff.makespan.a) << " -> "
         << DeltaNumber(diff.makespan.b);
    if (diff.makespan.diff() != 0.0) {
      line << " (" << RelPct(diff.makespan) << ")";
    }
    os << line.str() << "\n\n";
  }
  PrintDeltaTable("Counter deltas", diff.counters, top_n, os);
  PrintDeltaTable("Histogram percentile deltas", diff.histograms, top_n, os);
  PrintDeltaTable("Per-pool deltas (by filament fn)", diff.pools, top_n, os);
  PrintDeltaTable("Per-epoch deltas (cluster totals)", diff.epochs, top_n, os);
  PrintDeltaTable("Page-heat deltas (demand faults)", diff.pages, top_n, os);
}

std::vector<Delta> DiffBlame(const CriticalPath& a, const CriticalPath& b) {
  std::map<std::string, Delta> joined;
  for (const BlameRow& row : BlamePath(a)) {
    Delta& d = joined[row.label];
    d.name = row.label;
    d.a = row.us;
  }
  for (const BlameRow& row : BlamePath(b)) {
    Delta& d = joined[row.label];
    d.name = row.label;
    d.b = row.us;
  }
  std::vector<Delta> out;
  for (auto& [label, d] : joined) {
    if (d.a != d.b) {
      out.push_back(std::move(d));
    }
  }
  RankDeltas(&out);
  return out;
}

void PrintBlameDiff(const std::vector<Delta>& deltas, size_t top_n, std::ostream& os) {
  if (deltas.empty()) {
    os << "Critical-path blame: identical between the two traces\n";
    return;
  }
  PrintDeltaTable("Critical-path blame deltas (us on the path)", deltas, top_n, os);
}

// ---- Gate drift localization (`dfil gate`) -------------------------------------------------

namespace {

// Where a failing counter lives: the per-node split, the hottest pages for DSM counters, and
// the epochs carrying the matching per-epoch column when the series records one.
void ExplainCounter(const RunSummary& run, const std::string& counter, size_t top_n,
                    std::ostream& os) {
  os << "  " << run.label << " " << counter << ":\n";
  os << "    per-node:";
  for (const RunSummary::Node& n : run.per_node) {
    std::ostringstream cell;
    if (counter == "makespan_us") {
      cell << FormatUs(n.finished_at_us);
    } else {
      auto it = n.counters.find(counter);
      cell << (it == n.counters.end() ? 0 : it->second);
    }
    os << " n" << n.node << "=" << cell.str();
  }
  os << "\n";
  if (counter.rfind("dsm.", 0) == 0) {
    const auto heat = PageHeatTotals(run);
    std::vector<std::pair<uint64_t, uint64_t>> ranked(heat.begin(), heat.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
      return x.second != y.second ? x.second > y.second : x.first < y.first;
    });
    if (!ranked.empty()) {
      os << "    hottest pages:";
      for (size_t i = 0; i < ranked.size() && i < top_n; ++i) {
        os << " p" << ranked[i].first << "=" << ranked[i].second;
      }
      os << "\n";
    }
  }
  // The per-epoch series names columns without the layer prefix ("faults", not
  // "dsm.read_faults"); try the counter's suffix, then the generic fault column.
  std::string col = counter.substr(counter.rfind('.') + 1);
  const auto epochs = EpochTotals(run);
  auto has_col = [&epochs](const std::string& name) {
    for (const auto& [epoch, cols] : epochs) {
      if (cols.count(name) != 0) {
        return true;
      }
    }
    return false;
  };
  if (!has_col(col) && counter.find("fault") != std::string::npos && has_col("faults")) {
    col = "faults";
  }
  if (has_col(col)) {
    std::vector<std::pair<uint64_t, double>> by_epoch;
    for (const auto& [epoch, cols] : epochs) {
      if (auto it = cols.find(col); it != cols.end() && it->second != 0.0) {
        by_epoch.emplace_back(epoch, it->second);
      }
    }
    std::sort(by_epoch.begin(), by_epoch.end(), [](const auto& x, const auto& y) {
      return x.second != y.second ? x.second > y.second : x.first < y.first;
    });
    if (!by_epoch.empty()) {
      os << "    top epochs by " << col << ":";
      for (size_t i = 0; i < by_epoch.size() && i < top_n; ++i) {
        os << " e" << by_epoch[i].first << "=" << DeltaNumber(by_epoch[i].second);
      }
      os << "\n";
    }
  }
}

}  // namespace

void PrintGate(const GateResult& gate, const std::vector<RunSummary>& runs, size_t top_n,
               std::ostream& os) {
  for (const std::string& line : gate.lines) {
    os << line << "\n";
  }
  if (gate.failures.empty()) {
    return;
  }
  os << "\nWhere the drift lives:\n";
  for (const auto& [label, counter] : gate.failures) {
    const RunSummary* run = FindRun(runs, label);
    if (run == nullptr) {
      os << "  " << label << ": no metrics file with this label was supplied — check the CI\n"
         << "  step's file list against the baseline's run labels\n";
    } else {
      ExplainCounter(*run, counter, top_n, os);
    }
  }
}

// ---- Result history (bench/HISTORY.jsonl) --------------------------------------------------

std::string HistoryLine(const RunSummary& run) {
  std::ostringstream os;
  os << "{\"kind\": \"metrics\", \"label\": \"" << run.label << "\", \"app\": \""
     << run.fingerprint.app << "\", \"config\": \"" << run.fingerprint.config << "\", \"git\": \""
     << run.fingerprint.git << "\", \"seed\": \"" << run.fingerprint.seed
     << "\", \"nodes\": " << run.nodes << ", \"pcp\": \"" << run.pcp
     << "\", \"completed\": " << (run.completed ? 1 : 0)
     << ", \"makespan_us\": " << DeltaNumber(run.makespan_us) << ", \"counters\": {";
  bool first = true;
  for (const char* counter : kFigure9Counters) {
    const uint64_t value = run.ClusterCounter(counter);
    if (value == 0) {
      continue;
    }
    os << (first ? "" : ", ") << "\"" << counter << "\": " << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

bool BenchHistoryLine(const std::string& bench_json_text, std::string* line, std::string* error) {
  const json::ValuePtr doc = ParseJson(bench_json_text, error);
  if (doc == nullptr) {
    return false;
  }
  const json::Value& root = *doc;
  if (!root.is_object() || root.Get("bench") == nullptr || !root.Get("bench")->is_string()) {
    *error = "not a BENCH_*.json report (no \"bench\" string field)";
    return false;
  }
  std::ostringstream os;
  os << "{\"kind\": \"bench\", \"bench\": \"" << root.GetString("bench") << "\"";
  size_t rows = 0;
  for (const auto& [key, value] : root.object) {
    if (value->is_number()) {
      os << ", \"" << key << "\": " << DeltaNumber(value->number);
    } else if (key == "rows" && value->is_array()) {
      rows = value->array.size();
    }
  }
  os << ", \"rows\": " << rows << "}";
  *line = os.str();
  return true;
}

bool AppendHistory(const std::string& path, const std::vector<std::string>& lines,
                   size_t* appended, std::string* error) {
  *appended = 0;
  std::set<std::string> existing;
  {
    std::ifstream in(path);  // absent file = empty history, created below
    std::string line;
    while (std::getline(in, line)) {
      existing.insert(line);
    }
  }
  std::ofstream out(path, std::ios::app);
  if (!out) {
    *error = path + ": cannot open for append";
    return false;
  }
  for (const std::string& line : lines) {
    if (existing.insert(line).second) {
      out << line << "\n";
      ++*appended;
    }
  }
  if (!out) {
    *error = path + ": write failed";
    return false;
  }
  return true;
}

// ---- The dfil command line -----------------------------------------------------------------

CliOptions ParseCliOptions(const std::vector<std::string>& args) {
  CliOptions opt;
  for (size_t i = 0; i < args.size() && opt.error.empty(); ++i) {
    const std::string& arg = args[i];
    // "--flag VALUE" and "--flag=VALUE" are both accepted; a trailing valueless "--flag" is a
    // usage error (reported through opt.error, never a silent default).
    auto value_of = [&](const std::string& flag, std::string* value) {
      if (arg == flag) {
        if (i + 1 < args.size()) {
          *value = args[++i];
        } else {
          opt.error = arg + " (missing value)";
        }
        return true;
      }
      if (arg.rfind(flag + "=", 0) == 0) {
        *value = arg.substr(flag.size() + 1);
        return true;
      }
      return false;
    };
    std::string top;
    if (value_of("--top", &top)) {
      // from_chars takes digits only: an empty value, a sign or a blank fails it, and trailing
      // junk stops it short of `end`.
      const char* end = top.data() + top.size();
      const auto [ptr, ec] = std::from_chars(top.data(), end, opt.top_n);
      if (opt.error.empty() && (ec != std::errc() || ptr != end)) {
        opt.error = "--top=" + top + " (not a non-negative integer)";
      }
    } else if (arg == "--force") {
      opt.force = true;
    } else if (arg.rfind("--", 0) != 0) {
      opt.paths.push_back(arg);
    } else if (!value_of("--check", &opt.check_baseline)) {
      opt.error = arg;
    }
  }
  return opt;
}

namespace {

constexpr char kUsage[] =
    "usage: dfil <command> [flags] <files...>\n"
    "\n"
    "metrics commands (METRICS_*.json, dfil-metrics-v2):\n"
    "  report      METRICS_*.json        Figure 10 + fault latency + hottest pages per run,\n"
    "                                    Figure 9 across runs\n"
    "  figure10    METRICS_*.json        per-node time breakdown only\n"
    "  figure9     METRICS_*.json        message counts per protocol only\n"
    "  hot         METRICS_*.json        hottest pages only\n"
    "\n"
    "trace commands (Chrome trace-event JSON):\n"
    "  check-trace TRACE.json...         structural validity (span nesting, flow arcs)\n"
    "  critpath    TRACE.json...         end-to-end critical path: per-hop compute /\n"
    "                                    page-fault / barrier blame and the what-if bound\n"
    "  blame       TRACE.json...         critical-path residency ranked by cause\n"
    "                                    (page / barrier epoch / node compute)\n"
    "\n"
    "failure forensics (FLIGHT_*.json, dfil-flight-v1):\n"
    "  flight      FLIGHT.json...        render a flight-recorder dump: oracle violations,\n"
    "                                    last wait events per node, recent fault injections\n"
    "\n"
    "A/B attribution and result history:\n"
    "  diff        A.json B.json [A_TRACE.json B_TRACE.json]\n"
    "                                    fingerprint check, then ranked counter / histogram /\n"
    "                                    pool / epoch / page-heat deltas (A = baseline); with\n"
    "                                    the trace pair, the critical-path blame tables too\n"
    "  history     FILE.jsonl METRICS_*.json|BENCH_*.json...\n"
    "                                    append one-line JSON summaries, skipping duplicates\n"
    "\n"
    "CI gates:\n"
    "  gate        BASELINE.json METRICS_*.json\n"
    "                                    counter-regression gate (dfil-gate-v1); a failing\n"
    "                                    counter is localized to nodes, pages and epochs\n"
    "  critpath --check BASELINE.json TRACE.json\n"
    "                                    gate the path's wait-category shares\n"
    "                                    (dfil-critpath-gate-v1)\n"
    "\n"
    "flags (position-independent, accepted by every command):\n"
    "  --top N          rows/hops/deltas to print (default 10)\n"
    "  --check FILE     critpath/blame: gate against a dfil-critpath-gate-v1 baseline\n"
    "  --force          diff: compare runs whose fingerprints are incompatible\n"
    "\n"
    "exit codes (scripts may rely on them):\n"
    "  0 ok, 1 gate/check failure or incompatible runs, 2 usage error,\n"
    "  3 unreadable/unparseable input\n";

int Usage(std::ostream& err) {
  err << kUsage;
  return kExitUsage;
}

int Fail(std::ostream& err, const std::string& message, int exit_code) {
  err << "dfil: " << message << "\n";
  return exit_code;
}

// Loads METRICS files in order; kExitIo at the first unreadable one.
int LoadRuns(const std::vector<std::string>& paths, std::vector<RunSummary>* runs,
             std::ostream& err) {
  for (const std::string& path : paths) {
    RunSummary run;
    std::string error;
    if (!LoadRun(path, &run, &error)) {
      return Fail(err, error, kExitIo);
    }
    runs->push_back(std::move(run));
  }
  return kExitOk;
}

// The one read-and-parse step of every command that reads a trace: an unreadable file or one
// that is not JSON is kExitIo; what the trace says is judged by the caller.
int LoadTrace(const std::string& path, json::ValuePtr* trace, std::ostream& err) {
  std::string text;
  std::string error;
  if (!ReadFile(path, &text, &error)) {
    return Fail(err, error, kExitIo);
  }
  *trace = ParseJson(text, &error);
  return *trace == nullptr ? Fail(err, path + ": " + error, kExitIo) : kExitOk;
}

int CmdMetrics(const std::string& cmd, const CliOptions& opt, std::ostream& out,
               std::ostream& err) {
  if (opt.paths.empty()) {
    return Usage(err);
  }
  std::vector<RunSummary> runs;
  if (const int rc = LoadRuns(opt.paths, &runs, err); rc != kExitOk) {
    return rc;
  }
  const bool all = cmd == "report";
  for (const RunSummary& run : runs) {
    if (all || cmd == "figure10") {
      PrintFigure10(run, out);
      out << "\n";
    }
    if (all) {
      PrintFaultLatency(run, out);
    }
    if (all || cmd == "hot") {
      PrintHotPages(run, opt.top_n, out);
      out << "\n";
    }
  }
  if (all || cmd == "figure9") {
    PrintFigure9(runs, out);
  }
  return kExitOk;
}

int CmdCheckTrace(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  if (opt.paths.empty()) {
    return Usage(err);
  }
  bool ok = true;
  for (const std::string& path : opt.paths) {
    json::ValuePtr trace;
    if (const int rc = LoadTrace(path, &trace, err); rc != kExitOk) {
      return rc;
    }
    const TraceCheck check = CheckChromeTrace(*trace);
    out << path << ": " << check.events << " events, " << check.spans << " spans, "
        << check.complete_flows << "/" << check.flow_starts << " flows complete — "
        << (check.ok ? "OK" : "MALFORMED") << "\n";
    for (const std::string& error : check.errors) {
      out << "  " << error << "\n";
    }
    ok = ok && check.ok;
  }
  return ok ? kExitOk : kExitCheckFailed;
}

int CmdCritpath(const std::string& cmd, const CliOptions& opt, std::ostream& out,
                std::ostream& err) {
  if (opt.paths.empty()) {
    return Usage(err);
  }
  std::string baseline_text;
  std::string error;
  if (!opt.check_baseline.empty() && !ReadFile(opt.check_baseline, &baseline_text, &error)) {
    return Fail(err, error, kExitIo);
  }
  bool ok = true;
  for (const std::string& path : opt.paths) {
    json::ValuePtr trace;
    if (const int rc = LoadTrace(path, &trace, err); rc != kExitOk) {
      return rc;
    }
    const CriticalPath critpath = BuildCriticalPath(*trace);
    out << path << ":\n";
    if (cmd == "blame") {
      PrintBlame(critpath, opt.top_n, out);
    } else {
      PrintCritPath(critpath, opt.top_n, out);
    }
    ok = ok && critpath.ok;
    if (!opt.check_baseline.empty()) {
      const GateResult gate = CheckCritpathGate(baseline_text, critpath, &error);
      if (!error.empty()) {
        return Fail(err, error, kExitIo);
      }
      for (const std::string& line : gate.lines) {
        out << line << "\n";
      }
      out << "critpath gate: " << (gate.ok ? "PASS" : "FAIL") << "\n";
      ok = ok && gate.ok;
    }
    out << "\n";
  }
  return ok ? kExitOk : kExitCheckFailed;
}

int CmdFlight(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  if (opt.paths.empty()) {
    return Usage(err);
  }
  for (const std::string& path : opt.paths) {
    std::string text;
    std::string error;
    if (!ReadFile(path, &text, &error)) {
      return Fail(err, error, kExitIo);
    }
    FlightDump dump;
    if (!ParseFlight(text, &dump, &error)) {
      return Fail(err, path + ": " + error, kExitIo);
    }
    out << path << ":\n";
    PrintFlight(dump, out);
    out << "\n";
  }
  return kExitOk;
}

int CmdGate(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  if (opt.paths.size() < 2) {
    return Usage(err);
  }
  std::string baseline_text;
  std::string error;
  if (!ReadFile(opt.paths[0], &baseline_text, &error)) {
    return Fail(err, error, kExitIo);
  }
  std::vector<RunSummary> runs;
  if (const int rc = LoadRuns({opt.paths.begin() + 1, opt.paths.end()}, &runs, err);
      rc != kExitOk) {
    return rc;
  }
  const GateResult gate = CheckGate(baseline_text, runs, &error);
  if (!error.empty()) {
    return Fail(err, error, kExitIo);
  }
  PrintGate(gate, runs, opt.top_n, out);
  out << "gate: " << (gate.ok ? "PASS" : "FAIL") << "\n";
  return gate.ok ? kExitOk : kExitCheckFailed;
}

int CmdDiff(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  const std::vector<std::string>& paths = opt.paths;
  if (paths.size() != 2 && paths.size() != 4) {
    return Usage(err);
  }
  std::vector<RunSummary> runs;
  if (const int rc = LoadRuns({paths[0], paths[1]}, &runs, err); rc != kExitOk) {
    return rc;
  }
  const RunDiff diff = DiffRuns(runs[0], runs[1]);
  PrintRunDiff(diff, runs[0], runs[1], opt.top_n, out);
  if (!diff.fingerprints.compatible && !opt.force) {
    return Fail(err,
                "fingerprints are incompatible — the deltas above compare different programs "
                "(use --force to accept them anyway)",
                kExitCheckFailed);
  }
  if (paths.size() == 2) {
    return kExitOk;
  }
  CriticalPath critpaths[2];
  for (int i = 0; i < 2; ++i) {
    json::ValuePtr trace;
    if (const int rc = LoadTrace(paths[2 + i], &trace, err); rc != kExitOk) {
      return rc;
    }
    critpaths[i] = BuildCriticalPath(*trace);
  }
  for (int i = 0; i < 2; ++i) {
    if (!critpaths[i].ok) {
      return Fail(err, paths[2 + i] + ": " + critpaths[i].error, kExitCheckFailed);
    }
  }
  out << "\nCritical path A (" << paths[2] << "):\n";
  PrintCritPath(critpaths[0], 3, out);
  out << "\nCritical path B (" << paths[3] << "):\n";
  PrintCritPath(critpaths[1], 3, out);
  out << "\n";
  PrintBlameDiff(DiffBlame(critpaths[0], critpaths[1]), opt.top_n, out);
  return kExitOk;
}

int CmdHistory(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  if (opt.paths.size() < 2) {
    return Usage(err);
  }
  const std::string& history = opt.paths[0];
  std::vector<std::string> lines;
  for (auto it = opt.paths.begin() + 1; it != opt.paths.end(); ++it) {
    std::string text;
    std::string error;
    if (!ReadFile(*it, &text, &error)) {
      return Fail(err, error, kExitIo);
    }
    // METRICS files carry a dfil-metrics schema tag; everything else must be a BENCH report.
    std::string line;
    if (text.find("\"dfil-metrics-v") != std::string::npos) {
      RunSummary run;
      if (!ParseRun(text, &run, &error)) {
        return Fail(err, *it + ": " + error, kExitIo);
      }
      line = HistoryLine(run);
    } else if (!BenchHistoryLine(text, &line, &error)) {
      return Fail(err, *it + ": " + error, kExitIo);
    }
    lines.push_back(std::move(line));
  }
  size_t appended = 0;
  std::string error;
  if (!AppendHistory(history, lines, &appended, &error)) {
    return Fail(err, error, kExitIo);
  }
  out << "appended " << appended << " line(s) to " << history << " ("
      << lines.size() - appended << " duplicate(s) skipped)\n";
  return kExitOk;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h" || args[0] == "help")) {
    Usage(err);
    return kExitOk;
  }
  CliOptions opt = ParseCliOptions(args);
  if (!opt.error.empty()) {
    err << "dfil: bad flag: " << opt.error << "\n";
    return Usage(err);
  }
  if (opt.paths.empty()) {
    return Usage(err);
  }
  // The command is the first operand; the rest are its input files, in order.
  const std::string cmd = opt.paths.front();
  opt.paths.erase(opt.paths.begin());
  if (cmd == "report" || cmd == "figure10" || cmd == "figure9" || cmd == "hot") {
    return CmdMetrics(cmd, opt, out, err);
  }
  if (cmd == "check-trace") {
    return CmdCheckTrace(opt, out, err);
  }
  if (cmd == "critpath" || cmd == "blame") {
    return CmdCritpath(cmd, opt, out, err);
  }
  if (cmd == "flight") {
    return CmdFlight(opt, out, err);
  }
  if (cmd == "gate") {
    return CmdGate(opt, out, err);
  }
  if (cmd == "diff") {
    return CmdDiff(opt, out, err);
  }
  if (cmd == "history") {
    return CmdHistory(opt, out, err);
  }
  err << "dfil: unknown command '" << cmd << "'\n";
  return Usage(err);
}

}  // namespace dfil::report
