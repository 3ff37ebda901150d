// Analysis library behind the `dfil` CLI (tools/dfil.cc) and the observability tests.
//
// Consumes the two JSON artifacts the runtime emits — METRICS_<label>.json (dfil-metrics-v2,
// src/core/metrics_io.h) and Chrome trace-event files (TraceRecorder::WriteChromeTrace) — and
// renders the paper's analysis tables:
//   * Figure 10: per-node stacked time breakdown (work / filament_exec / data_transfer /
//     sync_overhead / sync_delay / idle).
//   * Figure 9: message counts per page-consistency protocol, side by side across runs, with
//     p50/p99 fault latency from the merged per-node histograms.
//   * Hottest pages (per-page demand-fault heat) and the end-to-end critical path rebuilt from a
//     trace.
// It also hosts the trace-validity checker, the CI gates, A/B run diffing, the result history,
// and the command line itself (RunCli), so tests drive every command in process.
#ifndef DFIL_TOOLS_REPORT_LIB_H_
#define DFIL_TOOLS_REPORT_LIB_H_

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"

namespace dfil::report {

// ---- The dfil command line -----------------------------------------------------------------

// Exit-code contract of every `dfil` command. Scripts and CI steps key off these values, so they
// are part of the tool's public interface:
//   0  success
//   1  a gate or check failed (counter drift, malformed trace, incompatible fingerprints)
//   2  usage error (unknown command, missing operands, bad flag)
//   3  an input could not be read or parsed
constexpr int kExitOk = 0;
constexpr int kExitCheckFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

// The position-independent flag vocabulary. Every command accepts every flag; an unknown
// "--flag", a missing value, or a --top value that is not a non-negative decimal integer sets
// `error` and the caller prints usage (exit 2).
struct CliOptions {
  size_t top_n = 10;           // --top N / --top=N
  std::string check_baseline;  // --check FILE   (critpath / blame)
  bool force = false;          // --force        (diff: compare despite incompatible runs)
  std::vector<std::string> paths;  // bare operands, in order (the command is the first)
  std::string error;           // non-empty = malformed/unknown flag (the offending token)
};
CliOptions ParseCliOptions(const std::vector<std::string>& args);

// Runs one `dfil` command. `args` excludes the program name. Tables and verdicts go to `out`,
// usage and diagnostics to `err`; the return value is the exit code above.
int RunCli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

// One histogram as exported by MetricsRegistry::WriteJson, buckets included so histograms from
// different nodes can be merged before computing cluster-wide percentiles.
struct HistSummary {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Power-of-two buckets as [low, high, count] triples (empty buckets omitted by the writer).
  std::vector<std::array<double, 3>> buckets;

  void Merge(const HistSummary& other);
  // Interpolated percentile over the merged buckets, clamped to [min, max]; 0 when empty.
  double Percentile(double p) const;
};

// The run fingerprint stamped into every dfil-metrics-v2 document (src/core/metrics_io.h):
// "config" is ClusterConfig::DigestHex() over every schedule-affecting knob, "git" the build's
// commit, "seed" the cluster RNG seed, "app" the program identity. Fields stay empty when the
// document carries no fingerprint.
struct Fingerprint {
  std::string config;
  std::string git;
  std::string seed;
  std::string app;

  bool empty() const { return config.empty() && git.empty() && seed.empty() && app.empty(); }
};

// One row of the per-pool profiling section ("pools" per node, "pools_by_fn" cluster-wide).
// pool/fn -1 is the residual: run time outside any pool plus all handler serve time.
struct PoolRow {
  int pool = -1;
  int fn = -1;
  double run_us = 0.0;
  double blocked_us = 0.0;
  double serve_us = 0.0;
  uint64_t faults = 0;
  uint64_t filaments_run = 0;
  uint64_t migrated_in = 0;
};

// A parsed dfil-metrics-v2 document.
struct RunSummary {
  std::string path;   // file it was loaded from (diagnostics)
  std::string label;
  std::string pcp;
  int nodes = 0;
  bool completed = false;
  double makespan_us = 0.0;
  Fingerprint fingerprint;
  std::map<std::string, std::string> provenance;
  std::map<std::string, uint64_t> cluster_counters;
  std::vector<PoolRow> pools_by_fn;  // cluster-wide per-filament-fn rollup (keyed on .fn)

  struct Node {
    int node = 0;
    double finished_at_us = 0.0;
    double final_clock_us = 0.0;                      // clock at end of run (incl. tail)
    std::map<std::string, double> time_us;            // Figure 10 categories
    double run_us = 0.0;                              // wait-state ledgers:
    double serve_us = 0.0;                            //   run + serve + sum(wait_us) ==
    std::map<std::string, double> wait_us;            //   final_clock_us
    std::map<std::string, uint64_t> wait_events;      // blocked-interval counts by kind
    std::vector<PoolRow> pools;                       // per-pool ledgers (keyed on .pool)
    std::vector<std::map<std::string, double>> epochs;  // per-sync-point time series rows
    std::map<std::string, uint64_t> counters;
    std::map<std::string, HistSummary> histograms;
    std::vector<std::pair<uint64_t, uint64_t>> page_heat;  // (page, demand faults)
  };
  std::vector<Node> per_node;

  uint64_t ClusterCounter(const std::string& name) const;
  // Per-node histograms of `name` merged into one cluster-wide histogram.
  HistSummary MergedHistogram(const std::string& name) const;
};

// Parse a metrics document from text / load it from a file. On failure returns false and sets
// *error; *out is left in an unspecified state.
bool ParseRun(const std::string& text, RunSummary* out, std::string* error);
bool LoadRun(const std::string& path, RunSummary* out, std::string* error);

// Reads a whole file; returns false and sets *error when unreadable.
bool ReadFile(const std::string& path, std::string* out, std::string* error);

// Paper tables.
void PrintFigure10(const RunSummary& run, std::ostream& os);
void PrintFigure9(const std::vector<RunSummary>& runs, std::ostream& os);
void PrintFaultLatency(const RunSummary& run, std::ostream& os);
void PrintHotPages(const RunSummary& run, size_t top_n, std::ostream& os);

// ---- Trace analysis ------------------------------------------------------------------------

// The trace functions take the parsed document of a Chrome trace-event file (a bare event array
// or {"traceEvents": [...]}); a document without an event array is a structural error.

// Structural validity of a trace: every track's B/E events balance with non-decreasing
// timestamps, and every flow-start id is eventually finished. Errors are capped at a few dozen
// lines; `ok` reflects the full scan.
struct TraceCheck {
  bool ok = false;
  std::vector<std::string> errors;
  size_t events = 0;
  size_t spans = 0;           // completed B/E pairs
  size_t flow_starts = 0;
  size_t flow_ends = 0;
  size_t complete_flows = 0;  // flow ids with both an 's' and an 'f'
};
TraceCheck CheckChromeTrace(const json::Value& trace);

// One reconstructed cross-node flow arc (fault begin on the faulting node through serve/chase
// steps to the install): the trace-level view of a single remote page fault.
struct FlowArc {
  uint64_t id = 0;
  std::string name;      // "p<page>" / "bulk p<first>"
  double start_ts = 0.0;  // microseconds
  double end_ts = 0.0;
  int start_node = -1;
  int end_node = -1;
  size_t steps = 0;  // 't' events in between (serves, chases, invalidation hops)

  double duration_us() const { return end_ts - start_ts; }
};

// All complete arcs (those with both 's' and 'f'), unsorted.
std::vector<FlowArc> ExtractFlows(const json::Value& trace);

// ---- End-to-end critical path --------------------------------------------------------------

// One hop of the run's critical path: an interval on one node's timeline, classified as compute,
// a page-fault stall (detail: the page), or a barrier gap (detail: the epoch; the interval runs
// from the last arriver's entry to the release on the node the walk is on). A page-fault hop is
// fault *residency* — time during which at least one demand fault was outstanding on the node.
// Other threads of the node may execute under it (communication/computation overlap), so the
// what-if bound below is optimistic by construction.
struct PathSegment {
  enum class Kind { kCompute, kPageFault, kBarrier };
  Kind kind = Kind::kCompute;
  int node = -1;
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t page = 0;   // kPageFault only
  uint64_t epoch = 0;  // kBarrier only

  double duration_us() const { return end_us - start_us; }
};
const char* PathSegmentKindName(PathSegment::Kind kind);

// The longest dependency chain through the run, reconstructed from a Chrome trace. The builder
// anchors at the latest per-node "done" instant, walks backward through the epoch-stamped
// "reduce e<K>" spans — each barrier hop jumps to that epoch's last arriver, the node that held
// the release back — and decomposes every inter-barrier gap into "fault p<P>" stalls vs compute.
// Segments are contiguous by construction: they tile [0, completion_us] exactly, so
// sum(duration) == completion_us (the run's virtual completion time). Violations of that
// invariant (a malformed trace) surface as ok = false.
struct CriticalPath {
  bool ok = false;
  std::string error;                  // set when !ok
  int critical_node = -1;             // node whose "done" instant is latest
  double completion_us = 0.0;         // max per-node done timestamp
  double compute_us = 0.0;            // segment-duration sums by kind
  double fault_us = 0.0;
  double barrier_us = 0.0;
  uint64_t rebalance_events = 0;      // "rebalance ..." instants seen anywhere on the trace
  std::vector<PathSegment> segments;  // time order, from ts 0 to completion_us
};
CriticalPath BuildCriticalPath(const json::Value& trace);

// Blame view: path segments aggregated by cause — "page <p>", "barrier e<k>", "compute n<i>" —
// ranked by total critical-path residency, largest first.
struct BlameRow {
  std::string label;
  double us = 0.0;
  uint64_t hops = 0;  // path segments aggregated into this row
};
std::vector<BlameRow> BlamePath(const CriticalPath& path);

// What-if lower bound: completion time with every page serve made free (all fault segments
// excised from the path). Barrier hops are kept — they bound even a perfect-DSM run.
double WhatIfZeroCostPages(const CriticalPath& path);

void PrintCritPath(const CriticalPath& path, size_t top_n, std::ostream& os);
void PrintBlame(const CriticalPath& path, size_t top_n, std::ostream& os);

// ---- Flight-recorder dumps -----------------------------------------------------------------

// A parsed dfil-flight-v1 document (src/core/metrics_io.h WriteFlightJson): the last wait events
// per node plus recent fault-injection decisions, captured at the first oracle violation or at
// end of run.
struct FlightDump {
  std::string label;
  bool at_violation = false;
  std::vector<std::string> violations;

  struct Event {
    std::string kind;      // WaitKindName: "page_fault", "barrier", ...
    uint64_t detail = 0;   // page / epoch / service, kind-dependent
    double start_us = 0.0;
    double end_us = 0.0;
  };
  struct NodeLog {
    int node = 0;
    std::vector<Event> events;  // oldest first
  };
  std::vector<NodeLog> nodes;

  struct Injection {
    std::string what;   // "drop", "dup", "delay", "stall"
    std::string klass;  // "request", "reply", ...
    uint32_t type = 0;
    int src = 0;
    int dst = 0;
    double at_us = 0.0;
  };
  std::vector<Injection> injections;  // oldest first
};
bool ParseFlight(const std::string& text, FlightDump* out, std::string* error);
// Renders the dump as an interleaved, time-ordered last-moments timeline.
void PrintFlight(const FlightDump& dump, std::ostream& os);

// ---- CI regression gate --------------------------------------------------------------------

// Baseline format (dfil-gate-v1):
//   {"schema": "dfil-gate-v1", "tolerance": 0.10,
//    "runs": {"<label>": {"<counter>": <expected>, ...}, ...}}
// Every baseline run must be matched by a loaded metrics file of the same label, and every listed
// cluster counter must be within `tolerance` relative drift of its expectation.
struct GateResult {
  bool ok = true;
  std::vector<std::string> lines;  // one human-readable verdict per comparison
  // Counter gate: every failing (baseline run label, counter) pair, in baseline order. The
  // counter is empty when no metrics file carried the label.
  std::vector<std::pair<std::string, std::string>> failures;
};
// Checks every expectation in one walk of the baseline. An unparseable or non-dfil-gate-v1
// baseline sets *error.
GateResult CheckGate(const std::string& baseline_text, const std::vector<RunSummary>& runs,
                     std::string* error);
// Prints the verdict lines, then for every failure where the drift lives in `runs`: the per-node
// split, the top_n hottest pages for dsm.* counters, and the top_n epochs when the per-epoch
// series carries the counter.
void PrintGate(const GateResult& gate, const std::vector<RunSummary>& runs, size_t top_n,
               std::ostream& os);

// critpath CI gate. Baseline format (dfil-critpath-gate-v1):
//   {"schema": "dfil-critpath-gate-v1", "tolerance_pp": 10.0,
//    "shares_pct": {"compute": 60.0, "page_fault": 25.0, "barrier": 15.0}}
// Passes when the path is structurally valid and each kind's share of the path (in percentage
// points of completion time) is within tolerance_pp of its expectation.
GateResult CheckCritpathGate(const std::string& baseline_text, const CriticalPath& path,
                             std::string* error);

// ---- Run diffing (`dfil diff`) -------------------------------------------------------------

// Fingerprint comparability verdict for an A/B pair. Hard mismatches (different app, node count,
// or page size) make the runs structurally incomparable — diffing them answers no question;
// `dfil diff` refuses unless --force. Config-digest differences with matching shape are the normal
// deliberate-A/B case; `config_notes` lists exactly which provenance knobs moved.
struct FingerprintCheck {
  bool compatible = true;        // no hard mismatch
  bool identical_config = false; // equal non-empty config digests: same schedule-affecting config
  std::vector<std::string> mismatches;    // hard mismatches, human-readable
  std::vector<std::string> config_notes;  // provenance keys that differ ("pcp: wi -> diff")
};
FingerprintCheck CompareFingerprints(const RunSummary& a, const RunSummary& b);

// One compared quantity: counter, merged-histogram percentile, per-epoch series cell, or
// per-pool ledger field. Named "<what>", values from run A and run B.
struct Delta {
  std::string name;
  double a = 0.0;
  double b = 0.0;

  double diff() const { return b - a; }
  // Relative change with a +/-1 floor on the base, mirroring the gate's drift metric.
  double rel() const;
};

// The full A-vs-B attribution report. Every section is ranked by |rel| then |diff|, largest
// movement first; unchanged quantities are omitted.
struct RunDiff {
  FingerprintCheck fingerprints;
  Delta makespan;                      // "makespan_us"
  std::vector<Delta> counters;         // cluster counters
  std::vector<Delta> histograms;       // "<hist>.p50" / "<hist>.p99" over merged histograms
  std::vector<Delta> epochs;           // "e<K>.<col>" over per-epoch rows summed across nodes
  std::vector<Delta> pools;            // "fn<F>.<field>" over the cluster pools_by_fn rollup
  std::vector<Delta> pages;            // "page <P>" demand-fault heat summed across nodes
};
RunDiff DiffRuns(const RunSummary& a, const RunSummary& b);
void PrintRunDiff(const RunDiff& diff, const RunSummary& a, const RunSummary& b, size_t top_n,
                  std::ostream& os);

// Critical-path blame tables of two traces, joined by cause label and ranked like RunDiff
// sections. Causes present in only one run appear with 0 on the other side.
std::vector<Delta> DiffBlame(const CriticalPath& a, const CriticalPath& b);
void PrintBlameDiff(const std::vector<Delta>& deltas, size_t top_n, std::ostream& os);

// ---- Result history (bench/HISTORY.jsonl) --------------------------------------------------

// One-line JSON summaries of result artifacts, appended by `dfil history`. METRICS files
// yield {"kind": "metrics", "label", "app", "config", "git", "seed", "nodes", "pcp",
// "makespan_us", "counters": {<the Figure 9 counters that are non-zero>}}; BENCH files yield
// {"kind": "bench", "bench", <the report's scalar fields>}. Lines carry no wall-clock timestamp
// on purpose — identical results produce identical lines, so re-running `dfil history` is
// idempotent (exact-duplicate lines are skipped on append).
std::string HistoryLine(const RunSummary& run);
bool BenchHistoryLine(const std::string& bench_json_text, std::string* line, std::string* error);
// Appends each line not already present verbatim in `path` (file created when absent);
// *appended = how many were new. False + *error on I/O failure.
bool AppendHistory(const std::string& path, const std::vector<std::string>& lines,
                   size_t* appended, std::string* error);

}  // namespace dfil::report

#endif  // DFIL_TOOLS_REPORT_LIB_H_
