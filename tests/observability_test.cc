// Tests for the observability stack: metrics registry + histograms, the JSON parser, the
// hardened trace recorder, causal flow arcs across a real cluster run, the dfil-metrics-v2
// export/report pipeline, and the CI counter-regression gate.
#include <gtest/gtest.h>

#include <sstream>

#include "src/apps/fuzz_driver.h"
#include "src/apps/jacobi.h"
#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/cluster.h"
#include "src/core/metrics_io.h"
#include "tools/report_lib.h"

namespace dfil {
namespace {

// The trace functions take a parsed document; every trace these tests build is valid JSON.
json::Value Trace(const std::string& text) {
  json::ParseResult parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return parsed.ok() ? *parsed.value : json::Value{};
}

// --- Histogram / MetricsRegistry ---

TEST(HistogramTest, BucketsArePowersOfTwo) {
  Histogram h;
  h.Record(0.5);    // bucket 0: < 1
  h.Record(1.0);    // [1, 2)
  h.Record(1.9);    // [1, 2)
  h.Record(2.0);    // [2, 4)
  h.Record(1024.0);  // [1024, 2048)
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[11], 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1024.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketLow(11), 1024.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketHigh(11), 2048.0);
}

TEST(HistogramTest, PercentilesAreClampedToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(100.0);  // all in [64, 128)
  }
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.50), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(Histogram().Percentile(0.5), 0.0);
}

TEST(HistogramTest, PercentileOrdersAcrossBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) {
    h.Record(10.0);
  }
  for (int i = 0; i < 10; ++i) {
    h.Record(10000.0);
  }
  EXPECT_LT(h.Percentile(0.50), 16.0);
  EXPECT_GT(h.Percentile(0.99), 8000.0);
}

TEST(HistogramTest, MergeSumsCountsAndWidensRange) {
  Histogram a, b;
  a.Record(2.0);
  b.Record(300.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 300.0);
}

TEST(MetricsRegistryTest, CountersAndJsonRoundTrip) {
  MetricsRegistry m;
  m.Inc("dsm.read_faults");
  m.Inc("dsm.read_faults", 4);
  m.Set("net.requests_sent", 17);
  m.Hist("dsm.fault_wait_us").Record(123.0);
  EXPECT_EQ(m.Counter("dsm.read_faults"), 5u);
  EXPECT_EQ(m.Counter("absent"), 0u);

  std::ostringstream os;
  m.WriteJson(os, "");
  json::ParseResult parsed = json::Parse(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const json::Value* counters = parsed.value->Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("dsm.read_faults"), 5.0);
  const json::Value* hist = parsed.value->Get("histograms")->Get("dsm.fault_wait_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->GetNumber("count"), 1.0);
  EXPECT_EQ(hist->GetNumber("p50"), 123.0);
}

// --- JSON parser ---

TEST(JsonTest, ParsesEveryValueKind) {
  json::ParseResult r = json::Parse(
      R"({"s": "a\"b\\cA", "n": -1.5e2, "b": true, "z": null, "a": [1, {"k": 2}]})");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value->GetString("s"), "a\"b\\cA");
  EXPECT_EQ(r.value->GetNumber("n"), -150.0);
  EXPECT_TRUE(r.value->Get("b")->boolean);
  EXPECT_TRUE(r.value->Get("z")->is_null());
  ASSERT_EQ(r.value->Get("a")->array.size(), 2u);
  EXPECT_EQ(r.value->Get("a")->array[1]->GetNumber("k"), 2.0);
}

TEST(JsonTest, ReportsErrorsWithOffsets) {
  json::ParseResult r = json::Parse("{\"a\": }");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.error.empty());
  EXPECT_GT(r.error_offset, 0u);
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("[1, 2").ok());
}

// --- TraceRecorder hardening ---

TEST(TraceRecorderTest, UnmatchedEndIsDroppedNotFatal) {
  TraceRecorder rec;
  rec.End(0, 1, Microseconds(1.0));  // nothing open: must not abort or emit
  rec.Begin(0, 1, "t", "span", Microseconds(2.0));
  rec.End(0, 1, Microseconds(3.0));
  rec.End(0, 1, Microseconds(4.0));  // over-close again
  EXPECT_EQ(rec.unmatched_ends(), 2u);
  EXPECT_EQ(rec.open_spans(), 0u);
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  EXPECT_TRUE(report::CheckChromeTrace(Trace(os.str())).ok);
}

TEST(TraceRecorderTest, DanglingSpansAreClosedOnExport) {
  TraceRecorder rec;
  rec.Begin(0, 1, "t", "never closed", Microseconds(1.0));
  rec.Begin(2, 7, "t", "also open", Microseconds(5.0));
  EXPECT_EQ(rec.open_spans(), 2u);
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  report::TraceCheck check = report::CheckChromeTrace(Trace(os.str()));
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
  EXPECT_EQ(check.spans, 2u);
}

TEST(TraceRecorderTest, EscapesControlCharactersAndQuotes) {
  TraceRecorder rec;
  rec.Instant(0, 0, "t", std::string("a\"b\\c\n\x01 d"), 0);
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a\\\"b\\\\c\\n\\u0001 d"), std::string::npos);
  json::ParseResult parsed = json::Parse(out);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value->array[0]->GetString("name"), "a\"b\\c\n\x01 d");
}

TEST(TraceRecorderTest, FlowEventsCarryIdAndBinding) {
  TraceRecorder rec;
  rec.Begin(0, 1, "dsm", "fault p3", Microseconds(1.0));
  rec.Flow(0, 1, kFlowStart, "dsm", "p3", Microseconds(1.5), 42);
  rec.End(0, 1, Microseconds(2.0));
  rec.Begin(1, 2, "dsm", "serve p3", Microseconds(3.0));
  rec.Flow(1, 2, kFlowStep, "dsm", "p3", Microseconds(3.5), 42);
  rec.End(1, 2, Microseconds(4.0));
  rec.Begin(0, 1, "dsm", "install p3", Microseconds(5.0));
  rec.Flow(0, 1, kFlowEnd, "dsm", "p3", Microseconds(5.5), 42);
  rec.End(0, 1, Microseconds(6.0));
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  EXPECT_NE(os.str().find("\"id\":42,\"bp\":\"e\""), std::string::npos);
  report::TraceCheck check = report::CheckChromeTrace(Trace(os.str()));
  EXPECT_TRUE(check.ok);
  EXPECT_EQ(check.complete_flows, 1u);
  std::vector<report::FlowArc> arcs = report::ExtractFlows(Trace(os.str()));
  ASSERT_EQ(arcs.size(), 1u);
  EXPECT_EQ(arcs[0].id, 42u);
  EXPECT_EQ(arcs[0].steps, 1u);
  EXPECT_EQ(arcs[0].start_node, 0);
  EXPECT_DOUBLE_EQ(arcs[0].duration_us(), 4.0);
}

TEST(TraceCheckTest, CatchesStructuralViolations) {
  // Backwards timestamp on one track.
  EXPECT_FALSE(report::CheckChromeTrace(Trace(
                   R"([{"ph":"B","pid":0,"tid":1,"ts":5,"cat":"t","name":"a"},
                       {"ph":"E","pid":0,"tid":1,"ts":3}])"))
                   .ok);
  // Flow start that never finishes.
  EXPECT_FALSE(report::CheckChromeTrace(Trace(
                   R"([{"ph":"s","pid":0,"tid":1,"ts":1,"cat":"d","name":"p1","id":7,"bp":"e"}])"))
                   .ok);
  // Unbalanced E.
  EXPECT_FALSE(report::CheckChromeTrace(Trace(R"([{"ph":"E","pid":0,"tid":1,"ts":1}])")).ok);
  // An 'f' without an 's' is tolerated.
  EXPECT_TRUE(report::CheckChromeTrace(Trace(
                  R"([{"ph":"f","pid":0,"tid":1,"ts":1,"cat":"d","name":"p1","id":7,"bp":"e"}])"))
                  .ok);
}

// --- Cluster integration: causal arcs, metrics export, report rendering ---

// The acceptance workload: 256x256 Jacobi on 8 nodes (few iterations — the arcs and counters
// exist from the first sweep).
core::RunReport TracedJacobiRun() {
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = 3;
  core::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  cfg.trace_enabled = true;
  apps::AppRun run = apps::RunJacobiDf(p, cfg);
  EXPECT_TRUE(run.report.completed) << run.report.deadlock_report;
  return run.report;
}

TEST(ObservabilityIntegrationTest, JacobiTraceIsValidWithConnectedFlows) {
  core::RunReport r = TracedJacobiRun();
  ASSERT_NE(r.trace, nullptr);
  std::ostringstream os;
  r.trace->WriteChromeTrace(os);
  const json::Value trace = Trace(os.str());

  report::TraceCheck check = report::CheckChromeTrace(trace);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
  EXPECT_GT(check.spans, 0u);
  ASSERT_GT(check.complete_flows, 0u);  // >= 1 remote page fault rendered as a connected arc

  // The arc is genuinely causal: fault 's' on the faulting node, >= 1 serve 't' hop, 'f' at the
  // install back on the faulting node.
  std::vector<report::FlowArc> arcs = report::ExtractFlows(trace);
  ASSERT_FALSE(arcs.empty());
  bool found_remote = false;
  for (const report::FlowArc& arc : arcs) {
    EXPECT_GT(arc.duration_us(), 0.0);
    EXPECT_EQ(arc.end_node, arc.start_node);  // install happens where the fault blocked
    if (arc.steps >= 1) {
      found_remote = true;
    }
  }
  EXPECT_TRUE(found_remote);
}

TEST(ObservabilityIntegrationTest, MetricsJsonExportsAndReportsRender) {
  core::RunReport r = TracedJacobiRun();
  std::ostringstream os;
  core::WriteMetricsJson(r, "obs_test", os);

  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(os.str(), &run, &error)) << error;
  EXPECT_EQ(run.label, "obs_test");
  EXPECT_EQ(run.pcp, "implicit_invalidate");
  EXPECT_EQ(run.nodes, 8);
  ASSERT_EQ(run.per_node.size(), 8u);

  // Flattened struct counters and cluster totals agree with the report.
  uint64_t read_faults = 0;
  for (const auto& nr : r.nodes) {
    read_faults += nr.dsm.read_faults;
  }
  EXPECT_EQ(run.ClusterCounter("dsm.read_faults"), read_faults);
  EXPECT_GT(run.ClusterCounter("dsm.page_request_messages"), 0u);
  EXPECT_GT(run.ClusterCounter("net.barrier_messages"), 0u);
  EXPECT_GT(run.ClusterCounter("net.sent.page_request"), 0u);

  // Live histograms survive the round trip; the faulting nodes block for measurable time.
  report::HistSummary fault_wait = run.MergedHistogram("dsm.fault_wait_us");
  EXPECT_GT(fault_wait.count, 0u);
  EXPECT_GT(fault_wait.Percentile(50.0), 0.0);
  EXPECT_GE(fault_wait.Percentile(99.0), fault_wait.Percentile(50.0));
  EXPECT_GT(run.MergedHistogram("sync.barrier_wait_us").count, 0u);

  // Page heat: the read-shared strip-edge pages are the hot ones.
  bool any_heat = false;
  for (const auto& nr : run.per_node) {
    any_heat = any_heat || !nr.page_heat.empty();
  }
  EXPECT_TRUE(any_heat);

  // Figure 10 / Figure 9 / hot-pages tables render with the expected anchors.
  std::ostringstream fig10;
  report::PrintFigure10(run, fig10);
  EXPECT_NE(fig10.str().find("work"), std::string::npos);
  EXPECT_NE(fig10.str().find("sync_delay"), std::string::npos);
  std::ostringstream fig9;
  report::PrintFigure9({run}, fig9);
  EXPECT_NE(fig9.str().find("dsm.page_request_messages"), std::string::npos);
  EXPECT_NE(fig9.str().find("implicit_invalidate"), std::string::npos);
  EXPECT_NE(fig9.str().find("fault_wait_us p99"), std::string::npos);
  std::ostringstream hot;
  report::PrintHotPages(run, 5, hot);
  EXPECT_NE(hot.str().find("page"), std::string::npos);
}

TEST(ObservabilityIntegrationTest, FuzzReplayTraceIsValid) {
  apps::FuzzOptions opts;
  opts.capture_trace = true;
  const apps::FuzzResult r = apps::RunFuzzCase("page-chaos", 7, opts);
  EXPECT_TRUE(r.ok()) << r.Summary();
  ASSERT_NE(r.trace, nullptr);
  std::ostringstream os;
  r.trace->WriteChromeTrace(os);
  report::TraceCheck check = report::CheckChromeTrace(Trace(os.str()));
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
  // The adversary's decisions are visible on the dedicated injection track.
  EXPECT_NE(os.str().find("\"cat\":\"inject\""), std::string::npos);
}

TEST(ObservabilityIntegrationTest, TraceCaptureDoesNotChangeTheSchedule) {
  apps::FuzzOptions traced;
  traced.capture_trace = true;
  const apps::FuzzResult with_trace = apps::RunFuzzCase("mixed", 3, traced);
  const apps::FuzzResult without = apps::RunFuzzCase("mixed", 3, {});
  EXPECT_EQ(with_trace.makespan, without.makespan);
  EXPECT_EQ(with_trace.net.messages_sent, without.net.messages_sent);
  EXPECT_EQ(with_trace.dsm.read_faults, without.dsm.read_faults);
}

// --- Regression gate ---

TEST(GateTest, PassesWithinToleranceFailsBeyond) {
  core::RunReport r = TracedJacobiRun();
  std::ostringstream os;
  core::WriteMetricsJson(r, "gate_run", os);
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(os.str(), &run, &error)) << error;
  const uint64_t prm = run.ClusterCounter("dsm.page_request_messages");
  ASSERT_GT(prm, 0u);

  auto baseline = [&](uint64_t expected) {
    return std::string(R"({"schema": "dfil-gate-v1", "tolerance": 0.10, "runs": {"gate_run": )") +
           "{\"dsm.page_request_messages\": " + std::to_string(expected) + "}}}";
  };
  std::string gate_error;
  EXPECT_TRUE(report::CheckGate(baseline(prm), {run}, &gate_error).ok) << gate_error;
  // 5% drift passes a 10% gate; 50% drift fails it.
  EXPECT_TRUE(report::CheckGate(baseline(prm + prm / 20), {run}, &gate_error).ok);
  report::GateResult fail = report::CheckGate(baseline(prm * 2), {run}, &gate_error);
  EXPECT_FALSE(fail.ok);
  ASSERT_FALSE(fail.lines.empty());
  EXPECT_NE(fail.lines.front().find("FAIL"), std::string::npos);
  // The result names the failing (run, counter), and the printed gate says where it drifted.
  ASSERT_EQ(fail.failures.size(), 1u);
  EXPECT_EQ(fail.failures[0].first, "gate_run");
  EXPECT_EQ(fail.failures[0].second, "dsm.page_request_messages");
  std::ostringstream printed;
  report::PrintGate(fail, {run}, 3, printed);
  EXPECT_NE(printed.str().find(fail.lines.front()), std::string::npos);
  EXPECT_NE(printed.str().find("Where the drift lives"), std::string::npos);
  EXPECT_NE(printed.str().find("per-node: n0="), std::string::npos);
  EXPECT_NE(printed.str().find("hottest pages: p"), std::string::npos);
  // A baseline run with no matching metrics file fails loudly (renames cannot silently skip).
  report::GateResult missing = report::CheckGate(baseline(prm), {}, &gate_error);
  EXPECT_FALSE(missing.ok);
  ASSERT_EQ(missing.failures.size(), 1u);
  EXPECT_TRUE(missing.failures[0].second.empty());
  EXPECT_TRUE(gate_error.empty()) << gate_error;
}

}  // namespace
}  // namespace dfil
