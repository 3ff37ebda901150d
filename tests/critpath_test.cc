// Tests for the critical-path engine and the wait-state accounting it rests on: merged-histogram
// percentile edge cases, the per-epoch series, the end-to-end path builder (synthetic traces and
// a real traced cluster run), the critpath share gate, and the flight-recorder dump/replay
// pipeline. The exact clock partition is checked over the pinned runs in ledger_test.cc.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/apps/fuzz_driver.h"
#include "src/apps/jacobi.h"
#include "src/common/trace.h"
#include "src/core/cluster.h"
#include "src/core/metrics_io.h"
#include "tools/report_lib.h"

namespace dfil {
namespace {

// --- HistSummary: merged-percentile edge cases (the report-side half of Histogram) ---

report::HistSummary OneBucket(double low, double high, double count, double min, double max) {
  report::HistSummary h;
  h.count = static_cast<uint64_t>(count);
  h.sum = count * (low + high) / 2.0;
  h.min = min;
  h.max = max;
  h.buckets.push_back({low, high, count});
  return h;
}

TEST(HistSummaryTest, EmptyAndSingleSample) {
  report::HistSummary empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(100.0), 0.0);

  const report::HistSummary one = OneBucket(64.0, 128.0, 1.0, 100.0, 100.0);
  // Every quantile of a single sample is that sample (clamped to [min, max]).
  EXPECT_DOUBLE_EQ(one.Percentile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(one.Percentile(50.0), 100.0);
  EXPECT_DOUBLE_EQ(one.Percentile(100.0), 100.0);
}

TEST(HistSummaryTest, ExtremeQuantilesClampToObservedRange) {
  report::HistSummary h = OneBucket(1.0, 2.0, 10.0, 1.25, 1.75);
  // Interpolation over the full [1, 2) bucket would leave [min, max]; the clamp keeps q=0 and
  // q=100 at the actually-observed extremes.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.25);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 1.75);
  EXPECT_GE(h.Percentile(50.0), 1.25);
  EXPECT_LE(h.Percentile(50.0), 1.75);
}

TEST(HistSummaryTest, PercentileStraddlesBucketBoundary) {
  // 50 samples in [1, 2), 50 in [2, 4): p50 must come from the first bucket, p51 from the
  // second — the rank walk may not smear across the boundary.
  report::HistSummary h = OneBucket(1.0, 2.0, 50.0, 1.0, 4.0);
  h.count = 100;
  h.buckets.push_back({2.0, 4.0, 50.0});
  EXPECT_LE(h.Percentile(50.0), 2.0);
  EXPECT_GE(h.Percentile(51.0), 2.0);
  EXPECT_GE(h.Percentile(99.0), h.Percentile(51.0));
}

TEST(HistSummaryTest, MergeIsAssociativeAndOrderInsensitive) {
  const report::HistSummary a = OneBucket(1.0, 2.0, 10.0, 1.0, 1.9);
  const report::HistSummary b = OneBucket(2.0, 4.0, 30.0, 2.0, 3.9);
  const report::HistSummary c = OneBucket(1.0, 2.0, 5.0, 1.2, 1.8);

  report::HistSummary ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  report::HistSummary a_bc = b;
  a_bc.Merge(c);
  a_bc.Merge(a);

  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_DOUBLE_EQ(ab_c.sum, a_bc.sum);
  EXPECT_DOUBLE_EQ(ab_c.min, a_bc.min);
  EXPECT_DOUBLE_EQ(ab_c.max, a_bc.max);
  ASSERT_EQ(ab_c.buckets.size(), a_bc.buckets.size());
  for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(ab_c.Percentile(p), a_bc.Percentile(p)) << "p=" << p;
  }
  // Merging an empty summary is the identity, in both directions.
  report::HistSummary with_empty = a;
  with_empty.Merge(report::HistSummary{});
  EXPECT_EQ(with_empty.count, a.count);
  report::HistSummary from_empty;
  from_empty.Merge(a);
  EXPECT_DOUBLE_EQ(from_empty.Percentile(50.0), a.Percentile(50.0));
}

// --- Wait-state accounting: the per-epoch series ---

core::RunReport SmallJacobiRun(bool trace) {
  apps::JacobiParams p;
  p.n = 128;
  p.iterations = 3;
  core::ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  cfg.trace_enabled = trace;
  apps::AppRun run = apps::RunJacobiDf(p, cfg);
  EXPECT_TRUE(run.report.completed) << run.report.deadlock_report;
  return run.report;
}

TEST(WaitStateTest, EpochSeriesTracksBarriers) {
  const core::RunReport r = SmallJacobiRun(/*trace=*/false);
  std::ostringstream os;
  core::WriteMetricsJson(r, "epoch_series", os);
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(os.str(), &run, &error)) << error;
  EXPECT_EQ(run.schema_version, 2);
  // Provenance names the schedule-picking knobs.
  EXPECT_EQ(run.provenance.at("nodes"), "4");
  EXPECT_EQ(run.provenance.at("pcp"), "implicit_invalidate");
  for (const report::RunSummary::Node& n : run.per_node) {
    ASSERT_FALSE(n.epochs.empty()) << "node " << n.node;
    double prev_epoch = 0.0;
    double prev_release = 0.0;
    for (const auto& row : n.epochs) {
      EXPECT_EQ(row.at("epoch"), prev_epoch + 1.0);
      EXPECT_GE(row.at("released_at_us"), prev_release);
      EXPECT_GE(row.at("barrier_wait_us"), 0.0);
      EXPECT_GE(row.at("wait_us"), 0.0);
      EXPECT_GE(row.at("faults"), 0.0);
      prev_epoch = row.at("epoch");
      prev_release = row.at("released_at_us");
    }
    // The v2 ledgers survive the JSON round trip and still satisfy the invariant. Each exported
    // field is independently rounded to 0.1 us, so the sum of ~10 terms may drift by a few
    // tenths — 1 us of slack is still far inside the 1% acceptance bound.
    double wait_total = 0.0;
    for (const auto& [kind, us] : n.wait_us) {
      wait_total += us;
    }
    EXPECT_NEAR(n.run_us + n.serve_us + wait_total, n.final_clock_us, 1.0);
  }
}

// --- Critical path: synthetic trace with a known answer ---

std::string SyntheticTrace() {
  // Two nodes, one barrier. Node 0 computes [12, 30] with a fault on page 5 in [15, 20]; node 1
  // is the last arriver (enters the e1 barrier at 11 vs node 0's 10) and finishes earlier.
  TraceRecorder rec;
  rec.Begin(0, 1, "sync", "reduce e1", Microseconds(10.0));
  rec.End(0, 1, Microseconds(12.0));
  rec.Begin(0, 2, "dsm", "fault p5", Microseconds(15.0));
  rec.End(0, 2, Microseconds(20.0));
  rec.Instant(0, 1, "node", "done", Microseconds(30.0));
  rec.Begin(1, 1, "sync", "reduce e1", Microseconds(11.0));
  rec.End(1, 1, Microseconds(12.5));
  rec.Instant(1, 1, "node", "done", Microseconds(25.0));
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  return os.str();
}

TEST(CritPathTest, SyntheticTwoNodePathIsExact) {
  const report::CriticalPath path = report::BuildCriticalPath(SyntheticTrace());
  ASSERT_TRUE(path.ok) << path.error;
  EXPECT_EQ(path.critical_node, 0);
  EXPECT_DOUBLE_EQ(path.completion_us, 30.0);

  // Expected hops: compute n1 [0,11], barrier e1 [11,12], compute n0 [12,15], fault p5 [15,20],
  // compute n0 [20,30].
  ASSERT_EQ(path.segments.size(), 5u);
  EXPECT_EQ(path.segments[0].kind, report::PathSegment::Kind::kCompute);
  EXPECT_EQ(path.segments[0].node, 1);
  EXPECT_DOUBLE_EQ(path.segments[0].end_us, 11.0);
  EXPECT_EQ(path.segments[1].kind, report::PathSegment::Kind::kBarrier);
  EXPECT_EQ(path.segments[1].epoch, 1u);
  EXPECT_DOUBLE_EQ(path.segments[1].duration_us(), 1.0);
  EXPECT_EQ(path.segments[2].kind, report::PathSegment::Kind::kCompute);
  EXPECT_EQ(path.segments[2].node, 0);
  EXPECT_EQ(path.segments[3].kind, report::PathSegment::Kind::kPageFault);
  EXPECT_EQ(path.segments[3].page, 5u);
  EXPECT_DOUBLE_EQ(path.segments[3].duration_us(), 5.0);
  EXPECT_EQ(path.segments[4].kind, report::PathSegment::Kind::kCompute);
  EXPECT_DOUBLE_EQ(path.segments[4].end_us, 30.0);

  EXPECT_DOUBLE_EQ(path.compute_us, 24.0);
  EXPECT_DOUBLE_EQ(path.fault_us, 5.0);
  EXPECT_DOUBLE_EQ(path.barrier_us, 1.0);
  EXPECT_DOUBLE_EQ(report::WhatIfZeroCostPages(path), 25.0);

  const std::vector<report::BlameRow> blame = report::BlamePath(path);
  ASSERT_FALSE(blame.empty());
  double blame_total = 0.0;
  for (const report::BlameRow& row : blame) {
    blame_total += row.us;
  }
  EXPECT_DOUBLE_EQ(blame_total, path.completion_us);
  EXPECT_EQ(blame.front().label, "compute n0");  // 13 us on node 0 tops the ranking
}

TEST(CritPathTest, RejectsTraceWithoutDoneInstants) {
  TraceRecorder rec;
  rec.Begin(0, 1, "sync", "reduce e1", Microseconds(1.0));
  rec.End(0, 1, Microseconds(2.0));
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  const report::CriticalPath path = report::BuildCriticalPath(os.str());
  EXPECT_FALSE(path.ok);
  EXPECT_NE(path.error.find("done"), std::string::npos);
}

// --- Critical path: a real traced cluster run ---

TEST(CritPathTest, RealRunPathIsConnectedAndTilesCompletionTime) {
  const core::RunReport r = SmallJacobiRun(/*trace=*/true);
  ASSERT_NE(r.trace, nullptr);
  std::ostringstream os;
  r.trace->WriteChromeTrace(os);
  const report::CriticalPath path = report::BuildCriticalPath(os.str());
  ASSERT_TRUE(path.ok) << path.error;
  ASSERT_FALSE(path.segments.empty());

  // Connected end-to-end: starts at 0, every hop abuts the next, ends at the completion instant,
  // and the hop durations telescope to exactly the run's virtual completion time.
  EXPECT_DOUBLE_EQ(path.segments.front().start_us, 0.0);
  double sum = 0.0;
  for (size_t i = 0; i < path.segments.size(); ++i) {
    if (i > 0) {
      EXPECT_NEAR(path.segments[i].start_us, path.segments[i - 1].end_us, 1e-3);
    }
    EXPECT_GT(path.segments[i].duration_us(), 0.0);
    sum += path.segments[i].duration_us();
  }
  EXPECT_NEAR(path.segments.back().end_us, path.completion_us, 1e-3);
  EXPECT_NEAR(sum, path.completion_us, 1e-3);
  EXPECT_NEAR(path.compute_us + path.fault_us + path.barrier_us, path.completion_us, 1e-3);

  // The completion instant is the last node's main-finished time, bounded by the makespan.
  SimTime last_done = 0;
  for (const core::NodeReport& nr : r.nodes) {
    last_done = std::max(last_done, nr.finished_at);
  }
  EXPECT_NEAR(path.completion_us, ToMicroseconds(last_done), 1e-3);
  EXPECT_LE(path.completion_us, ToMicroseconds(r.makespan) + 1e-3);

  // Renderers produce the expected anchors.
  std::ostringstream crit;
  report::PrintCritPath(path, 5, crit);
  EXPECT_NE(crit.str().find("Critical path:"), std::string::npos);
  EXPECT_NE(crit.str().find("what-if"), std::string::npos);
  std::ostringstream blame;
  report::PrintBlame(path, 5, blame);
  EXPECT_NE(blame.str().find("Critical-path blame"), std::string::npos);
}

TEST(CritPathTest, ShareGatePassesAtTruthFailsWhenShifted) {
  const core::RunReport r = SmallJacobiRun(/*trace=*/true);
  std::ostringstream os;
  r.trace->WriteChromeTrace(os);
  const report::CriticalPath path = report::BuildCriticalPath(os.str());
  ASSERT_TRUE(path.ok) << path.error;
  const double compute_pct = 100.0 * path.compute_us / path.completion_us;
  const double fault_pct = 100.0 * path.fault_us / path.completion_us;
  const double barrier_pct = 100.0 * path.barrier_us / path.completion_us;

  auto baseline = [](double compute, double fault, double barrier, double tol) {
    std::ostringstream b;
    b << R"({"schema": "dfil-critpath-gate-v1", "tolerance_pp": )" << tol
      << R"(, "shares_pct": {"compute": )" << compute << R"(, "page_fault": )" << fault
      << R"(, "barrier": )" << barrier << "}}";
    return b.str();
  };
  std::string error;
  report::GateResult pass =
      report::CheckCritpathGate(baseline(compute_pct, fault_pct, barrier_pct, 5.0), path, &error);
  EXPECT_TRUE(pass.ok) << (pass.lines.empty() ? error : pass.lines.back());
  // Shifting one expectation past the tolerance flips the verdict.
  report::GateResult fail = report::CheckCritpathGate(
      baseline(compute_pct + 20.0, fault_pct, barrier_pct, 5.0), path, &error);
  EXPECT_FALSE(fail.ok);
  // A structurally broken path fails regardless of shares.
  report::CriticalPath broken;
  broken.error = "synthetic";
  report::GateResult structural = report::CheckCritpathGate(
      baseline(compute_pct, fault_pct, barrier_pct, 5.0), broken, &error);
  EXPECT_FALSE(structural.ok);
}

// --- Flight recorder: dump, parse, render ---

TEST(FlightRecorderTest, EndOfRunSnapshotRoundTrips) {
  core::RunReport r = SmallJacobiRun(/*trace=*/false);
  EXPECT_FALSE(r.flight.at_violation);
  ASSERT_EQ(r.flight.node_events.size(), 4u);
  size_t events = 0;
  for (const auto& ring : r.flight.node_events) {
    events += ring.size();
  }
  EXPECT_GT(events, 0u);

  std::ostringstream os;
  core::WriteFlightJson(r, "ft", {"synthetic violation: page 3 stale"}, os);
  report::FlightDump dump;
  std::string error;
  ASSERT_TRUE(report::ParseFlight(os.str(), &dump, &error)) << error;
  EXPECT_EQ(dump.label, "ft");
  EXPECT_FALSE(dump.at_violation);
  ASSERT_EQ(dump.violations.size(), 1u);
  EXPECT_NE(dump.violations[0].find("page 3"), std::string::npos);
  ASSERT_EQ(dump.nodes.size(), 4u);
  size_t parsed_events = 0;
  bool saw_barrier = false;
  for (const auto& log : dump.nodes) {
    parsed_events += log.events.size();
    for (const auto& e : log.events) {
      EXPECT_GE(e.end_us, e.start_us);
      saw_barrier = saw_barrier || e.kind == "barrier";
    }
  }
  EXPECT_EQ(parsed_events, events);
  EXPECT_TRUE(saw_barrier);  // a multi-node Jacobi blocks at reductions

  std::ostringstream rendered;
  report::PrintFlight(dump, rendered);
  EXPECT_NE(rendered.str().find("synthetic violation"), std::string::npos);
  EXPECT_NE(rendered.str().find("barrier"), std::string::npos);
}

TEST(FlightRecorderTest, FailedFuzzReplayWritesARenderableDump) {
  // Force a deterministic failure: a virtual-time budget no run can meet. The override is
  // applied after every RNG draw, so the case's config is the same one the corpus seed picks.
  apps::FuzzOptions opts;
  opts.flight_dump_on_failure = true;
  opts.max_virtual_time = Milliseconds(5.0);
  const apps::FuzzResult r = apps::RunFuzzCase("clean", 1, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.completed);
  ASSERT_FALSE(r.flight_path.empty());
  ASSERT_FALSE(r.flight.node_events.empty());

  std::string text;
  std::string error;
  ASSERT_TRUE(report::ReadFile(r.flight_path, &text, &error)) << error;
  report::FlightDump dump;
  ASSERT_TRUE(report::ParseFlight(text, &dump, &error)) << error;
  EXPECT_EQ(dump.nodes.size(), r.flight.node_events.size());
  std::ostringstream rendered;
  report::PrintFlight(dump, rendered);
  EXPECT_NE(rendered.str().find("Flight recorder:"), std::string::npos);
  std::remove(r.flight_path.c_str());

  // A clean replay of the same case writes nothing.
  apps::FuzzOptions clean_opts;
  clean_opts.flight_dump_on_failure = true;
  const apps::FuzzResult clean = apps::RunFuzzCase("clean", 1, clean_opts);
  EXPECT_TRUE(clean.ok()) << clean.Summary();
  EXPECT_TRUE(clean.flight_path.empty());
}

}  // namespace
}  // namespace dfil
