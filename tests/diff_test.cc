// Run-comparison and command-line tests: ParseRun hardening (malformed-input corpus),
// fingerprint comparability, run diffing, CLI-flag parsing, the result-history round trip, and
// the `dfil` command line end to end (exit codes over real run artifacts).
//
// The pinned acceptance test at the bottom re-creates the PR's motivating story: two fixed-seed
// 8-node Jacobi runs that differ only in PCP (write-invalidate vs the multiple-writer diff
// protocol), diffed from their metrics alone — the report must name the shared edge pages and
// the dsm.page_data_bytes movement without any trace in hand.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/jacobi.h"
#include "src/common/json.h"
#include "src/core/cluster.h"
#include "src/core/metrics_io.h"
#include "tools/report_lib.h"

namespace dfil {
namespace {

// --- ParseRun hardening ---------------------------------------------------------------------

// A syntactically minimal but structurally complete document (the floor ParseRun accepts).
const char kMinimalV2[] =
    "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"pcp\": \"wi\", \"nodes\": 1,"
    " \"completed\": 1, \"makespan_us\": 5.0, \"per_node\": [{\"node\": 0}]}";

TEST(ParseRunHardeningTest, AcceptsMinimalV2Document) {
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(kMinimalV2, &run, &error)) << error;
  EXPECT_EQ(run.label, "t");
  EXPECT_EQ(run.nodes, 1);
  EXPECT_TRUE(run.completed);
  ASSERT_EQ(run.per_node.size(), 1u);
  EXPECT_TRUE(run.fingerprint.empty());
}

TEST(ParseRunHardeningTest, RejectsMalformedCorpus) {
  // Every entry must be rejected with a non-empty, field-level error — never parsed into a
  // zeroed summary a downstream gate would silently "pass".
  const struct {
    const char* name;
    std::string text;
  } corpus[] = {
      {"empty", ""},
      {"garbage", "not json at all"},
      {"root array", "[1, 2, 3]"},
      {"root number", "42"},
      {"unterminated object", "{\"schema\": \"dfil-metrics-v2\""},
      {"missing schema", "{\"label\": \"t\", \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1,"
                         " \"makespan_us\": 1, \"per_node\": []}"},
      {"schema wrong type", "{\"schema\": 2, \"label\": \"t\", \"pcp\": \"wi\", \"nodes\": 1,"
                            " \"completed\": 1, \"makespan_us\": 1, \"per_node\": []}"},
      {"unknown schema", "{\"schema\": \"dfil-metrics-v9\", \"label\": \"t\", \"pcp\": \"wi\","
                         " \"nodes\": 1, \"completed\": 1, \"makespan_us\": 1, \"per_node\": []}"},
      {"v1 document", "{\"schema\": \"dfil-metrics-v1\", \"label\": \"t\", \"pcp\": \"wi\","
                      " \"nodes\": 1, \"completed\": 1, \"makespan_us\": 5.0,"
                      " \"per_node\": [{\"node\": 0}]}"},
      {"missing label", "{\"schema\": \"dfil-metrics-v2\", \"pcp\": \"wi\", \"nodes\": 1,"
                        " \"completed\": 1, \"makespan_us\": 1, \"per_node\": []}"},
      {"missing pcp", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"nodes\": 1,"
                      " \"completed\": 1, \"makespan_us\": 1, \"per_node\": []}"},
      {"nodes wrong type", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"pcp\": \"wi\","
                           " \"nodes\": \"eight\", \"completed\": 1, \"makespan_us\": 1,"
                           " \"per_node\": []}"},
      {"missing makespan", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"pcp\": \"wi\","
                           " \"nodes\": 1, \"completed\": 1, \"per_node\": []}"},
      {"missing per_node", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\", \"pcp\": \"wi\","
                           " \"nodes\": 1, \"completed\": 1, \"makespan_us\": 1}"},
      {"per_node not array", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\","
                             " \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1,"
                             " \"makespan_us\": 1, \"per_node\": {}}"},
      {"per_node entry not object", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\","
                                    " \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1,"
                                    " \"makespan_us\": 1, \"per_node\": [7]}"},
      {"per_node entry missing node", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\","
                                      " \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1,"
                                      " \"makespan_us\": 1, \"per_node\": [{}]}"},
      {"cluster wrong type", "{\"schema\": \"dfil-metrics-v2\", \"label\": \"t\","
                             " \"pcp\": \"wi\", \"nodes\": 1, \"completed\": 1,"
                             " \"makespan_us\": 1, \"cluster\": 3, \"per_node\": []}"},
  };
  for (const auto& c : corpus) {
    report::RunSummary run;
    std::string error;
    EXPECT_FALSE(report::ParseRun(c.text, &run, &error)) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
}

TEST(ParseRunHardeningTest, RejectsTruncatedRealDocument) {
  // A real artifact chopped mid-write (disk full, killed bench) must fail loudly at every
  // truncation point, not just at a lucky prefix.
  apps::JacobiParams p;
  p.n = 256;
  p.iterations = 1;
  core::ClusterConfig cfg;
  cfg.nodes = 2;
  apps::AppRun run = apps::RunJacobiDf(p, cfg);
  ASSERT_TRUE(run.report.completed);
  std::ostringstream os;
  core::WriteMetricsJson(run.report, "trunc", os);
  const std::string full = os.str();
  report::RunSummary summary;
  std::string error;
  ASSERT_TRUE(report::ParseRun(full, &summary, &error)) << error;
  for (const double frac : {0.1, 0.5, 0.9, 0.99}) {
    const std::string cut = full.substr(0, static_cast<size_t>(full.size() * frac));
    error.clear();
    EXPECT_FALSE(report::ParseRun(cut, &summary, &error)) << "fraction " << frac;
    EXPECT_FALSE(error.empty()) << "fraction " << frac;
  }
}

// --- CLI flag vocabulary --------------------------------------------------------------------

TEST(CliOptionsTest, ParsesBothFlagForms) {
  const report::CliOptions opt = report::ParseCliOptions(
      {"critpath", "--top", "5", "a.json", "--force", "--check=g.json", "b.json"});
  EXPECT_TRUE(opt.error.empty()) << opt.error;
  EXPECT_EQ(opt.top_n, 5u);
  EXPECT_TRUE(opt.force);
  EXPECT_EQ(opt.check_baseline, "g.json");
  EXPECT_EQ(opt.paths, (std::vector<std::string>{"critpath", "a.json", "b.json"}));
}

TEST(CliOptionsTest, FlagsArePositionIndependent) {
  const report::CliOptions a =
      report::ParseCliOptions({"--top=3", "blame", "--check", "g.json", "x.json"});
  const report::CliOptions b =
      report::ParseCliOptions({"blame", "x.json", "--check=g.json", "--top", "3"});
  EXPECT_EQ(a.check_baseline, b.check_baseline);
  EXPECT_EQ(a.top_n, b.top_n);
  EXPECT_EQ(a.paths, b.paths);
}

TEST(CliOptionsTest, RejectsUnknownFlagAndMissingValue) {
  EXPECT_EQ(report::ParseCliOptions({"--bogus"}).error, "--bogus");
  EXPECT_FALSE(report::ParseCliOptions({"--check"}).error.empty());
  EXPECT_FALSE(report::ParseCliOptions({"--top"}).error.empty());
  // --top takes a non-negative decimal integer and nothing else.
  for (const std::string bad : {"abc", "-3", "5x", ""}) {
    EXPECT_FALSE(report::ParseCliOptions({"hot", "--top", bad}).error.empty()) << bad;
    EXPECT_FALSE(report::ParseCliOptions({"hot", "--top=" + bad}).error.empty()) << bad;
  }
  EXPECT_EQ(report::ParseCliOptions({"hot", "--top=0"}).top_n, 0u);
}

// --- Fingerprints and diffing ---------------------------------------------------------------

report::RunSummary SummaryWith(const std::string& app, const std::string& config) {
  report::RunSummary run;
  run.label = "s";
  run.nodes = 4;
  run.fingerprint.app = app;
  run.fingerprint.config = config;
  run.fingerprint.seed = "1";
  return run;
}

TEST(FingerprintTest, IdenticalConfigsCompareIdentical) {
  const report::FingerprintCheck check =
      report::CompareFingerprints(SummaryWith("jacobi", "abc"), SummaryWith("jacobi", "abc"));
  EXPECT_TRUE(check.compatible);
  EXPECT_TRUE(check.identical_config);
  EXPECT_TRUE(check.mismatches.empty());
}

TEST(FingerprintTest, ConfigDeltaIsCompatibleButItemized) {
  report::RunSummary a = SummaryWith("jacobi", "abc");
  report::RunSummary b = SummaryWith("jacobi", "def");
  a.provenance["pcp"] = "write_invalidate";
  b.provenance["pcp"] = "diff";
  const report::FingerprintCheck check = report::CompareFingerprints(a, b);
  EXPECT_TRUE(check.compatible);
  EXPECT_FALSE(check.identical_config);
  ASSERT_FALSE(check.config_notes.empty());
  EXPECT_NE(check.config_notes[0].find("pcp"), std::string::npos);
}

TEST(FingerprintTest, DifferentAppsAreIncompatible) {
  const report::FingerprintCheck check =
      report::CompareFingerprints(SummaryWith("jacobi", "abc"), SummaryWith("fft", "abc"));
  EXPECT_FALSE(check.compatible);
  ASSERT_FALSE(check.mismatches.empty());
  EXPECT_NE(check.mismatches[0].find("app"), std::string::npos);
}

TEST(FingerprintTest, DifferentNodeCountsAreIncompatible) {
  report::RunSummary a = SummaryWith("jacobi", "abc");
  report::RunSummary b = SummaryWith("jacobi", "abc");
  b.nodes = 8;
  EXPECT_FALSE(report::CompareFingerprints(a, b).compatible);
}

TEST(DiffRunsTest, RanksByRelativeMovementAndSkipsUnchanged) {
  report::RunSummary a = SummaryWith("jacobi", "abc");
  report::RunSummary b = SummaryWith("jacobi", "abc");
  a.cluster_counters = {{"same", 100}, {"doubled", 50}, {"nudged", 1000}, {"gone", 7}};
  b.cluster_counters = {{"same", 100}, {"doubled", 100}, {"nudged", 1010}, {"fresh", 3}};
  const report::RunDiff diff = report::DiffRuns(a, b);
  std::vector<std::string> names;
  for (const report::Delta& d : diff.counters) {
    names.push_back(d.name);
  }
  // "same" is unchanged and omitted; counters present on only one side surface as full-swing
  // deltas ("fresh" 0 -> 3 is +300% against the ±1 floor base); "doubled" (+100%) outranks
  // "gone" (-100%) on |diff| at equal |rel|, and "nudged" (+1%) ranks last.
  EXPECT_EQ(names, (std::vector<std::string>{"fresh", "doubled", "gone", "nudged"}));
  EXPECT_DOUBLE_EQ(diff.counters[0].rel(), 3.0);
}

// --- Result history -------------------------------------------------------------------------

TEST(HistoryTest, MetricsLineRoundTripsThroughJson) {
  report::RunSummary run;
  std::string error;
  ASSERT_TRUE(report::ParseRun(kMinimalV2, &run, &error)) << error;
  run.fingerprint.app = "jacobi";
  run.cluster_counters["dsm.page_request_messages"] = 42;
  const std::string line = report::HistoryLine(run);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  json::ParseResult parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error << " in " << line;
  EXPECT_EQ(parsed.value->GetString("kind"), "metrics");
  EXPECT_EQ(parsed.value->GetString("label"), "t");
  EXPECT_EQ(parsed.value->GetString("app"), "jacobi");
  const json::Value* counters = parsed.value->Get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("dsm.page_request_messages"), 42.0);
}

TEST(HistoryTest, BenchLineRoundTripsThroughJson) {
  const std::string bench =
      "{\n  \"bench\": \"jacobi_pcp\",\n  \"nodes\": 8,\n  \"rows\": [\n    {\"x\": 1},\n"
      "    {\"x\": 2}\n  ]\n}\n";
  std::string line;
  std::string error;
  ASSERT_TRUE(report::BenchHistoryLine(bench, &line, &error)) << error;
  json::ParseResult parsed = json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error << " in " << line;
  EXPECT_EQ(parsed.value->GetString("kind"), "bench");
  EXPECT_EQ(parsed.value->GetString("bench"), "jacobi_pcp");
  EXPECT_EQ(parsed.value->GetNumber("rows"), 2.0);

  // Anything without a "bench" tag is rejected, not guessed at.
  EXPECT_FALSE(report::BenchHistoryLine("{\"rows\": []}", &line, &error));
  EXPECT_FALSE(error.empty());
}

TEST(HistoryTest, AppendIsIdempotent) {
  const std::string path = ::testing::TempDir() + "/dfil_history_test.jsonl";
  std::remove(path.c_str());
  const std::vector<std::string> lines = {"{\"kind\": \"bench\", \"bench\": \"a\"}",
                                          "{\"kind\": \"bench\", \"bench\": \"b\"}"};
  size_t appended = 0;
  std::string error;
  ASSERT_TRUE(report::AppendHistory(path, lines, &appended, &error)) << error;
  EXPECT_EQ(appended, 2u);
  // Re-appending the same lines (plus one new) only writes the new one.
  std::vector<std::string> again = lines;
  again.push_back("{\"kind\": \"bench\", \"bench\": \"c\"}");
  ASSERT_TRUE(report::AppendHistory(path, again, &appended, &error)) << error;
  EXPECT_EQ(appended, 1u);
  std::ifstream in(path);
  std::string file_line;
  std::vector<std::string> contents;
  while (std::getline(in, file_line)) {
    contents.push_back(file_line);
  }
  EXPECT_EQ(contents, again);
  std::remove(path.c_str());
}

// --- Pinned acceptance: the false-sharing story from counters alone -------------------------

report::RunSummary JacobiRunSummary(dsm::Pcp pcp) {
  apps::JacobiParams p;
  // 248 rows across 8 nodes = 31-row strips whose boundaries split 4 KB pages: genuine false
  // sharing (two neighbours write distinct rows of one page), the scenario the diff protocol
  // exists for. The aligned 256-row default never write-shares a page and diffs nothing.
  p.n = 248;
  p.iterations = 3;
  core::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.seed = 42;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  cfg.dsm.pcp = pcp;
  apps::AppRun run = apps::RunJacobiDf(p, cfg);
  EXPECT_TRUE(run.report.completed) << run.report.deadlock_report;
  std::ostringstream os;
  // Same label for both runs: the app identity (label fallback) must match for the runs to be
  // comparable; the PCP difference is exactly the deliberate A/B the fingerprint itemizes.
  core::WriteMetricsJson(run.report, "jacobi8", os);
  report::RunSummary summary;
  std::string error;
  EXPECT_TRUE(report::ParseRun(os.str(), &summary, &error)) << error;
  return summary;
}

TEST(DiffAcceptanceTest, JacobiWiVsDiffNamesEdgePagesFromCountersAlone) {
  const report::RunSummary wi = JacobiRunSummary(dsm::Pcp::kWriteInvalidate);
  const report::RunSummary df = JacobiRunSummary(dsm::Pcp::kDiff);
  const report::RunDiff diff = report::DiffRuns(wi, df);

  // Same app, same shape, deliberately different protocol: comparable, non-identical config,
  // and the PCP move is itemized by name.
  EXPECT_TRUE(diff.fingerprints.compatible);
  EXPECT_FALSE(diff.fingerprints.identical_config);
  bool pcp_note = false;
  for (const std::string& note : diff.fingerprints.config_notes) {
    pcp_note = pcp_note || note.find("pcp") != std::string::npos;
  }
  EXPECT_TRUE(pcp_note);

  // The page-data movement is the headline: multiple-writer diffs replace the write-invalidate
  // ownership ping-pong on the shared boundary pages, cutting whole-page transfers by well over
  // the gate tolerance while the diff-merge counters appear from zero.
  auto find = [&](const std::string& name) -> const report::Delta* {
    for (const report::Delta& d : diff.counters) {
      if (d.name == name) {
        return &d;
      }
    }
    return nullptr;
  };
  const report::Delta* data_bytes = find("dsm.page_data_bytes");
  ASSERT_NE(data_bytes, nullptr)
      << "dsm.page_data_bytes moved out of the ranked counter deltas";
  EXPECT_LT(data_bytes->b, data_bytes->a);
  EXPECT_GT((data_bytes->a - data_bytes->b) / data_bytes->a, 0.10);
  const report::Delta* merges = find("dsm.diff_merges_sent");
  ASSERT_NE(merges, nullptr);
  EXPECT_EQ(merges->a, 0.0);
  EXPECT_GT(merges->b, 0.0);
  const report::Delta* write_faults = find("dsm.write_faults");
  ASSERT_NE(write_faults, nullptr);
  EXPECT_LT(write_faults->b, write_faults->a);

  // The per-page fault heat names the edge pages and nothing else. A strip boundary k lives at
  // byte 31k * 1984 (row = 248 doubles) inside each of the two grids (the second starts at byte
  // 248*248*8 of the shared heap); every ranked page delta must land within one page of a
  // boundary — interior pages behave identically under both protocols.
  ASSERT_FALSE(diff.pages.empty());
  std::set<uint64_t> pages_named;
  for (const report::Delta& d : diff.pages) {
    ASSERT_EQ(d.name.rfind("page ", 0), 0u) << d.name;
    pages_named.insert(std::stoull(d.name.substr(5)));
  }
  std::set<uint64_t> boundary_pages;
  const uint64_t row_bytes = 248 * sizeof(double);
  for (const uint64_t grid_base : {uint64_t{0}, uint64_t{248 * row_bytes}}) {
    for (uint64_t k = 1; k < 8; ++k) {
      boundary_pages.insert((grid_base + 31 * k * row_bytes) / 4096);
    }
  }
  for (const uint64_t page : pages_named) {
    uint64_t nearest = ~uint64_t{0};
    for (const uint64_t b : boundary_pages) {
      nearest = std::min(nearest, page > b ? page - b : b - page);
    }
    EXPECT_LE(nearest, 1u) << "page " << page << " is not a strip-edge page";
  }
  // The first boundary (rows 30/31 of grid one share page 15) is the canonical false-sharing
  // page; it must be named, with its write-invalidate fault heat halved by the diff protocol.
  EXPECT_TRUE(pages_named.count(15));

  // The report renders end to end (smoke: the CLI path over the same data; --top 50 keeps the
  // byte counters in view below the full-swing diff-protocol rows).
  std::ostringstream os;
  report::PrintRunDiff(diff, wi, df, 50, os);
  EXPECT_NE(os.str().find("dsm.page_data_bytes"), std::string::npos);
  EXPECT_NE(os.str().find("dsm.diff_merges_sent"), std::string::npos);
}

// --- The dfil command line, end to end ------------------------------------------------------

// Runs `dfil args...` in process and returns its exit code; stdout lands in *out when given.
int Dfil(const std::vector<std::string>& args, std::string* out = nullptr) {
  std::ostringstream stdout_text;
  std::ostringstream stderr_text;
  const int rc = report::RunCli(args, stdout_text, stderr_text);
  if (out != nullptr) {
    *out = stdout_text.str();
  }
  return rc;
}

TEST(CliTest, EveryCommandFollowsTheExitCodeContract) {
  const std::string dir = ::testing::TempDir() + "/dfil_cli_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto file = [&dir](const std::string& name) { return dir + "/" + name; };
  auto write = [&file](const std::string& name, const std::string& text) {
    std::ofstream(file(name)) << text;
    return file(name);
  };
  // Traced 256x256 Jacobi runs of one program ("jacobi"): A and B differ only in PCP, so `diff`
  // compares them; C runs on 4 nodes, which `diff` refuses without --force.
  auto run = [&](const std::string& label, dsm::Pcp pcp, int nodes) {
    apps::JacobiParams p;
    p.n = 256;
    p.iterations = 3;
    core::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.dsm.pcp = pcp;
    cfg.trace_enabled = true;
    const apps::AppRun r = apps::RunJacobiDf(p, cfg);
    EXPECT_TRUE(r.report.completed) << r.report.deadlock_report;
    std::ofstream metrics(file("METRICS_" + label + ".json"));
    core::WriteMetricsJson(r.report, label, metrics, {{"app", "jacobi"}});
    std::ofstream trace(file("TRACE_" + label + ".json"));
    r.report.trace->WriteChromeTrace(trace);
    std::ofstream flight(file("FLIGHT_" + label + ".json"));
    core::WriteFlightJson(r.report, label, {}, flight);
  };
  run("a", dsm::Pcp::kImplicitInvalidate, 8);
  run("b", dsm::Pcp::kWriteInvalidate, 8);
  run("c", dsm::Pcp::kImplicitInvalidate, 4);
  const std::string ma = file("METRICS_a.json");
  const std::string mb = file("METRICS_b.json");
  const std::string ta = file("TRACE_a.json");
  const std::string tb = file("TRACE_b.json");

  report::RunSummary a;
  std::string error;
  ASSERT_TRUE(report::LoadRun(ma, &a, &error)) << error;
  const uint64_t prm = a.ClusterCounter("dsm.page_request_messages");
  ASSERT_GT(prm, 0u);
  auto gate_baseline = [&](const std::string& name, uint64_t expected) {
    return write(name, R"({"schema": "dfil-gate-v1", "tolerance": 0.10, "runs": {"a": )"
                       "{\"dsm.page_request_messages\": " + std::to_string(expected) + "}}}");
  };
  const std::string pass_gate = gate_baseline("pass_gate.json", prm);
  const std::string doubled_gate = gate_baseline("doubled_gate.json", 2 * prm);
  const std::string critpath_gate = write(
      "critpath_gate.json",
      R"({"schema": "dfil-critpath-gate-v1", "tolerance_pp": 100.0, "shares_pct": {"compute": 50}})");
  const std::string bench = write("BENCH_cli.json", R"({"bench": "cli", "rows": [{"x": 1}]})");
  const std::string garbage = write("garbage.json", "not json {");
  const std::string missing = file("missing.json");

  // 0: every command on good input, with and without --top.
  const std::vector<std::vector<std::string>> good = {
      {"report", ma, mb},
      {"figure10", ma},
      {"figure9", ma, mb},
      {"hot", ma},
      {"check-trace", ta, tb},
      {"critpath", ta},
      {"critpath", "--check", critpath_gate, ta},
      {"blame", ta},
      {"flight", file("FLIGHT_a.json")},
      {"gate", pass_gate, ma, mb},
      {"diff", ma, mb},
      {"diff", ma, mb, ta, tb},
      {"history", file("HISTORY.jsonl"), ma, mb, bench},
  };
  for (const std::vector<std::string>& args : good) {
    EXPECT_EQ(Dfil(args), report::kExitOk) << args[0];
    std::vector<std::string> with_top = args;
    with_top.insert(with_top.end(), {"--top", "3"});
    EXPECT_EQ(Dfil(with_top), report::kExitOk) << args[0] << " --top 3";
  }
  EXPECT_EQ(Dfil({"--help"}), report::kExitOk);

  // 1: a drifted counter fails the gate, which then says where the drift lives; runs of
  // different node counts are not compared unless forced.
  std::string out;
  EXPECT_EQ(Dfil({"gate", doubled_gate, ma}, &out), report::kExitCheckFailed);
  EXPECT_NE(out.find("FAIL a dsm.page_request_messages"), std::string::npos) << out;
  EXPECT_NE(out.find("per-node: n0="), std::string::npos) << out;
  EXPECT_NE(out.find("gate: FAIL"), std::string::npos) << out;
  const std::string mc = file("METRICS_c.json");
  EXPECT_EQ(Dfil({"diff", ma, mc}), report::kExitCheckFailed);
  EXPECT_EQ(Dfil({"diff", "--force", ma, mc}), report::kExitOk);

  // 2: usage errors, including the commands and flags the merged CLI dropped.
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {},
           {"--top", "3"},
           {"frobnicate", ma},
           {"paths", ta},
           {"--gate", pass_gate, ma},
           {"--history", file("HISTORY.jsonl"), ma},
           {"hot", "--top", "abc", ma},
           {"report"},
           {"diff", ma},
       }) {
    EXPECT_EQ(Dfil(args), report::kExitUsage) << (args.empty() ? "(no args)" : args[0]);
  }

  // 3: a missing file, and a file that is not JSON wherever an input is read.
  for (const std::vector<std::string>& args : std::vector<std::vector<std::string>>{
           {"report", missing},
           {"critpath", missing},
           {"report", garbage},
           {"check-trace", garbage},
           {"critpath", garbage},
           {"blame", garbage},
           {"flight", garbage},
           {"gate", garbage, ma},
           {"diff", ma, mb, garbage, tb},
       }) {
    EXPECT_EQ(Dfil(args), report::kExitIo) << args[0] << " " << args[1];
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dfil
