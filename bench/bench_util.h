// Shared table-printing helpers for the reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper's evaluation section and
// prints the measured numbers side by side with the published ones. Absolute agreement is not the
// goal (the substrate is a calibrated simulator, DESIGN.md §2); the shape — who wins, by what
// factor, where the crossovers fall — is.
#ifndef DFIL_BENCH_BENCH_UTIL_H_
#define DFIL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/metrics_io.h"

namespace dfil::bench {

// Unified CLI shared by every bench binary:
//   --quick          smaller problem / iteration counts (gate-pinned runs stay fixed-size)
//   --nodes=N        override the node count; sweeping benches keep only the matching point
//   --pcp=NAME       page-consistency protocol: mig|wi|ii|diff (full names accepted too)
//   --pages=SHIFT    page size as log2 bytes (e.g. 9 = 512 B, 12 = 4 KB)
//   --seed=N         cluster RNG seed
//   --metrics        emit METRICS_<label>.json artifacts for runs that skip them by default
//   --coalesce       enable per-destination frame coalescing (DESIGN.md §11)
//   --balance        enable epoch-driven load balancing (DESIGN.md §13; implies wait-state)
// Unknown --flags abort with the usage text; bare values are ignored (google-benchmark benches
// pass their own argv through their framework first).
struct BenchArgs {
  bool quick = false;
  bool metrics = false;
  bool coalesce = false;
  bool balance = false;
  int nodes = 0;                // 0 = bench default
  std::optional<dsm::Pcp> pcp;  // unset = bench default
  int page_shift = 0;           // 0 = bench default
  uint64_t seed = 0;            // 0 = bench default

  // Layers the explicit overrides onto a config the bench already assembled; bench defaults win
  // wherever the flag was not given.
  void Apply(core::ClusterConfig& cfg) const {
    if (pcp.has_value()) {
      cfg.dsm.pcp = *pcp;
    }
    if (page_shift != 0) {
      cfg.page_shift = static_cast<size_t>(page_shift);
    }
    if (seed != 0) {
      cfg.seed = seed;
    }
    if (coalesce) {
      cfg.coalesce.enabled = true;
    }
    if (balance) {
      cfg.balancer.enabled = true;
    }
  }

  int NodesOr(int fallback) const { return nodes > 0 ? nodes : fallback; }
};

inline std::optional<dsm::Pcp> ParsePcp(const std::string& name) {
  if (name == "mig" || name == "migratory") {
    return dsm::Pcp::kMigratory;
  }
  if (name == "wi" || name == "write_invalidate" || name == "write-invalidate") {
    return dsm::Pcp::kWriteInvalidate;
  }
  if (name == "ii" || name == "implicit_invalidate" || name == "implicit-invalidate") {
    return dsm::Pcp::kImplicitInvalidate;
  }
  if (name == "diff") {
    return dsm::Pcp::kDiff;
  }
  return std::nullopt;
}

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  auto usage = [&](const std::string& bad) {
    std::fprintf(stderr,
                 "%s: unrecognized option '%s'\n"
                 "usage: %s [--quick] [--nodes=N] [--pcp=mig|wi|ii|diff] [--pages=SHIFT]"
                 " [--seed=N] [--metrics] [--coalesce] [--balance]\n",
                 argv[0], bad.c_str(), argv[0]);
    std::exit(2);
  };
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--quick") {
      args.quick = true;
    } else if (key == "--metrics") {
      args.metrics = true;
    } else if (key == "--coalesce") {
      args.coalesce = true;
    } else if (key == "--balance") {
      args.balance = true;
    } else if (key == "--nodes") {
      args.nodes = std::atoi(value.c_str());
    } else if (key == "--pcp") {
      args.pcp = ParsePcp(value);
      if (!args.pcp.has_value()) {
        usage(arg);
      }
    } else if (key == "--pages") {
      args.page_shift = std::atoi(value.c_str());
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      usage(arg);
    }
  }
  return args;
}

// Machine-readable bench output: every bench emits BENCH_<name>.json next to its table so result
// tracking across commits does not depend on scraping stdout. The format is flat on purpose —
// one object with scalar config fields plus a "rows" array of {key: number} objects, one row per
// table line.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void Scalar(const std::string& key, double value) { scalars_.emplace_back(key, value); }

  class Row {
   public:
    Row& Set(const std::string& key, double value) {
      fields_.emplace_back(key, value);
      return *this;
    }

   private:
    friend class JsonReport;
    std::vector<std::pair<std::string, double>> fields_;
  };

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  // Serializes the report (the exact bytes Write() emits, so it is testable without the
  // filesystem).
  std::string ToJson() const {
    std::string out;
    out += "{\n  \"bench\": \"" + name_ + "\"";
    for (const auto& [k, v] : scalars_) {
      out += ",\n  \"" + k + "\": " + Number(v);
    }
    out += ",\n  \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n");
      out += "    {";
      const auto& fields = rows_[i].fields_;
      for (size_t j = 0; j < fields.size(); ++j) {
        out += (j == 0 ? "" : ", ");
        out += "\"" + fields[j].first + "\": " + Number(fields[j].second);
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  // Writes BENCH_<name>.json into the current directory. Called explicitly (not from the
  // destructor) so a crashed bench leaves no half-written report behind.
  void Write() const {
    std::ofstream out("BENCH_" + name_ + ".json");
    out << ToJson();
    std::printf("wrote BENCH_%s.json\n", name_.c_str());
  }

 private:
  static std::string Number(double v) {
    char buf[32];
    if (v == static_cast<long long>(v)) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
  }

  std::string name_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<Row> rows_;
};

inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      return true;
    }
  }
  return false;
}

inline void Header(const std::string& title) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================================\n");
}

// One row of a Figure 4..7-style table.
struct SpeedupRow {
  int nodes;
  double cg_time, df_time;          // measured (seconds, virtual)
  double paper_cg, paper_df;        // published times
  double seq_time;                  // measured sequential baseline
  double paper_seq;
};

inline void PrintSpeedupTable(const std::vector<SpeedupRow>& rows) {
  std::printf("%-6s | %9s %8s | %9s %8s || %9s %8s | %9s %8s\n", "nodes", "CG(s)", "spdup",
              "DF(s)", "spdup", "paperCG", "spdup", "paperDF", "spdup");
  std::printf("-------+--------------------+--------------------++--------------------+-------------------\n");
  for (const SpeedupRow& r : rows) {
    std::printf("%-6d | %9.1f %8.2f | %9.1f %8.2f || %9.1f %8.2f | %9.1f %8.2f\n", r.nodes,
                r.cg_time, r.seq_time / r.cg_time, r.df_time, r.seq_time / r.df_time, r.paper_cg,
                r.paper_seq / r.paper_cg, r.paper_df, r.paper_seq / r.paper_df);
  }
}

inline void EmitSpeedupRows(JsonReport* jr, const std::vector<SpeedupRow>& rows) {
  for (const SpeedupRow& r : rows) {
    jr->AddRow()
        .Set("nodes", r.nodes)
        .Set("cg_s", r.cg_time)
        .Set("df_s", r.df_time)
        .Set("seq_s", r.seq_time)
        .Set("cg_speedup", r.seq_time / r.cg_time)
        .Set("df_speedup", r.seq_time / r.df_time)
        .Set("paper_cg_s", r.paper_cg)
        .Set("paper_df_s", r.paper_df);
  }
}

// The CLI-level half of the provenance block every METRICS_*.json carries: exactly which bench
// flags produced the artifact. The run's config-level fields (resolved nodes/pcp/seed/coalesce,
// network, barrier) come from RunReport::provenance; "cli.*" records what was explicitly asked
// for, so a default and an explicit `--nodes=8` are distinguishable.
inline std::map<std::string, std::string> ProvenanceOf(const BenchArgs& args) {
  std::map<std::string, std::string> p;
  p["cli.quick"] = args.quick ? "1" : "0";
  p["cli.coalesce"] = args.coalesce ? "1" : "0";
  p["cli.balance"] = args.balance ? "1" : "0";
  if (args.nodes > 0) {
    p["cli.nodes"] = std::to_string(args.nodes);
  }
  if (args.pcp.has_value()) {
    p["cli.pcp"] = dsm::PcpName(*args.pcp);
  }
  if (args.page_shift != 0) {
    p["cli.page_shift"] = std::to_string(args.page_shift);
  }
  if (args.seed != 0) {
    p["cli.seed"] = std::to_string(args.seed);
  }
  return p;
}

// Observability artifacts next to BENCH_<name>.json: METRICS_<label>.json (dfil-metrics-v2, the
// input to tools/dfil_report and the CI regression gate) and, when the run was traced,
// TRACE_<label>.json (Chrome trace-event JSON for Perfetto / chrome://tracing).
//
// `app` is the program identity stamped into the run fingerprint ("jacobi", "false_sharing", ...)
// so dfil_diff can tell A/B runs of the same program apart from unrelated runs even when labels
// differ (jacobi_wi8 vs jacobi_ii8 share app "jacobi"). Empty = fall back to the label.
inline void EmitMetrics(const core::RunReport& report, const std::string& label,
                        const BenchArgs* args = nullptr, const std::string& app = "") {
  std::map<std::string, std::string> extra =
      args != nullptr ? ProvenanceOf(*args) : std::map<std::string, std::string>{};
  if (!app.empty()) {
    extra["app"] = app;
  }
  core::WriteMetricsFile(report, label, extra);
}

inline void EmitTrace(const core::RunReport& report, const std::string& label) {
  if (report.trace == nullptr) {
    return;
  }
  const std::string name = "TRACE_" + label + ".json";
  std::ofstream out(name);
  report.trace->WriteChromeTrace(out);
  std::printf("wrote %s (%zu events)\n", name.c_str(), report.trace->event_count());
}

inline core::ClusterConfig PaperConfig(int nodes) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.costs = sim::CostModel::SunIpcEthernet();
  cfg.network = core::NetworkKind::kSharedEthernet;
  return cfg;
}

}  // namespace dfil::bench

#endif  // DFIL_BENCH_BENCH_UTIL_H_
