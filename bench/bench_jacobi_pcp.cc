// Figures 11 and 12: Jacobi ablations of the two performance enhancements.
//
//  * Figure 11 — write-invalidate instead of implicit-invalidate: invalidation messages return,
//    costing ~3% / 6% at 4 / 8 nodes in the paper.
//  * Figure 12 — a single pool instead of three: no communication/computation overlap, costing
//    ~9% / 21% at 4 / 8 nodes (comparing Figure 12 with Figure 5).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/jacobi.h"

int main(int argc, char** argv) {
  using namespace dfil;
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const bool quick = args.quick;
  apps::JacobiParams base_params;
  base_params.n = 256;
  base_params.iterations = quick ? 60 : 360;

  bench::Header("Figures 11 & 12: Jacobi PCP and pool ablations, 256x256, " +
                std::to_string(base_params.iterations) + " iterations");

  struct Variant {
    const char* name;
    dsm::Pcp pcp;
    int pools;
    double paper[4];  // 1,2,4,8 nodes
  };
  std::vector<Variant> variants = {
      {"implicit-invalidate, 3 pools (Fig 5) ", dsm::Pcp::kImplicitInvalidate, 3,
       {212, 102, 59.8, 38.5}},
      {"write-invalidate,    3 pools (Fig 11)", dsm::Pcp::kWriteInvalidate, 3,
       {212, 103, 61.4, 40.9}},
      {"implicit-invalidate, 1 pool  (Fig 12)", dsm::Pcp::kImplicitInvalidate, 1,
       {212, 104, 65.5, 48.5}},
  };
  // The PCP is the independent variable here, so --pcp replaces the comparison set with the
  // requested protocol alone (no paper column); the Figure 9 companion runs below stay fixed.
  if (args.pcp.has_value()) {
    variants.assign(1, Variant{"--pcp override,      3 pools         ", *args.pcp, 3, {0, 0, 0, 0}});
  }
  const int node_counts[] = {1, 2, 4, 8};
  const double scale = base_params.iterations / 360.0;

  bench::JsonReport jr("jacobi_pcp");
  jr.Scalar("n", base_params.n);
  jr.Scalar("iterations", base_params.iterations);
  double fig5[4] = {0, 0, 0, 0};
  double fig11[4] = {0, 0, 0, 0};
  double fig12[4] = {0, 0, 0, 0};
  std::printf("%-40s | %8s %8s %8s %8s\n", "variant (measured, s)", "1", "2", "4", "8");
  for (const Variant& v : variants) {
    apps::JacobiParams p = base_params;
    p.pools = v.pools;
    std::printf("%-40s |", v.name);
    for (int i = 0; i < 4; ++i) {
      if (args.nodes > 0 && node_counts[i] != args.nodes) {
        continue;
      }
      core::ClusterConfig cfg = bench::PaperConfig(node_counts[i]);
      args.Apply(cfg);
      cfg.dsm.pcp = v.pcp;
      apps::AppRun run = apps::RunJacobiDf(p, cfg);
      DFIL_CHECK(run.report.completed) << run.report.deadlock_report;
      std::printf(" %8.1f", run.seconds());
      jr.AddRow()
          .Set("variant", static_cast<double>(&v - variants.data()))
          .Set("pools", v.pools)
          .Set("pcp", static_cast<double>(v.pcp))
          .Set("nodes", node_counts[i])
          .Set("seconds", run.seconds())
          .Set("paper_s", v.paper[i] * scale);
      if (v.pools == 3 && v.pcp == dsm::Pcp::kImplicitInvalidate) {
        fig5[i] = run.seconds();
      } else if (v.pcp == dsm::Pcp::kWriteInvalidate) {
        fig11[i] = run.seconds();
      } else {
        fig12[i] = run.seconds();
      }
    }
    if (!args.pcp.has_value()) {
      std::printf("   paper:");
      for (int i = 0; i < 4; ++i) {
        std::printf(" %6.1f", v.paper[i] * scale);
      }
    }
    std::printf("\n");
  }
  if (!args.pcp.has_value() && args.nodes == 0) {
    std::printf("\nimplicit-invalidate gain over write-invalidate:   4 nodes %+5.1f%%  8 nodes "
                "%+5.1f%%   (paper: 3%% and 6%%)\n",
                100.0 * (fig11[2] - fig5[2]) / fig11[2], 100.0 * (fig11[3] - fig5[3]) / fig11[3]);
    std::printf("overlap gain (3 pools over 1 pool):               4 nodes %+5.1f%%  8 nodes "
                "%+5.1f%%   (paper: 9%% and 21%%)\n",
                100.0 * (fig12[2] - fig5[2]) / fig12[2], 100.0 * (fig12[3] - fig5[3]) / fig12[3]);
  }
  jr.Write();

  // Figure 9 companion: fixed-size 8-node runs, one per PCP, exported as dfil-metrics-v2 JSON
  // for `dfil figure9/report` and the CI counter-regression gate. Iteration counts are
  // fixed — NOT scaled by --quick — so the checked-in gate baseline holds in both modes;
  // migratory gets fewer iterations because every read-shared edge page ping-pongs.
  bench::Header("Figure 9 companion: 8-node message counts per PCP (see tools/dfil figure9)");
  struct MetricsRun {
    const char* label;
    dsm::Pcp pcp;
    int iterations;
    bool trace;
  };
  const MetricsRun metrics_runs[] = {
      {"jacobi_mig8", dsm::Pcp::kMigratory, 30, false},
      {"jacobi_wi8", dsm::Pcp::kWriteInvalidate, 60, false},
      {"jacobi_ii8", dsm::Pcp::kImplicitInvalidate, 60, true},
  };
  for (const MetricsRun& mr : metrics_runs) {
    apps::JacobiParams p = base_params;
    p.iterations = mr.iterations;
    core::ClusterConfig cfg = bench::PaperConfig(8);
    cfg.dsm.pcp = mr.pcp;
    cfg.trace_enabled = mr.trace;
    apps::AppRun run = apps::RunJacobiDf(p, cfg);
    DFIL_CHECK(run.report.completed) << run.report.deadlock_report;
    std::printf("%-12s %-20s %3d iterations: %7.1fs, %llu page-request msgs\n", mr.label,
                dsm::PcpName(mr.pcp), mr.iterations, run.seconds(),
                static_cast<unsigned long long>([&] {
                  uint64_t total = 0;
                  for (const auto& nr : run.report.nodes) {
                    total += nr.dsm.page_request_messages();
                  }
                  return total;
                }()));
    bench::EmitMetrics(run.report, mr.label, &args, "jacobi");
    bench::EmitTrace(run.report, mr.label);
  }

  // Coalescing ablation companion (DESIGN.md §11): the fixed-size implicit-invalidate run with
  // and without per-destination frame coalescing. The coalesced run's net.datagrams_sent is
  // pinned by bench/baselines/coalesce_gate.json; the asserts keep the headline claim honest:
  // at least 30% fewer UDP datagrams at no virtual-time cost.
  bench::Header("Coalescing ablation: jacobi_ii8 with per-destination frame coalescing");
  auto total_datagrams = [](const core::RunReport& r) {
    uint64_t total = 0;
    for (const auto& nr : r.nodes) {
      total += nr.packet.datagrams_sent;
    }
    return total;
  };
  apps::JacobiParams cp = base_params;
  cp.iterations = 120;
  core::ClusterConfig plain_cfg = bench::PaperConfig(8);
  plain_cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  apps::AppRun plain = apps::RunJacobiDf(cp, plain_cfg);
  DFIL_CHECK(plain.report.completed) << plain.report.deadlock_report;
  core::ClusterConfig co_cfg = bench::PaperConfig(8);
  co_cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  co_cfg.coalesce.enabled = true;
  apps::AppRun co = apps::RunJacobiDf(cp, co_cfg);
  DFIL_CHECK(co.report.completed) << co.report.deadlock_report;
  const uint64_t plain_dgrams = total_datagrams(plain.report);
  const uint64_t co_dgrams = total_datagrams(co.report);
  std::printf("jacobi_ii8_co: %llu datagrams (plain: %llu, %+.1f%%), %.1fs (plain: %.1fs)\n",
              static_cast<unsigned long long>(co_dgrams),
              static_cast<unsigned long long>(plain_dgrams),
              100.0 * (static_cast<double>(co_dgrams) - static_cast<double>(plain_dgrams)) /
                  static_cast<double>(plain_dgrams),
              co.seconds(), plain.seconds());
  bench::EmitMetrics(co.report, "jacobi_ii8_co", &args, "jacobi");
  DFIL_CHECK(co_dgrams * 10 <= plain_dgrams * 7)
      << "coalescing sent " << co_dgrams << " datagrams vs " << plain_dgrams
      << " plain (< 30% reduction)";
  DFIL_CHECK_LE(co.report.makespan, plain.report.makespan)
      << "coalescing regressed virtual time";
  return 0;
}
