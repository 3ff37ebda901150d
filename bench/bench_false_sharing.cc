// False-sharing ablation (extension, DESIGN.md §10): multiple-writer diff merging vs the
// single-writer protocols on a deliberately page-shared array.
//
// Workload: `pages` 4 KB pages of int64, every page split into one contiguous strip per node.
// Each epoch every node read-modify-writes its strips (so every page has N concurrent writers),
// with one barrier per epoch; the final values are verified everywhere at the end. Under
// write-invalidate the read fetch ships a full page and the following write fault ships it AGAIN
// with ownership — and the transfer invalidates the other writers' read copies mid-epoch. Under
// the diff protocol the write fault twins the just-read copy in place (no messages) and the
// barrier flush ships only the RLE-encoded bytes each writer actually changed.
//
// The fixed 8-node companion runs at the bottom are the CI gate inputs
// (bench/baselines/false_sharing_gate.json) and assert the headline claim: diff moves >=30%
// fewer page-data bytes than write-invalidate on this workload.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/cluster.h"
#include "src/core/global_array.h"
#include "src/core/node_runtime.h"

namespace {

using namespace dfil;

struct FsResult {
  core::RunReport report;
  double seconds = 0;
};

// Per-epoch increment node `writer` adds to element `index`; values start at zero, so after E
// epochs every element holds E * StepValue(index, writer).
int64_t StepValue(size_t index, int writer) {
  return static_cast<int64_t>(index) * 131 + writer + 1;
}

FsResult RunFalseSharing(core::ClusterConfig cfg, int pages, int epochs) {
  core::Cluster cluster(cfg);
  const size_t elems_per_page = (size_t{1} << cfg.page_shift) / sizeof(int64_t);
  const size_t total = static_cast<size_t>(pages) * elems_per_page;
  const size_t chunk = elems_per_page / static_cast<size_t>(cfg.nodes);
  DFIL_CHECK(chunk >= 1) << "more nodes than strips per page";
  auto arr = core::GlobalArray1D<int64_t>::Alloc(cluster.layout(), total, "shared");

  FsResult res;
  res.report = cluster.Run([&](core::NodeEnv& env) {
    const int me = env.node();
    const int nodes = env.nodes();
    for (int e = 0; e < epochs; ++e) {
      // Every node read-modify-writes its strip of every page: N concurrent writers per page,
      // each checking its own previous epoch's merge survived.
      for (int p = 0; p < pages; ++p) {
        const size_t base = static_cast<size_t>(p) * elems_per_page +
                            static_cast<size_t>(me) * chunk;
        for (size_t j = 0; j < chunk; ++j) {
          const int64_t old = arr.Read(env, base + j);
          DFIL_CHECK_EQ(old, e * StepValue(base + j, me));
          arr.Write(env, base + j, old + StepValue(base + j, me));
        }
      }
      env.Barrier();
    }
    // Full read-back: every node checks every strip, including the ones merged remotely.
    for (size_t i = 0; i < total; ++i) {
      const int writer = static_cast<int>((i % elems_per_page) / chunk);
      if (writer < nodes) {
        DFIL_CHECK_EQ(arr.Read(env, i), epochs * StepValue(i, writer));
      }
    }
  });
  DFIL_CHECK(res.report.completed) << res.report.deadlock_report;
  res.seconds = ToSeconds(res.report.makespan);
  return res;
}

struct Totals {
  uint64_t page_data_bytes = 0;
  uint64_t page_msgs = 0;
  uint64_t diff_bytes = 0;
  uint64_t merges = 0;
  uint64_t invalidations = 0;
  uint64_t datagrams = 0;
};

Totals Sum(const core::RunReport& report) {
  Totals t;
  for (const auto& nr : report.nodes) {
    t.page_data_bytes += nr.dsm.page_data_bytes;
    t.page_msgs += nr.dsm.page_request_messages();
    t.diff_bytes += nr.dsm.diff_bytes_sent;
    t.merges += nr.dsm.diff_merges_sent;
    t.invalidations += nr.dsm.invalidations_sent;
    t.datagrams += nr.packet.datagrams_sent;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const int pages = 8;
  const int epochs = args.quick ? 6 : 16;

  bench::Header("False-sharing ablation: " + std::to_string(pages) +
                " write-shared pages, one strip per node, " + std::to_string(epochs) + " epochs");

  struct Variant {
    const char* name;
    dsm::Pcp pcp;
    bool adapt;
  };
  std::vector<Variant> variants = {
      {"write-invalidate", dsm::Pcp::kWriteInvalidate, false},
      {"implicit-invalidate", dsm::Pcp::kImplicitInvalidate, false},
      {"diff (multiple-writer)", dsm::Pcp::kDiff, false},
      {"adaptive (ii base)", dsm::Pcp::kImplicitInvalidate, true},
  };
  if (args.pcp.has_value()) {
    variants.assign(1, Variant{"--pcp override", *args.pcp, false});
  }

  bench::JsonReport jr("false_sharing");
  jr.Scalar("pages", pages);
  jr.Scalar("epochs", epochs);

  std::printf("%-24s | %8s | %12s | %9s | %10s | %7s | %7s\n", "protocol", "time(s)",
              "page bytes", "page msgs", "diff bytes", "merges", "invals");
  double wi_bytes = 0;
  for (const Variant& v : variants) {
    core::ClusterConfig cfg = bench::PaperConfig(args.NodesOr(8));
    cfg.dsm.pcp = v.pcp;
    cfg.dsm.adapt_protocols = v.adapt;
    if (v.adapt) {
      // Ownership rotates through all writers here, so per-owner traffic stays low; flip a group
      // as soon as its owner sees any write-sharing at all.
      cfg.dsm.adapt_to_diff_threshold = 1;
    }
    args.Apply(cfg);
    const FsResult run = RunFalseSharing(cfg, pages, epochs);
    const Totals t = Sum(run.report);
    std::printf("%-24s | %8.2f | %12llu | %9llu | %10llu | %7llu | %7llu",
                v.name, run.seconds, static_cast<unsigned long long>(t.page_data_bytes),
                static_cast<unsigned long long>(t.page_msgs),
                static_cast<unsigned long long>(t.diff_bytes),
                static_cast<unsigned long long>(t.merges),
                static_cast<unsigned long long>(t.invalidations));
    if (v.pcp == dsm::Pcp::kWriteInvalidate && !v.adapt) {
      wi_bytes = static_cast<double>(t.page_data_bytes);
    } else if (wi_bytes > 0) {
      std::printf("   (page bytes %+.1f%% vs WI)",
                  100.0 * (static_cast<double>(t.page_data_bytes) - wi_bytes) / wi_bytes);
    }
    std::printf("\n");
    jr.AddRow()
        .Set("pcp", static_cast<double>(v.pcp))
        .Set("adapt", v.adapt ? 1 : 0)
        .Set("nodes", cfg.nodes)
        .Set("seconds", run.seconds)
        .Set("page_data_bytes", static_cast<double>(t.page_data_bytes))
        .Set("page_request_messages", static_cast<double>(t.page_msgs))
        .Set("diff_bytes_sent", static_cast<double>(t.diff_bytes))
        .Set("diff_merges_sent", static_cast<double>(t.merges))
        .Set("invalidations_sent", static_cast<double>(t.invalidations));
  }
  jr.Write();

  // Gate companion: fixed-size 8-node runs, one per protocol, exported as dfil-metrics-v2 JSON
  // for the CI counter-regression gate. Sizes are fixed — NOT scaled by --quick or --nodes — so
  // the checked-in baseline (bench/baselines/false_sharing_gate.json) holds in every mode.
  bench::Header("Gate companion: fixed 8-node runs (see bench/baselines/false_sharing_gate.json)");
  const int gate_epochs = 12;
  struct GateRun {
    const char* label;
    dsm::Pcp pcp;
  };
  const GateRun gate_runs[] = {
      {"false_sharing_wi8", dsm::Pcp::kWriteInvalidate},
      {"false_sharing_ii8", dsm::Pcp::kImplicitInvalidate},
      {"false_sharing_diff8", dsm::Pcp::kDiff},
  };
  uint64_t gate_wi_bytes = 0, gate_diff_bytes = 0;
  uint64_t gate_diff_datagrams = 0;
  SimTime gate_diff_makespan = 0;
  for (const GateRun& gr : gate_runs) {
    core::ClusterConfig cfg = bench::PaperConfig(8);
    cfg.dsm.pcp = gr.pcp;
    const FsResult run = RunFalseSharing(cfg, pages, gate_epochs);
    const Totals t = Sum(run.report);
    std::printf("%-20s %-20s %12llu page bytes, %7llu page msgs\n", gr.label,
                dsm::PcpName(gr.pcp), static_cast<unsigned long long>(t.page_data_bytes),
                static_cast<unsigned long long>(t.page_msgs));
    bench::EmitMetrics(run.report, gr.label, &args, "false_sharing");
    if (gr.pcp == dsm::Pcp::kWriteInvalidate) {
      gate_wi_bytes = t.page_data_bytes;
    } else if (gr.pcp == dsm::Pcp::kDiff) {
      gate_diff_bytes = t.page_data_bytes;
      gate_diff_datagrams = t.datagrams;
      gate_diff_makespan = run.report.makespan;
    }
  }
  // Coalescing ablation companions (DESIGN.md §11): a diff run again with per-destination frame
  // coalescing on, at 8 pages (the diff gate run's twin) and at 64, where each node's bulk
  // refetch queues 4 replies of 16 pages at node 0. Fixed-size like the other gate inputs;
  // bench/baselines/coalesce_gate.json pins their net.datagrams_sent (and the 64-page run's zero
  // retransmissions), and the asserts keep the headline claim honest: at least 30% fewer UDP
  // datagrams at no virtual-time cost.
  const auto coalesced_twin = [&](const char* label, int run_pages, uint64_t plain_datagrams,
                                  SimTime plain_makespan) {
    core::ClusterConfig cfg = bench::PaperConfig(8);
    cfg.dsm.pcp = dsm::Pcp::kDiff;
    cfg.coalesce.enabled = true;
    const FsResult run = RunFalseSharing(cfg, run_pages, gate_epochs);
    const Totals t = Sum(run.report);
    std::printf("%-20s %-20s %12llu datagrams (plain diff: %llu), %8.2fs (plain: %.2fs)\n", label,
                "diff + coalesce", static_cast<unsigned long long>(t.datagrams),
                static_cast<unsigned long long>(plain_datagrams), run.seconds,
                ToSeconds(plain_makespan));
    bench::EmitMetrics(run.report, label, &args, "false_sharing");
    DFIL_CHECK(t.datagrams * 10 <= plain_datagrams * 7)
        << label << ": coalescing sent " << t.datagrams << " datagrams vs " << plain_datagrams
        << " plain (< 30% reduction)";
    DFIL_CHECK_LE(run.report.makespan, plain_makespan)
        << label << ": coalescing regressed virtual time";
  };
  coalesced_twin("false_sharing_diff8_co", pages, gate_diff_datagrams, gate_diff_makespan);
  {
    core::ClusterConfig cfg = bench::PaperConfig(8);
    cfg.dsm.pcp = dsm::Pcp::kDiff;
    const FsResult plain = RunFalseSharing(cfg, 64, gate_epochs);
    coalesced_twin("false_sharing_diff64_co", 64, Sum(plain.report).datagrams,
                   plain.report.makespan);
  }
  // The headline claim, asserted so a protocol regression fails the bench itself, not just the
  // downstream gate: diff moves >=30% fewer page-data bytes than write-invalidate here.
  DFIL_CHECK(gate_diff_bytes * 10 <= gate_wi_bytes * 7)
      << "diff shipped " << gate_diff_bytes << " page-data bytes vs " << gate_wi_bytes
      << " under write-invalidate (< 30% reduction)";
  std::printf("diff vs write-invalidate page-data bytes: %.1f%% reduction (gate requires >= 30%%)\n",
              100.0 * (1.0 - static_cast<double>(gate_diff_bytes) /
                                 static_cast<double>(gate_wi_bytes)));
  return 0;
}
