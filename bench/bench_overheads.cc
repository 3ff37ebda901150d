// Figure 9: Filaments overheads — per-operation costs and operations per second.
//
// Two views are reported:
//  1. The calibrated virtual-time costs the simulator charges (these ARE the paper's numbers;
//     printing them verifies the model matches Figure 9), measured end-to-end by running
//     filaments through the real runtime and dividing virtual time by operation count.
//  2. Real host-side microbenchmarks (google-benchmark) of this implementation's actual
//     machine-dependent context switch and filament machinery — the modern-hardware analog.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/cluster.h"
#include "src/net/wire.h"
#include "src/threads/server_thread.h"

namespace {

using namespace dfil;

void NopFilament(core::NodeEnv&, int64_t, int64_t, int64_t) {}

// Measures the virtual-time cost per filament by running a big pool through the runtime.
void MeasureSimulatedCosts() {
  bench::Header("Figure 9: Filaments overheads (simulated charges vs paper)");
  bench::JsonReport jr("overheads");
  constexpr int kN = 100000;

  // Strip-shaped (pattern-recognized, "inlined") filaments.
  SimTime inlined_total = 0;
  {
    core::Cluster cluster(bench::PaperConfig(1));
    core::RunReport r = cluster.Run([&](core::NodeEnv& env) {
      const core::PoolHandle pool = env.CreatePool();
      const SimTime before_create = env.Now();
      for (int i = 0; i < kN; ++i) {
        env.CreateFilament(pool, &NopFilament, i, 0, 0);
      }
      const SimTime created = env.Now() - before_create;
      std::printf("%-24s %8.3f us/op %12.0f ops/sec   (paper: 2.10 us, 457,000/sec)\n",
                  "filament create", ToMicroseconds(created) / kN,
                  kN / ToSeconds(created));
      jr.AddRow().Set("op", 0).Set("us_per_op", ToMicroseconds(created) / kN);
      const SimTime before_run = env.Now();
      env.RunPools();
      inlined_total = env.Now() - before_run;
    });
    DFIL_CHECK(r.completed);
    bench::EmitMetrics(r, "overheads_inline1", nullptr, "overheads");
  }
  std::printf("%-24s %8.3f us/op %12.0f ops/sec   (paper: 0.126 us, 7,950,000/sec)\n",
              "filament switch inlined", ToMicroseconds(inlined_total) / kN,
              kN / ToSeconds(inlined_total));
  jr.AddRow().Set("op", 1).Set("us_per_op", ToMicroseconds(inlined_total) / kN);

  // Non-strip (descriptor-traversal) filaments: alternate two functions to defeat the pattern
  // recognizer.
  {
    core::Cluster cluster(bench::PaperConfig(1));
    SimTime total = 0;
    core::RunReport r = cluster.Run([&](core::NodeEnv& env) {
      const core::PoolHandle pool = env.CreatePool();
      for (int i = 0; i < kN; ++i) {
        // Non-affine argument pattern: strips cannot form.
        env.CreateFilament(pool, &NopFilament, (i * i) % 97, 0, 0);
      }
      const SimTime before = env.Now();
      env.RunPools();
      total = env.Now() - before;
    });
    DFIL_CHECK(r.completed);
    std::printf("%-24s %8.3f us/op %12.0f ops/sec   (paper: 0.643 us, 1,560,000/sec)\n",
                "filament switch", ToMicroseconds(total) / kN, kN / ToSeconds(total));
    jr.AddRow().Set("op", 2).Set("us_per_op", ToMicroseconds(total) / kN);
  }

  // Server-thread context switch cost is charged directly from the model.
  const sim::CostModel costs = sim::CostModel::SunIpcEthernet();
  std::printf("%-24s %8.3f us/op %12.0f ops/sec   (paper: 48.8 us, 20,500/sec)\n",
              "thread context switch", ToMicroseconds(costs.thread_context_switch),
              1e6 / ToMicroseconds(costs.thread_context_switch));
  jr.AddRow().Set("op", 3).Set("us_per_op", ToMicroseconds(costs.thread_context_switch));

  // Quiet-network page fault: node 1 faults kF pages owned by node 0; nothing else runs.
  {
    constexpr int kF = 200;
    core::ClusterConfig cfg = bench::PaperConfig(2);
    core::Cluster cluster(cfg);
    auto base = cluster.layout().AllocPadded(kF * 4096, "pages");
    SimTime total = 0;
    core::RunReport r = cluster.Run([&](core::NodeEnv& env) {
      env.Barrier();
      if (env.node() == 1) {
        const SimTime before = env.Now();
        for (int i = 0; i < kF; ++i) {
          env.Read<double>(base + static_cast<GlobalAddr>(i) * 4096);
        }
        total = env.Now() - before;
      }
      env.Barrier();
    });
    DFIL_CHECK(r.completed);
    std::printf("%-24s %8.1f us/op %12.0f ops/sec   (paper: 4120 us, 238/sec)\n", "page fault",
                ToMicroseconds(total) / kF, kF / ToSeconds(total));
    jr.AddRow().Set("op", 4).Set("us_per_op", ToMicroseconds(total) / kF);
  }
  jr.Write();
}

// --- Real host-side microbenchmarks of this implementation ---

void BM_ContextSwitchAsm(benchmark::State& state) {
  threads::ThreadSystem sys(threads::ContextBackend::kAsm);
  threads::ServerThread* t = sys.Create([&sys] {
    for (;;) {
      sys.current()->set_state(threads::ThreadState::kReady);
      sys.SwitchToHost();
    }
  });
  for (auto _ : state) {
    sys.SwitchTo(t);  // host -> thread -> host: two raw switches
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ContextSwitchAsm);

void BM_ContextSwitchUcontext(benchmark::State& state) {
  threads::ThreadSystem sys(threads::ContextBackend::kUcontext);
  threads::ServerThread* t = sys.Create([&sys] {
    for (;;) {
      sys.current()->set_state(threads::ThreadState::kReady);
      sys.SwitchToHost();
    }
  });
  for (auto _ : state) {
    sys.SwitchTo(t);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ContextSwitchUcontext);

void BM_ThreadCreateRecycle(benchmark::State& state) {
  threads::ThreadSystem sys(threads::DefaultContextBackend());
  for (auto _ : state) {
    threads::ServerThread* t = sys.Create([] {});
    sys.SwitchTo(t);
    sys.Recycle(t);
  }
}
BENCHMARK(BM_ThreadCreateRecycle);

// What a page should look like against its twin at a flush.
enum class DiffPattern { kUnchanged, kOneStrip, kAlternateWords };

// The diff encoder on one 4 KB page (DiffProtocol::FlushTwins runs it once per twin). One
// 512-byte strip is one node's share of a page in the 8-node false-sharing run (perfbench
// fs8_diff_co); alternate words are its worst case, a run of 8 bytes every 16.
void BM_DiffPageRuns(benchmark::State& state, DiffPattern pattern) {
  constexpr size_t kPage = 4096;
  std::vector<std::byte> twin(kPage);
  for (size_t i = 0; i < kPage; ++i) {
    twin[i] = static_cast<std::byte>(i * 131 + 7);
  }
  std::vector<std::byte> cur = twin;
  for (size_t i = 0; i < kPage; ++i) {
    const bool changed = pattern == DiffPattern::kOneStrip ? (i >= 1024 && i < 1536)
                         : pattern == DiffPattern::kAlternateWords ? (i / 8) % 2 == 0
                                                                     : false;
    if (changed) {
      cur[i] ^= std::byte{0x5a};
    }
  }
  std::vector<net::DiffRun> runs;
  for (auto _ : state) {
    runs.clear();
    net::AppendDiffPageRuns(twin.data(), cur.data(), kPage, runs);
    benchmark::DoNotOptimize(runs.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kPage));
}
BENCHMARK_CAPTURE(BM_DiffPageRuns, unchanged, DiffPattern::kUnchanged);
BENCHMARK_CAPTURE(BM_DiffPageRuns, one_strip, DiffPattern::kOneStrip);
BENCHMARK_CAPTURE(BM_DiffPageRuns, alternate_words, DiffPattern::kAlternateWords);

}  // namespace

int main(int argc, char** argv) {
  MeasureSimulatedCosts();
  std::printf("\n--- host-side microbenchmarks of this implementation (not paper numbers) ---\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
