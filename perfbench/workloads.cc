#include "perfbench/workloads.h"

#include "src/apps/jacobi.h"
#include "src/apps/quadrature.h"

namespace perfbench {
namespace {

using namespace dfil;

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h = 14695981039346656037ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

core::ClusterConfig BaseConfig(const WorkloadOptions& opt, int nodes, core::NetworkKind network) {
  core::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.network = network;
  cfg.seed = opt.seed;
  cfg.trace_enabled = opt.trace;
  return cfg;
}

std::string CheckRun(const core::RunReport& report) {
  if (report.deadlocked) {
    return "deadlocked: " + report.deadlock_report;
  }
  if (!report.completed) {
    return "did not complete";
  }
  return "";
}

std::string Compare(const Answer& got, const Answer& expect) {
  if (got.checksum != expect.checksum || got.digest != expect.digest) {
    return "wrong answer: checksum " + std::to_string(got.checksum) + " digest " +
           std::to_string(got.digest) + ", expected " + std::to_string(expect.checksum) +
           " digest " + std::to_string(expect.digest);
  }
  return "";
}

// --- jacobi64 --------------------------------------------------------------------------------

apps::JacobiParams JacobiSize(const WorkloadOptions& opt) {
  apps::JacobiParams p;
  p.n = opt.smoke ? 64 : 512;
  p.iterations = opt.smoke ? 3 : 20;
  p.pools = 3;
  return p;
}

core::ClusterConfig JacobiConfig(const WorkloadOptions& opt) {
  core::ClusterConfig cfg = BaseConfig(opt, opt.smoke ? 8 : 64, core::NetworkKind::kSwitched);
  cfg.dsm.pcp = dsm::Pcp::kImplicitInvalidate;
  return cfg;
}

Answer JacobiAnswer(const apps::AppRun& run) {
  return Answer{run.checksum, Fnv1a(run.output.data(), run.output.size() * sizeof(double))};
}

// --- quad8 -----------------------------------------------------------------------------------

apps::QuadratureParams QuadSize(const WorkloadOptions& opt) {
  apps::QuadratureParams p;
  if (opt.smoke) {
    p.tolerance = 1e-5;
  }
  return p;
}

core::ClusterConfig QuadConfig(const WorkloadOptions& opt) {
  core::ClusterConfig cfg = BaseConfig(opt, 8, core::NetworkKind::kSharedEthernet);
  // What RunQuadratureDf sets for itself; SetupOnce builds the same cluster.
  cfg.wake_at_front = true;
  cfg.fj.steal_enabled = true;
  return cfg;
}

uint64_t TotalEvals(const std::vector<double>& per_node) {
  double total = 0;
  for (double e : per_node) {
    total += e;
  }
  return static_cast<uint64_t>(total);
}

// --- fs8_diff_co -----------------------------------------------------------------------------

struct FsShape {
  int pages;
  int epochs;
  size_t elems_per_page;
  size_t chunk;  // elements per node per page
  int64_t salt;  // seed-drawn offset of every increment

  size_t total() const { return static_cast<size_t>(pages) * elems_per_page; }
  int Writer(size_t i) const { return static_cast<int>((i % elems_per_page) / chunk); }
  // Per-epoch increment `writer` adds to element `index`; after E epochs it holds E times this.
  int64_t Step(size_t index, int writer) const {
    return static_cast<int64_t>(index) * 131 + writer + 1 + salt;
  }
};

core::ClusterConfig FsConfig(const WorkloadOptions& opt) {
  core::ClusterConfig cfg = BaseConfig(opt, 8, core::NetworkKind::kSharedEthernet);
  cfg.dsm.pcp = dsm::Pcp::kDiff;
  cfg.coalesce.enabled = true;
  return cfg;
}

FsShape FsShapeOf(const WorkloadOptions& opt, const core::ClusterConfig& cfg) {
  FsShape s;
  s.pages = opt.smoke ? 8 : 64;
  s.epochs = opt.smoke ? 4 : 64;
  s.elems_per_page = (size_t{1} << cfg.page_shift) / sizeof(int64_t);
  s.chunk = s.elems_per_page / static_cast<size_t>(cfg.nodes);
  s.salt = static_cast<int64_t>(Rng(opt.seed).NextBounded(1 << 16));
  return s;
}

// The value every element must hold after the run (untouched tail elements stay zero).
int64_t FsFinal(const FsShape& s, size_t i, int nodes) {
  const int writer = s.Writer(i);
  return writer < nodes ? s.epochs * s.Step(i, writer) : 0;
}

Answer FsReference(const WorkloadOptions& opt) {
  const core::ClusterConfig cfg = FsConfig(opt);
  const FsShape s = FsShapeOf(opt, cfg);
  uint64_t h = Fnv1a(nullptr, 0);
  for (size_t i = 0; i < s.total(); ++i) {
    const int64_t v = FsFinal(s, i, cfg.nodes);
    h = Fnv1a(&v, sizeof(v), h);
  }
  return Answer{0, h};
}

// Timed from Cluster construction, like the app entry points, so host_s includes set-up.
AttemptResult FsAttempt(const WorkloadOptions& opt, const Answer& expect, SpanLog& spans) {
  AttemptResult res;
  const int64_t t0 = CpuNowNs();
  const core::ClusterConfig cfg = FsConfig(opt);
  const FsShape s = FsShapeOf(opt, cfg);
  core::Cluster cluster(cfg);
  auto arr = core::GlobalArray1D<int64_t>::Alloc(cluster.layout(), s.total(), "shared");
  std::vector<uint64_t> mismatches(static_cast<size_t>(cfg.nodes), 0);
  uint64_t hash = Fnv1a(nullptr, 0);
  {
    ScopedSpan span(spans, "cluster_run");
    res.report = cluster.Run([&](core::NodeEnv& env) {
      const int me = env.node();
      uint64_t& bad = mismatches[static_cast<size_t>(me)];
      for (int e = 0; e < s.epochs; ++e) {
        // Every node read-modify-writes its strip of every page: 8 concurrent writers per page.
        for (int p = 0; p < s.pages; ++p) {
          const size_t base =
              static_cast<size_t>(p) * s.elems_per_page + static_cast<size_t>(me) * s.chunk;
          for (size_t j = 0; j < s.chunk; ++j) {
            const int64_t old = arr.Read(env, base + j);
            bad += old != e * s.Step(base + j, me) ? 1 : 0;
            arr.Write(env, base + j, old + s.Step(base + j, me));
          }
        }
        env.Barrier();
      }
      // Full read-back on every node, including the strips merged remotely.
      for (size_t i = 0; i < s.total(); ++i) {
        const int64_t v = arr.Read(env, i);
        bad += v != FsFinal(s, i, env.nodes()) ? 1 : 0;
        if (me == 0) {
          hash = Fnv1a(&v, sizeof(v), hash);
        }
      }
    });
  }
  {
    ScopedSpan span(spans, "validate");
    uint64_t total_bad = 0;
    for (uint64_t b : mismatches) {
      total_bad += b;
    }
    res.answer = Answer{static_cast<double>(total_bad), hash};
    res.failure = CheckRun(res.report);
    if (res.failure.empty()) {
      res.failure = Compare(res.answer, expect);
    }
  }
  res.host_s = static_cast<double>(CpuNowNs() - t0) * 1e-9;
  return res;
}

// Times an app entry point that bundles its own set-up; host_s therefore includes set-up.
template <typename RunFn, typename AnswerFn>
AttemptResult AppAttempt(const Answer& expect, SpanLog& spans, RunFn run_fn, AnswerFn answer_fn) {
  AttemptResult res;
  const int64_t t0 = CpuNowNs();
  apps::AppRun run;
  {
    ScopedSpan span(spans, "cluster_run");
    run = run_fn();
  }
  {
    ScopedSpan span(spans, "validate");
    res.answer = answer_fn(run);
    res.failure = CheckRun(run.report);
    if (res.failure.empty()) {
      res.failure = Compare(res.answer, expect);
    }
  }
  res.host_s = static_cast<double>(CpuNowNs() - t0) * 1e-9;
  res.report = std::move(run.report);
  return res;
}

void RunEmpty(core::Cluster& cluster) {
  const core::RunReport report = cluster.Run([](core::NodeEnv&) {});
  DFIL_CHECK(report.completed) << "empty set-up run did not complete";
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "jacobi64" || name == "quad8" || name == "fs8_diff_co";
}

Answer Reference(const WorkloadOptions& opt) {
  if (opt.name == "jacobi64") {
    const apps::AppRun seq = apps::RunJacobiSeq(JacobiSize(opt), JacobiConfig(opt));
    DFIL_CHECK(seq.report.completed) << "sequential Jacobi did not complete";
    return JacobiAnswer(seq);
  }
  if (opt.name == "quad8") {
    const apps::AppRun seq = apps::RunQuadratureSeq(QuadSize(opt), QuadConfig(opt));
    DFIL_CHECK(seq.report.completed) << "sequential quadrature did not complete";
    return Answer{seq.checksum, static_cast<uint64_t>(seq.output.at(1))};
  }
  return FsReference(opt);
}

double SetupOnce(const WorkloadOptions& opt, SpanLog& spans) {
  ScopedSpan span(spans, "setup");
  if (opt.name == "jacobi64") {
    // The same cluster and layout RunJacobiDf builds: two unpadded grids, strip-owned pages.
    const core::ClusterConfig cfg = JacobiConfig(opt);
    const apps::JacobiParams p = JacobiSize(opt);
    core::Cluster cluster(cfg);
    const size_t n = static_cast<size_t>(p.n);
    auto g0 = core::GlobalArray2D<double>::Alloc(cluster.layout(), n, n, false, "u");
    auto g1 = core::GlobalArray2D<double>::Alloc(cluster.layout(), n, n, false, "v");
    for (NodeId node = 0; node < cfg.nodes; ++node) {
      const apps::Strip s = apps::StripOf(p.n, node, cfg.nodes);
      if (s.size() > 0) {
        const size_t bytes = static_cast<size_t>(s.size()) * n * sizeof(double);
        cluster.layout().SetInitialOwner(g0.row_addr(static_cast<size_t>(s.lo)), bytes, node);
        cluster.layout().SetInitialOwner(g1.row_addr(static_cast<size_t>(s.lo)), bytes, node);
      }
    }
    RunEmpty(cluster);
  } else if (opt.name == "quad8") {
    core::Cluster cluster(QuadConfig(opt));
    RunEmpty(cluster);
  } else {
    const core::ClusterConfig cfg = FsConfig(opt);
    const FsShape s = FsShapeOf(opt, cfg);
    core::Cluster cluster(cfg);
    core::GlobalArray1D<int64_t>::Alloc(cluster.layout(), s.total(), "shared");
    RunEmpty(cluster);
  }
  return span.Close();
}

AttemptResult RunAttempt(const WorkloadOptions& opt, const Answer& expect, SpanLog& spans) {
  if (opt.name == "jacobi64") {
    return AppAttempt(
        expect, spans, [&] { return apps::RunJacobiDf(JacobiSize(opt), JacobiConfig(opt)); },
        JacobiAnswer);
  }
  if (opt.name == "quad8") {
    return AppAttempt(
        expect, spans, [&] { return apps::RunQuadratureDf(QuadSize(opt), QuadConfig(opt)); },
        [](const apps::AppRun& run) { return Answer{run.checksum, TotalEvals(run.output)}; });
  }
  return FsAttempt(opt, expect, spans);
}

}  // namespace perfbench
