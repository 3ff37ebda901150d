// The benchmark's workloads: fixed-size simulated runs driven through the public entry points.
//
//   jacobi64     apps::RunJacobiDf, 512x512, 20 iterations, implicit-invalidate, 3 pools,
//                64 nodes, switched network.
//   quad8        apps::RunQuadratureDf, default tolerance, stealing on, 8 nodes, shared Ethernet.
//   fs8_diff_co  the false-sharing write workload on core::Cluster + NodeEnv: 64 pages x 64
//                epochs, diff protocol with coalescing, 8 nodes, shared Ethernet.
//
// The seed becomes ClusterConfig::seed; no workload injects faults, so every virtual result
// repeats exactly. fs8_diff_co also draws the offset of its per-element increments from the seed.
#ifndef DFIL_PERFBENCH_WORKLOADS_H_
#define DFIL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/spans.h"
#include "src/core/dfil.h"

namespace perfbench {

struct WorkloadOptions {
  std::string name;
  uint64_t seed = 1;
  bool trace = false;  // ClusterConfig::trace_enabled
  bool smoke = false;  // tiny sizes, for the benchmark's own tests
};

// What a run computed, compared exactly against the reference.
struct Answer {
  double checksum = 0;  // the app's checksum; fs8_diff_co: reads that saw a wrong value
  uint64_t digest = 0;  // jacobi64: FNV-1a of the grid; quad8: f-evaluations; fs: of the array
};

struct AttemptResult {
  dfil::core::RunReport report;
  Answer answer;
  std::string failure;  // empty when the run completed with the reference answer
  double host_s = 0;    // host CPU seconds, Cluster construction (inside the app entry point
                        // for jacobi64 and quad8) to the validated result
};

bool KnownWorkload(const std::string& name);

// The reference answer, computed by the sequential program (or in closed form).
Answer Reference(const WorkloadOptions& opt);

// Builds the workload's Cluster and shared layout, generates its inputs and runs an empty node
// program, which constructs every node runtime; returns the host CPU seconds this took.
double SetupOnce(const WorkloadOptions& opt, SpanLog& spans);

// One simulated run, validated against `expect`.
AttemptResult RunAttempt(const WorkloadOptions& opt, const Answer& expect, SpanLog& spans);

}  // namespace perfbench

#endif  // DFIL_PERFBENCH_WORKLOADS_H_
