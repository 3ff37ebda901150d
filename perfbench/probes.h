// Layer probes: tight host loops over one public call each, at a fixed size, reported as
// host nanoseconds per call (the median of several repetitions).
#ifndef DFIL_PERFBENCH_PROBES_H_
#define DFIL_PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

struct ProbeResult {
  std::string name;  // the per-layer metric name, e.g. "sim.event_queue_ns"
  double ns_per_call = 0;
};

// Runs every probe; `smoke` shrinks the loops for the benchmark's own tests.
std::vector<ProbeResult> RunProbes(bool smoke, SpanLog& spans);

}  // namespace perfbench

#endif  // DFIL_PERFBENCH_PROBES_H_
