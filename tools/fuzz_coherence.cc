// Standalone coherence fuzzer: sweeps (scenario, seed) cases through the fault-injection harness
// and the DSM coherence oracle (src/apps/fuzz_driver.h), or replays one failing case.
//
//   dfil_fuzz                          # default sweep: every scenario x seeds [0, 64)
//   dfil_fuzz --seeds 512              # wider sweep (the fuzz_nightly target)
//   dfil_fuzz --scenario reorder --seed 17          # replay one case
//   dfil_fuzz --scenario reorder --seed 17 --log    # ... with kDebug packet logging
//   dfil_fuzz --scenario reorder --seed 17 --trace out.json
//                                      # ... writing a Chrome trace of the faulted run
//                                      # (--trace with no path: dfil_fuzz_trace.json)
//   dfil_fuzz --list                   # print scenario names
//
// Exit status is the number of failing cases (capped at 125), so CI can gate on it directly.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/apps/fuzz_driver.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--scenario NAME [--seed S] [--log] [--trace [PATH]]] "
               "[--list]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t num_seeds = 64;
  std::string scenario;
  uint64_t seed = 0;
  bool have_seed = false;
  bool log_packets = false;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--list") {
      for (const std::string& s : dfil::apps::FuzzScenarios()) {
        std::printf("%s\n", s.c_str());
      }
      return 0;
    } else if (arg == "--seeds") {
      num_seeds = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--scenario") {
      scenario = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
      have_seed = true;
    } else if (arg == "--log") {
      log_packets = true;
    } else if (arg == "--trace") {
      // Optional path operand; bare --trace (or --trace followed by another flag) uses the
      // default file name.
      trace_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "dfil_fuzz_trace.json";
    } else {
      return Usage(argv[0]);
    }
  }

  if (!trace_path.empty() && !(have_seed && !scenario.empty())) {
    std::fprintf(stderr, "--trace needs a single replay case (--scenario NAME --seed S)\n");
    return Usage(argv[0]);
  }

  dfil::apps::FuzzOptions opts;
  opts.log_packets = log_packets;
  opts.capture_trace = !trace_path.empty();
  // Every failing case writes FLIGHT_<scenario>_seed<N>.json (render: dfil flight ...).
  opts.flight_dump_on_failure = true;

  int failures = 0;
  uint64_t cases = 0;
  auto run = [&](const std::string& sc, uint64_t sd) {
    const dfil::apps::FuzzResult r = dfil::apps::RunFuzzCase(sc, sd, opts);
    ++cases;
    if (!r.ok() || have_seed) {
      std::printf("%s\n", r.Summary().c_str());
      for (const std::string& v : r.violations) {
        std::printf("    violation: %s\n", v.c_str());
      }
    }
    if (have_seed) {
      std::printf("    checks=%llu quiescent_points=%llu makespan_ms=%.3f\n",
                  static_cast<unsigned long long>(r.oracle_checks),
                  static_cast<unsigned long long>(r.quiescent_points),
                  dfil::ToMilliseconds(r.makespan));
      // Every nonzero counter of the cluster-wide roll-ups, one per line.
      const auto print_under = [](const char* layer) {
        return [layer](const char* name, uint64_t value) {
          if (value != 0) {
            std::printf("    %s%s=%llu\n", layer, name, static_cast<unsigned long long>(value));
          }
        };
      };
      r.net.ForEach(print_under("net."));
      r.packet.ForEach(print_under("net."));
      r.dsm.ForEach(print_under("dsm."));
    }
    if (!trace_path.empty() && r.trace != nullptr) {
      std::ofstream out(trace_path);
      r.trace->WriteChromeTrace(out);
      std::printf("    wrote %s (%zu events) — load in Perfetto / chrome://tracing\n",
                  trace_path.c_str(), r.trace->event_count());
    }
    if (!r.ok()) {
      ++failures;
    }
  };

  if (!scenario.empty()) {
    if (have_seed) {
      run(scenario, seed);
    } else {
      for (uint64_t s = 0; s < num_seeds; ++s) {
        run(scenario, s);
      }
    }
  } else {
    for (const std::string& sc : dfil::apps::FuzzScenarios()) {
      for (uint64_t s = 0; s < num_seeds; ++s) {
        run(sc, s);
      }
    }
  }

  std::printf("%llu case(s), %d failure(s)\n", static_cast<unsigned long long>(cases), failures);
  return failures > 125 ? 125 : failures;
}
