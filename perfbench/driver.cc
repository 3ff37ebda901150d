// perfbench_driver: one benchmark step per process, so that an abort, a deadlock or a runaway
// run costs run.py one attempt instead of the whole benchmark.
//
//   perfbench_driver reference --workload W --seed N [--smoke]
//   perfbench_driver setup     --workload W --seed N [--smoke]
//   perfbench_driver attempt   --workload W --seed N --expect-checksum X --expect-digest D
//                              [--trace] [--smoke]
//   perfbench_driver probes    [--smoke]
//   perfbench_driver calibrate
//
// Each prints one JSON object on stdout, including the host spans it recorded. `calibrate` times
// the host-speed reference kernel (see calibrate.h).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "perfbench/calibrate.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/core/metrics_io.h"

namespace perfbench {
namespace {

using namespace dfil;

// Minimal JSON object writer; keys are plain identifiers chosen by this file.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) { return Raw(key, std::to_string(v)); }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Str(const std::string& key, const std::string& v) { return Raw(key, Quote(v)); }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

std::string SpansJson(const SpanLog& log) {
  std::string out = "[";
  for (const Span& s : log.spans()) {
    JsonObject o;
    o.Str("name", s.name).Int("start_ns", static_cast<uint64_t>(s.start_ns));
    o.Int("end_ns", static_cast<uint64_t>(s.end_ns)).Raw("parent", std::to_string(s.parent));
    out += (out.size() > 1 ? ", " : "") + o.str();
  }
  return out + "]";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Mean(SimTime total, int nodes) { return ToSeconds(total) / static_cast<double>(nodes); }

// Virtual-time and work counters of one run, summed over nodes. All are deterministic for a
// given workload and seed.
JsonObject Counters(const core::RunReport& report) {
  uint64_t faults = 0, page_data = 0, diff = 0, datagrams = 0, wire = 0, coalesced = 0;
  uint64_t retrans = 0, filaments = 0, steals = 0, stolen = 0;
  SimTime fault_wait = 0, barrier_wait = 0;
  for (const core::NodeReport& nr : report.nodes) {
    faults += nr.dsm.read_faults + nr.dsm.write_faults;
    page_data += nr.dsm.page_data_bytes;
    diff += nr.dsm.diff_bytes_sent;
    datagrams += nr.packet.datagrams_sent;
    wire += nr.packet.wire_bytes;
    coalesced += nr.packet.frames_coalesced;
    retrans += nr.packet.retransmissions + nr.packet.reply_retransmissions;
    filaments += nr.filaments.filaments_run;
    steals += nr.filaments.steals_attempted;
    stolen += nr.filaments.steals_succeeded;
    fault_wait += nr.breakdown.Get(TimeCategory::kDataTransfer);
    barrier_wait += nr.breakdown.Get(TimeCategory::kSyncDelay);
  }
  const int nodes = report.num_nodes > 0 ? report.num_nodes : 1;
  JsonObject c;
  c.Int("sim.events", report.events).Num("sim.medium_busy_s", ToSeconds(report.medium_busy));
  c.Int("dsm.faults", faults).Int("dsm.page_data_bytes", page_data).Int("dsm.diff_bytes", diff);
  c.Num("dsm.fault_wait_s", Mean(fault_wait, nodes));
  c.Int("net.datagrams", datagrams).Int("net.wire_bytes", wire);
  c.Int("net.frames_coalesced", coalesced).Int("net.retransmissions", retrans);
  c.Int("core.filaments_run", filaments).Int("core.steals_attempted", steals);
  c.Int("core.steals_succeeded", stolen).Num("core.barrier_wait_s", Mean(barrier_wait, nodes));
  return c;
}

struct Args {
  std::string command;
  WorkloadOptions opt;
  Answer expect;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver "
               "reference|setup|attempt|probes|calibrate "
               "[--workload W] [--seed N] [--expect-checksum X] [--expect-digest D] [--trace] "
               "[--smoke]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  if (argc < 2) {
    Usage("missing command");
  }
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.opt.name = value();
    } else if (flag == "--seed") {
      a.opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--expect-checksum") {
      a.expect.checksum = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--expect-digest") {
      a.expect.digest = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      a.opt.trace = true;
    } else if (flag == "--smoke") {
      a.opt.smoke = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.command != "probes" && a.command != "calibrate" && !KnownWorkload(a.opt.name)) {
    Usage(("unknown workload '" + a.opt.name + "'").c_str());
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  SpanLog spans;
  JsonObject out;
  if (args.command == "reference") {
    const Answer ref = Reference(args.opt);
    out.Num("checksum", ref.checksum).Int("digest", ref.digest);
  } else if (args.command == "setup") {
    out.Num("host_s", SetupOnce(args.opt, spans));
  } else if (args.command == "attempt") {
    const AttemptResult res = RunAttempt(args.opt, args.expect, spans);
    const double rss = PeakRssMb();
    out.Bool("ok", res.failure.empty()).Str("failure", res.failure);
    out.Num("host_s", res.host_s).Num("peak_rss_mb", rss);
    out.Int("makespan_ns", static_cast<uint64_t>(res.report.makespan));
    out.Num("makespan_s", res.report.seconds());
    out.Raw("counters", Counters(res.report).str());
    if (args.opt.trace) {
      ScopedSpan span(spans, "metrics_export");
      std::ostringstream metrics;
      core::WriteMetricsJson(res.report, args.opt.name, metrics);
      out.Int("metrics_bytes", metrics.str().size());
      out.Int("trace_events", res.report.trace ? res.report.trace->event_count() : 0);
    }
  } else if (args.command == "calibrate") {
    out.Num("pass_s", CalibrationPassSeconds(9));
  } else if (args.command == "probes") {
    JsonObject probes;
    for (const ProbeResult& p : RunProbes(args.opt.smoke, spans)) {
      probes.Num(p.name, p.ns_per_call);
    }
    out.Raw("probes", probes.str());
  } else {
    Usage(("unknown command " + args.command).c_str());
  }
  out.Raw("spans", SpansJson(spans));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
