// Uniform metrics export: flattens a RunReport — the ad-hoc stats structs (DsmStats,
// MessageStats, FilamentStats, PacketStats), the time ledger, per-service message counts,
// per-page fault heat, and the live MetricsRegistry histograms — into one JSON document that
// tools/dfil_report (and the CI regression gate) consume.
//
// Schema (dfil-metrics-v2; v1 lacked provenance, wait_us/run_us/serve_us, final_clock_us and
// epochs — readers must accept both; fingerprint/pools are optional v2 extensions readers must
// tolerate missing):
//   {
//     "schema": "dfil-metrics-v2",
//     "label": "<run label>",
//     "pcp": "<protocol>", "nodes": N, "completed": 0|1, "makespan_us": ...,
//     "fingerprint": {"config": "<16-hex ClusterConfig::DigestHex>", "git": "<sha|unknown>",
//                     "seed": "3", "app": "jacobi"},         // comparability check (dfil_diff)
//     "provenance": {"seed": "3", "coalesce": "on", ...},   // config knobs + bench CLI overlay
//     "cluster": {"counters": {...},                        // cluster-wide totals
//                 "pools_by_fn": [                          // per-filament-fn rollup (all nodes);
//                   {"fn": 0, "run_us": ..., "blocked_us": ...,  //   fn -1 = residual (non-pool
//                    "serve_us": ..., "faults": N,          //   run + all serve time)
//                    "filaments_run": N, "migrated_in": N}, ...]},
//     "per_node": [
//       {"node": i,
//        "finished_at_us": ..., "final_clock_us": ...,
//        "time_us": {"work": ..., "filament_exec": ...,...},// Figure 10 row
//        "run_us": ..., "serve_us": ...,                    // the clock partition;
//        "wait_us": {"page_fault": ..., "barrier": ...,...},//   run+serve+sum(wait) ==
//        "wait_events": {"page_fault": N, ...},             //   final_clock_us
//        "pools": [                                         // per-pool rows; row pool=-1
//          {"pool": p, "fn": f, "run_us": ...,              //   is the residual, so
//           "blocked_us": ..., "serve_us": 0, "faults": N,  //   sum(run+serve) == run+serve
//           "filaments_run": N, "migrated_in": N}, ...],
//        "epochs": [{"epoch": 1, "barrier_wait_us": ..., "faults": ..., ...}, ...],
//        "counters": {"dsm.read_faults": ..., "net.sent.page_request": ..., ...},
//        "histograms": {"dsm.fault_wait_us": {...}, ...},
//        "page_heat": [[page, faults], ...]},                // non-zero entries only
//       ...]
//   }
// Counter naming: "<layer>.<counter>" with layers dsm/net/fil/sync/time (DESIGN.md
// §Observability).
#ifndef DFIL_CORE_METRICS_IO_H_
#define DFIL_CORE_METRICS_IO_H_

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace dfil::core {

// Cluster-wide totals used by the CI regression gate, also embedded under "cluster" in the JSON:
// "dsm.page_request_messages" (single + bulk page requests across all nodes) and
// "net.barrier_messages" (reduce_up + reduce_done sends across all nodes), among others.
// `extra_provenance` entries overlay the report's own (CLI-level fields win on key collision).
void WriteMetricsJson(const RunReport& report, const std::string& label, std::ostream& os,
                      const std::map<std::string, std::string>& extra_provenance = {});

// Writes METRICS_<label>.json into the current directory; returns the file name.
std::string WriteMetricsFile(const RunReport& report, const std::string& label,
                             const std::map<std::string, std::string>& extra_provenance = {});

// Flight-recorder dump (dfil-flight-v1): the last ~256 wait events per node and the machine's
// recent fault-injection decisions, captured in report.flight (at the first oracle violation when
// one fired, else at end of run), plus whatever failure context the caller supplies. This is the
// artifact the fuzz driver and the oracle write when a run goes wrong, and what
// `dfil_report flight` renders:
//   {"schema": "dfil-flight-v1", "label": ..., "at_violation": 0|1,
//    "violations": ["..."],
//    "nodes": [{"node": i, "events": [
//        {"kind": "page_fault", "detail": 12, "start_us": ..., "end_us": ...}, ...]}, ...],
//    "injections": [
//        {"what": "drop", "class": "request", "type": 3, "src": 0, "dst": 1, "at_us": ...}, ...]}
void WriteFlightJson(const RunReport& report, const std::string& label,
                     const std::vector<std::string>& violations, std::ostream& os);

// Writes FLIGHT_<label>.json into the current directory; returns the file name.
std::string WriteFlightFile(const RunReport& report, const std::string& label,
                            const std::vector<std::string>& violations);

}  // namespace dfil::core

#endif  // DFIL_CORE_METRICS_IO_H_
