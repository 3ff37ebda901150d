#include "src/core/metrics_io.h"

#include <cstdio>
#include <fstream>
#include <map>

#include "src/net/packet.h"

namespace dfil::core {
namespace {

// Every stats-struct field becomes a "<layer>.<name>" counter in one per-node registry, so the
// JSON (and everything downstream: dfil_report, the CI gate) sees a single uniform namespace.
MetricsRegistry FlattenNode(const NodeReport& nr) {
  MetricsRegistry m = nr.metrics;  // live histograms + runtime counters first

  const DsmStats& d = nr.dsm;
  m.Set("dsm.read_faults", d.read_faults);
  m.Set("dsm.write_faults", d.write_faults);
  m.Set("dsm.page_requests_served", d.page_requests_served);
  m.Set("dsm.invalidations_sent", d.invalidations_sent);
  m.Set("dsm.invalidations_received", d.invalidations_received);
  m.Set("dsm.implicit_invalidations", d.implicit_invalidations);
  m.Set("dsm.page_forwards", d.page_forwards);
  m.Set("dsm.mirage_deferrals", d.mirage_deferrals);
  m.Set("dsm.fetch_deferrals", d.fetch_deferrals);
  m.Set("dsm.use_deferrals", d.use_deferrals);
  m.Set("dsm.single_page_requests", d.single_page_requests);
  m.Set("dsm.bulk_requests", d.bulk_requests);
  m.Set("dsm.bulk_pages_requested", d.bulk_pages_requested);
  m.Set("dsm.bulk_pages_served", d.bulk_pages_served);
  m.Set("dsm.bulk_misses", d.bulk_misses);
  m.Set("dsm.prefetched_pages", d.prefetched_pages);
  m.Set("dsm.prefetch_wasted", d.prefetch_wasted);
  m.Set("dsm.grant_reserves", d.grant_reserves);
  m.Set("dsm.stale_invalidations_ignored", d.stale_invalidations_ignored);
  m.Set("dsm.stale_transfer_dups_ignored", d.stale_transfer_dups_ignored);
  m.Set("dsm.discarded_installs", d.discarded_installs);
  m.Set("dsm.diff_twins_created", d.diff_twins_created);
  m.Set("dsm.diff_merges_sent", d.diff_merges_sent);
  m.Set("dsm.diff_pages_flushed", d.diff_pages_flushed);
  m.Set("dsm.diff_bytes_sent", d.diff_bytes_sent);
  m.Set("dsm.diff_merges_applied", d.diff_merges_applied);
  m.Set("dsm.diff_pages_merged", d.diff_pages_merged);
  m.Set("dsm.diff_stale_merges_ignored", d.diff_stale_merges_ignored);
  m.Set("dsm.diff_bulk_refetches", d.diff_bulk_refetches);
  m.Set("dsm.adapter_switches_to_diff", d.adapter_switches_to_diff);
  m.Set("dsm.adapter_switches_to_ii", d.adapter_switches_to_ii);
  m.Set("dsm.pages_rehomed", d.pages_rehomed);
  m.Set("dsm.rehome_requests", d.rehome_requests);
  m.Set("dsm.rehome_pages_requested", d.rehome_pages_requested);
  m.Set("dsm.rehome_pages_served", d.rehome_pages_served);
  m.Set("dsm.rehome_misses", d.rehome_misses);
  m.Set("dsm.rehome_misses_served", d.rehome_misses_served);
  m.Set("dsm.page_data_bytes", d.page_data_bytes);
  m.Set("dsm.page_request_messages", d.page_request_messages());

  const net::PacketStats& p = nr.packet;
  m.Set("net.requests_sent", p.requests_sent);
  m.Set("net.replies_sent", p.replies_sent);
  m.Set("net.acks_sent", p.acks_sent);
  m.Set("net.reply_retransmissions", p.reply_retransmissions);
  m.Set("net.retransmissions", p.retransmissions);
  m.Set("net.duplicate_requests", p.duplicate_requests);
  m.Set("net.duplicate_replies", p.duplicate_replies);
  m.Set("net.deferred_requests", p.deferred_requests);
  m.Set("net.raw_sent", p.raw_sent);
  m.Set("net.replies_first_serve", p.replies_first_serve);
  m.Set("net.replies_rebuilt", p.replies_rebuilt);
  m.Set("net.datagrams_sent", p.datagrams_sent);
  m.Set("net.wire_bytes", p.wire_bytes);
  m.Set("net.frames_coalesced", p.frames_coalesced);
  m.Set("net.replies_elided", p.replies_elided);
  m.Set("net.requests_canceled", p.requests_canceled);
  for (const auto& [svc, count] : nr.sent_by_service) {
    m.Set(std::string("net.sent.") + net::ServiceName(static_cast<net::Service>(svc)), count);
  }

  const FilamentStats& f = nr.filaments;
  m.Set("fil.filaments_created", f.filaments_created);
  m.Set("fil.filaments_run", f.filaments_run);
  m.Set("fil.filaments_run_inlined", f.filaments_run_inlined);
  m.Set("fil.forks_local", f.forks_local);
  m.Set("fil.forks_pruned", f.forks_pruned);
  m.Set("fil.forks_sent", f.forks_sent);
  m.Set("fil.steals_attempted", f.steals_attempted);
  m.Set("fil.steals_succeeded", f.steals_succeeded);
  m.Set("fil.steals_denied", f.steals_denied);
  m.Set("fil.steals_attempted_on_us", f.steals_attempted_on_us);
  m.Set("fil.pool_suspensions", f.pool_suspensions);
  m.Set("fil.server_threads_started", f.server_threads_started);

  return m;
}

// Cluster totals: per-node counters summed, plus the network-wide MessageStats and the two gate
// counters the CI workflow tracks.
std::map<std::string, uint64_t> ClusterCounters(const RunReport& report) {
  std::map<std::string, uint64_t> totals;
  for (const NodeReport& nr : report.nodes) {
    const MetricsRegistry flat = FlattenNode(nr);  // bound: counters() refers into it
    for (const auto& [name, value] : flat.counters()) {
      totals[name] += value;
    }
    totals["net.barrier_messages"] +=
        nr.sent_by_service.count(static_cast<uint16_t>(net::Service::kReduceUp)) != 0
            ? nr.sent_by_service.at(static_cast<uint16_t>(net::Service::kReduceUp))
            : 0;
    totals["net.barrier_messages"] +=
        nr.sent_by_service.count(static_cast<uint16_t>(net::Service::kReduceDone)) != 0
            ? nr.sent_by_service.at(static_cast<uint16_t>(net::Service::kReduceDone))
            : 0;
  }
  totals["net.messages_sent"] = report.net.messages_sent;
  totals["net.messages_dropped"] = report.net.messages_dropped;
  totals["net.bytes_sent"] = report.net.bytes_sent;
  totals["net.messages_duplicated"] = report.net.messages_duplicated;
  totals["net.messages_delayed"] = report.net.messages_delayed;
  totals["net.stall_deferrals"] = report.net.stall_deferrals;
  return totals;
}

// Cluster-wide per-filament-function rollup of the per-pool ledgers. Key is the deterministic fn
// id (first-registration order, identical across nodes for SPMD programs); fn -1 is the residual:
// non-pool run time plus all serve time (handlers serve the cluster, not any one pool).
struct FnRollup {
  SimTime run = 0;
  SimTime blocked = 0;
  SimTime serve = 0;
  uint64_t faults = 0;
  uint64_t filaments_run = 0;
  uint64_t migrated_in = 0;
};

std::map<int, FnRollup> RollupByFn(const RunReport& report) {
  std::map<int, FnRollup> by_fn;
  for (const NodeReport& nr : report.nodes) {
    for (const TimeLedger::PoolRow& lg : nr.breakdown.pools()) {
      if (!lg.booked) {
        continue;
      }
      FnRollup& r = by_fn[lg.fn];
      r.run += lg.run;
      r.blocked += lg.blocked;
      r.faults += lg.faults;
      r.filaments_run += lg.filaments_run;
      r.migrated_in += lg.migrated_in;
    }
    FnRollup& other = by_fn[-1];
    other.run += nr.breakdown.other_run();
    other.serve += nr.breakdown.serve_time();
  }
  return by_fn;
}

std::string ProvenanceOr(const std::map<std::string, std::string>& provenance,
                         const std::string& key, const std::string& fallback) {
  const auto it = provenance.find(key);
  return it != provenance.end() ? it->second : fallback;
}

}  // namespace

void WriteMetricsJson(const RunReport& report, const std::string& label, std::ostream& os,
                      const std::map<std::string, std::string>& extra_provenance) {
  std::map<std::string, std::string> provenance = report.provenance;
  for (const auto& [key, value] : extra_provenance) {
    provenance[key] = value;
  }
  os << "{\n  \"schema\": \"dfil-metrics-v2\",\n  \"label\": \"" << label << "\",\n  \"pcp\": \""
     << report.pcp << "\",\n  \"nodes\": " << report.num_nodes
     << ",\n  \"completed\": " << (report.completed ? 1 : 0)
     << ",\n  \"makespan_us\": " << ToMicroseconds(report.makespan)
     // Run fingerprint: the four fields dfil_diff checks before comparing two runs. "config" is
     // the canonical digest of every schedule-affecting ClusterConfig knob (config.cc); "app" is
     // the program identity (bench-supplied; distinct labels like jacobi_wi8/jacobi_ii8 share it).
     << ",\n  \"fingerprint\": {\"config\": \"" << ProvenanceOr(provenance, "config_digest", "")
     << "\", \"git\": \"" << ProvenanceOr(provenance, "git", "unknown") << "\", \"seed\": \""
     << ProvenanceOr(provenance, "seed", "") << "\", \"app\": \""
     << ProvenanceOr(provenance, "app", label) << "\"}"
     << ",\n  \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : provenance) {
    os << (first ? "\n" : ",\n") << "    \"" << key << "\": \"" << value << "\"";
    first = false;
  }
  os << "\n  },\n  \"cluster\": {\n"
     << "    \"counters\": {";
  first = true;
  for (const auto& [name, value] : ClusterCounters(report)) {
    os << (first ? "\n" : ",\n") << "      \"" << name << "\": " << value;
    first = false;
  }
  os << "\n    },\n    \"pools_by_fn\": [";
  first = true;
  for (const auto& [fn, r] : RollupByFn(report)) {
    os << (first ? "\n" : ",\n") << "      {\"fn\": " << fn
       << ", \"run_us\": " << ToMicroseconds(r.run)
       << ", \"blocked_us\": " << ToMicroseconds(r.blocked)
       << ", \"serve_us\": " << ToMicroseconds(r.serve) << ", \"faults\": " << r.faults
       << ", \"filaments_run\": " << r.filaments_run << ", \"migrated_in\": " << r.migrated_in
       << "}";
    first = false;
  }
  os << (first ? "]" : "\n    ]");
  os << "\n  },\n  \"per_node\": [";
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const NodeReport& nr = report.nodes[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\n      \"node\": " << nr.node
       << ",\n      \"finished_at_us\": " << ToMicroseconds(nr.finished_at)
       << ",\n      \"final_clock_us\": " << ToMicroseconds(nr.final_clock)
       << ",\n      \"time_us\": {";
    for (size_t c = 0; c < kNumTimeCategories; ++c) {
      const auto cat = static_cast<TimeCategory>(c);
      os << (c == 0 ? "" : ", ") << "\"" << TimeCategoryName(cat)
         << "\": " << ToMicroseconds(nr.breakdown.Get(cat));
    }
    os << "},\n      \"run_us\": " << ToMicroseconds(nr.breakdown.run_time())
       << ",\n      \"serve_us\": " << ToMicroseconds(nr.breakdown.serve_time())
       << ",\n      \"wait_us\": {";
    for (size_t k = 0; k < kNumWaitKinds; ++k) {
      const auto kind = static_cast<WaitKind>(k);
      os << (k == 0 ? "" : ", ") << "\"" << WaitKindName(kind)
         << "\": " << ToMicroseconds(nr.breakdown.wait_time(kind));
    }
    os << "},\n      \"wait_events\": {";
    for (size_t k = 0; k < kNumWaitKinds; ++k) {
      const auto kind = static_cast<WaitKind>(k);
      os << (k == 0 ? "" : ", ") << "\"" << WaitKindName(kind)
         << "\": " << nr.breakdown.event_count(kind);
    }
    os << "},\n      \"pools\": [";
    const std::vector<TimeLedger::PoolRow>& pools = nr.breakdown.pools();
    for (size_t pool = 0; pool < pools.size(); ++pool) {
      const TimeLedger::PoolRow& lg = pools[pool];
      if (!lg.booked) {
        continue;
      }
      os << "\n        {\"pool\": " << pool << ", \"fn\": " << lg.fn
         << ", \"run_us\": " << ToMicroseconds(lg.run)
         << ", \"blocked_us\": " << ToMicroseconds(lg.blocked)
         << ", \"serve_us\": 0, \"faults\": " << lg.faults
         << ", \"filaments_run\": " << lg.filaments_run << ", \"migrated_in\": " << lg.migrated_in
         << "},";
    }
    // Residual row: run time outside any pool (main/sync/balancer code) plus all handler serve
    // time. With it, sum(run_us)+sum(serve_us) over rows equals this node's run_us+serve_us.
    os << "\n        {\"pool\": -1, \"fn\": -1, \"run_us\": "
       << ToMicroseconds(nr.breakdown.other_run())
       << ", \"blocked_us\": 0, \"serve_us\": " << ToMicroseconds(nr.breakdown.serve_time())
       << ", \"faults\": 0, \"filaments_run\": 0, \"migrated_in\": 0}\n      ]";
    os << ",\n      \"epochs\": [";
    const auto& epochs = nr.metrics.epochs();
    for (size_t e = 0; e < epochs.size(); ++e) {
      os << (e == 0 ? "\n        {" : ",\n        {");
      bool first_col = true;
      for (const auto& [name, value] : epochs[e]) {
        os << (first_col ? "" : ", ") << "\"" << name << "\": " << value;
        first_col = false;
      }
      os << "}";
    }
    os << (epochs.empty() ? "]" : "\n      ]") << ",\n      \"metrics\": ";
    FlattenNode(nr).WriteJson(os, "      ");
    os << ",\n      \"page_heat\": [";
    bool first_page = true;
    for (size_t p = 0; p < nr.page_heat.size(); ++p) {
      if (nr.page_heat[p] == 0) {
        continue;
      }
      os << (first_page ? "" : ",") << "[" << p << "," << nr.page_heat[p] << "]";
      first_page = false;
    }
    os << "]\n    }";
  }
  os << "\n  ]\n}\n";
}

std::string WriteMetricsFile(const RunReport& report, const std::string& label,
                             const std::map<std::string, std::string>& extra_provenance) {
  const std::string name = "METRICS_" + label + ".json";
  std::ofstream out(name);
  WriteMetricsJson(report, label, out, extra_provenance);
  std::printf("wrote %s\n", name.c_str());
  return name;
}

namespace {

// Minimal JSON string escaping for oracle violation text (which embeds page/value dumps).
void WriteEscaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
      os << buf;
    } else {
      os << c;
    }
  }
}

const char* MsgClassLabel(sim::MsgClass klass) {
  switch (klass) {
    case sim::MsgClass::kRequest:
      return "request";
    case sim::MsgClass::kReply:
      return "reply";
    case sim::MsgClass::kRaw:
      return "raw";
    case sim::MsgClass::kAck:
      return "ack";
    case sim::MsgClass::kPacked:
      return "packed";
    case sim::MsgClass::kUnknown:
      break;
  }
  return "unknown";
}

}  // namespace

void WriteFlightJson(const RunReport& report, const std::string& label,
                     const std::vector<std::string>& violations, std::ostream& os) {
  const FlightSnapshot& flight = report.flight;
  os << "{\n  \"schema\": \"dfil-flight-v1\",\n  \"label\": \"";
  WriteEscaped(os, label);
  os << "\",\n  \"at_violation\": " << (flight.at_violation ? 1 : 0) << ",\n  \"violations\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    os << (i == 0 ? "\n    \"" : ",\n    \"");
    WriteEscaped(os, violations[i]);
    os << "\"";
  }
  os << (violations.empty() ? "]" : "\n  ]") << ",\n  \"nodes\": [";
  for (size_t n = 0; n < flight.node_events.size(); ++n) {
    os << (n == 0 ? "\n" : ",\n") << "    {\"node\": " << n << ", \"events\": [";
    const auto& events = flight.node_events[n];
    for (size_t i = 0; i < events.size(); ++i) {
      const WaitEvent& e = events[i];
      os << (i == 0 ? "\n" : ",\n") << "      {\"kind\": \"" << WaitKindName(e.kind)
         << "\", \"detail\": " << e.detail << ", \"start_us\": " << ToMicroseconds(e.start)
         << ", \"end_us\": " << ToMicroseconds(e.end) << "}";
    }
    os << (events.empty() ? "]}" : "\n    ]}");
  }
  os << (flight.node_events.empty() ? "]" : "\n  ]") << ",\n  \"injections\": [";
  for (size_t i = 0; i < flight.injections.size(); ++i) {
    const sim::Machine::InjectionNote& note = flight.injections[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"what\": \"" << note.what << "\", \"class\": \""
       << MsgClassLabel(note.klass) << "\", \"type\": " << note.type << ", \"src\": " << note.src
       << ", \"dst\": " << note.dst << ", \"at_us\": " << ToMicroseconds(note.at) << "}";
  }
  os << (flight.injections.empty() ? "]" : "\n  ]") << "\n}\n";
}

std::string WriteFlightFile(const RunReport& report, const std::string& label,
                            const std::vector<std::string>& violations) {
  const std::string name = "FLIGHT_" + label + ".json";
  std::ofstream out(name);
  WriteFlightJson(report, label, violations, out);
  std::printf("wrote %s\n", name.c_str());
  return name;
}

}  // namespace dfil::core
