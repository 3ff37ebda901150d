// Cluster-wide configuration for a Distributed Filaments run.
#ifndef DFIL_CORE_CONFIG_H_
#define DFIL_CORE_CONFIG_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/load_balancer.h"
#include "src/dsm/dsm_node.h"
#include "src/net/packet.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault_plan.h"
#include "src/threads/context.h"

namespace dfil::dsm {
class CoherenceOracle;
}  // namespace dfil::dsm

namespace dfil::core {

enum class NetworkKind {
  kSharedEthernet,  // the paper's testbed: one 10 Mb/s medium
  kSwitched,        // ablation: full-duplex point-to-point
};

// Fork/join knobs, grouped (they travel together: every engine site reads several at once).
struct ForkJoinConfig {
  bool steal_enabled = true;  // receiver-initiated dynamic load balancing
  int prune_threshold = 4;    // local queue depth at which forks become procedure calls
};

// Fork/join stealing's fixed parameters.
inline constexpr int kStealMinSurplus = 1;  // a victim gives queued work whenever it has any
inline constexpr SimTime kStealRetry = Milliseconds(4.0);  // idle re-poll after a denial round
// Nodes may steal this long after start even if the distribution tree never reached them.
inline constexpr SimTime kStealGrace = Milliseconds(50.0);

// Server threads one node may have alive at once; reaching it aborts the run.
inline constexpr int kMaxServerThreads = 128;

struct ClusterConfig {
  int nodes = 8;
  sim::CostModel costs = sim::CostModel::SunIpcEthernet();
  NetworkKind network = NetworkKind::kSharedEthernet;
  uint64_t seed = 1;

  // Adversarial fault injection (drops, duplicates, delays, burst loss, node stalls) — the
  // single source of truth for network misbehaviour. The plan's seed defaults to a value derived
  // from this config's seed when left at 0, so (config, seed) alone replays a run. Read it
  // through EffectiveFaultPlan().
  sim::FaultPlan fault_plan;

  // When set, every DsmNode attaches to this oracle and the barrier champion sweeps it at each
  // globally quiescent point. Testing only (see dsm/coherence_oracle.h); benches leave it null.
  dsm::CoherenceOracle* coherence_oracle = nullptr;

  dsm::DsmConfig dsm;
  net::PacketConfig packet;
  // Per-destination frame coalescing with piggybacked acks and batched sync-point traffic
  // (DESIGN.md §11). Off by default; disabled runs are byte- and schedule-identical to builds
  // without the feature.
  net::CoalesceConfig coalesce;
  // DSM page size (log2). 12 = the 4 KB SunOS pages of the paper.
  size_t page_shift = 12;

  // Ready-queue placement for server threads woken by a page arrival: the tail placement drives
  // the iterative fault-frontloading optimization (paper §2.2); the front placement is the
  // fork/join anti-thrashing mechanism (paper §2.3).
  bool wake_at_front = false;

  // Server-thread context-switch implementation.
  threads::ContextBackend backend = threads::DefaultContextBackend();

  // Fork/join.
  ForkJoinConfig fj;

  // Epoch-driven load balancing of iterative filaments (DESIGN.md §13). Off by default;
  // disabled runs are byte- and schedule-identical to builds without the feature.
  LoadBalancerConfig balancer;

  // Reductions: disseminate via per-node reliable requests instead of one raw broadcast frame.
  // Required when the fault plan can drop frames (a lost broadcast would hang the barrier).
  bool reliable_broadcast = false;

  // Barrier/reduction algorithm (the paper's future-work item "experiments with different types
  // of barriers"). Tournament+broadcast is the paper's choice (O(p) messages, O(log p) latency).
  // Dissemination is O(p log p) messages but every node finishes after log p rounds with no
  // broadcast; NOTE: nodes combine in different orders, so floating-point sums may differ in the
  // last ulp across nodes — use it for barriers/min/max or bitwise-insensitive programs.
  // Central is the naive 2p-message master-combining baseline.
  enum class BarrierKind { kTournamentBroadcast, kDissemination, kCentral };
  BarrierKind barrier = BarrierKind::kTournamentBroadcast;

  // Record a virtual-time execution trace (pool sweeps, faults, reductions, fj tasks) for
  // export as Chrome trace-event JSON via RunReport::trace.
  bool trace_enabled = false;

  // Runaway guard for the virtual clock.
  SimTime max_virtual_time = Seconds(100000.0);

  // The fault plan with its seed defaulted from the run seed. Everything that injects faults
  // (Cluster::Run, Validate) reads this, never the raw field.
  sim::FaultPlan EffectiveFaultPlan() const;

  // Checks the configuration for contradictions and out-of-range knobs; returns one
  // human-readable line per problem (empty = valid). Cluster's constructor calls this and
  // refuses invalid configs, so errors surface at construction instead of as a mid-run hang.
  std::vector<std::string> Validate() const;

  // Canonical 64-bit FNV-1a digest of every schedule-affecting knob (node count, cost model,
  // network, seed, effective fault plan, DSM/packet/coalesce/fork-join/balancer parameters).
  // Two runs with equal digests executed the same configuration; unequal digests name a real
  // config difference. The one observability knob, trace_enabled, is deliberately EXCLUDED — it
  // never perturbs the schedule, so traced and untraced runs stay provably comparable. Stamped
  // into every metrics export as the "fingerprint.config" field; `dfil diff` refuses to diff runs
  // whose digests conceal a config change the user did not expect.
  uint64_t Digest() const;
  // Digest() as 16 lowercase hex digits (the JSON/provenance form).
  std::string DigestHex() const;
};

}  // namespace dfil::core

#endif  // DFIL_CORE_CONFIG_H_
