// Lightweight counters used to reproduce the paper's overhead analyses.
//
// Figure 10 of the paper breaks per-node execution time into work, filament execution, data
// transfer, synchronization overhead, and synchronization delay. Every virtual-time charge in the
// runtime is tagged with one of these categories, and the node's time ledger (common/ledger.h)
// books it there so the same breakdown can be printed.
#ifndef DFIL_COMMON_STATS_H_
#define DFIL_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/common/types.h"

namespace dfil {

// Category of a virtual-time charge (paper Figure 10 rows, plus Idle for uncharged gaps).
enum class TimeCategory : uint8_t {
  kWork = 0,          // the computation proper
  kFilamentExec,      // creating/running filaments, descriptor traversal
  kDataTransfer,      // page faulting and page-request servicing
  kSyncOverhead,      // sending/receiving synchronization messages
  kSyncDelay,         // waiting at a barrier/join for other nodes
  kIdle,              // node had nothing to run (shows up as tail-end load imbalance)
  kNumCategories,
};

inline constexpr size_t kNumTimeCategories = static_cast<size_t>(TimeCategory::kNumCategories);

constexpr std::string_view TimeCategoryName(TimeCategory c) {
  switch (c) {
    case TimeCategory::kWork:
      return "work";
    case TimeCategory::kFilamentExec:
      return "filament_exec";
    case TimeCategory::kDataTransfer:
      return "data_transfer";
    case TimeCategory::kSyncOverhead:
      return "sync_overhead";
    case TimeCategory::kSyncDelay:
      return "sync_delay";
    case TimeCategory::kIdle:
      return "idle";
    default:
      return "?";
  }
}

// Message-traffic counters, used to verify protocol claims (e.g. implicit-invalidate sends no
// invalidation messages; the tournament barrier sends O(p) messages).
struct MessageStats {
  uint64_t messages_sent = 0;
  uint64_t messages_dropped = 0;
  uint64_t bytes_sent = 0;
  uint64_t retransmissions = 0;
  uint64_t deferred_requests = 0;  // requests ignored because the replier was in a critical section

  // Adversarial fault injection (sim::FaultInjector): extra deliveries and deferrals it created.
  uint64_t messages_duplicated = 0;  // injected duplicate deliveries
  uint64_t messages_delayed = 0;     // deliveries given injected extra latency
  uint64_t stall_deferrals = 0;      // deliveries deferred past a receiver stall window
};

// DSM activity counters.
struct DsmStats {
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t page_requests_served = 0;
  uint64_t invalidations_sent = 0;
  uint64_t invalidations_received = 0;
  uint64_t implicit_invalidations = 0;  // read-only copies dropped at synchronization points
  uint64_t page_forwards = 0;           // requests forwarded along the owner chain
  uint64_t mirage_deferrals = 0;        // page requests delayed by the Mirage hold window
  uint64_t fetch_deferrals = 0;         // page requests deferred because the entry was in flux
  uint64_t use_deferrals = 0;           // serves deferred until a woken faulter touched the page

  // Prefetch / bulk-transfer pipeline.
  uint64_t single_page_requests = 0;  // single-page request messages sent (incl. redirect chases)
  uint64_t bulk_requests = 0;         // bulk page-run request messages sent
  uint64_t bulk_pages_requested = 0;  // pages covered by bulk requests
  uint64_t bulk_pages_served = 0;     // owner side: pages shipped inside bulk replies
  uint64_t bulk_misses = 0;           // pages a bulk reply reported as not-owned-here
  uint64_t prefetched_pages = 0;      // pages installed ahead of any demand access
  uint64_t prefetch_wasted = 0;       // prefetched copies discarded without ever being read

  // Duplication/reordering defenses (exercised by the fault-injection harness).
  uint64_t grant_reserves = 0;               // lost ownership transfers re-served from the grant record
  uint64_t stale_invalidations_ignored = 0;  // duplicated invalidations that arrived after re-acquisition
  uint64_t stale_transfer_dups_ignored = 0;  // duplicated transfer requests for an already-answered fault
  uint64_t discarded_installs = 0;           // page installs dropped because invalidated in flight

  // Multiple-writer diff protocol (kDiff) and the per-page-group adapter.
  uint64_t diff_twins_created = 0;         // pages twinned on first write to a diff copy
  uint64_t diff_merges_sent = 0;           // kDiffMerge messages sent at synchronization points
  uint64_t diff_pages_flushed = 0;         // twinned pages encoded and dropped at sync points
  uint64_t diff_bytes_sent = 0;            // modified-run payload bytes inside sent diffs
  uint64_t diff_merges_applied = 0;        // merge messages applied at this home node
  uint64_t diff_pages_merged = 0;          // pages patched by applied merges
  uint64_t diff_stale_merges_ignored = 0;  // duplicate / old-epoch merges skipped (idempotence)
  uint64_t diff_bulk_refetches = 0;        // sync-batch flush sets re-fetched via bulk requests
  uint64_t adapter_switches_to_diff = 0;   // page groups this owner flipped implicit-inv -> diff
  uint64_t adapter_switches_to_ii = 0;     // page groups flipped back after calm epochs

  // Rebalance page re-homing (load balancer, DESIGN.md §13). All zero when the balancer is off.
  uint64_t pages_rehomed = 0;           // requester side: ownership transfers installed
  uint64_t rehome_requests = 0;         // kRehomePages batches sent
  uint64_t rehome_pages_requested = 0;  // pages covered by those batches
  uint64_t rehome_pages_served = 0;     // source side: transfers shipped inside rehome replies
  uint64_t rehome_misses = 0;           // requester side: pages the source could not release
  uint64_t rehome_misses_served = 0;    // source side: pages it reported back as misses

  // Page-content payload bytes this node shipped: full pages inside data/bulk replies plus diff
  // run bytes. The false-sharing bench's headline metric — diff ships O(bytes changed) where the
  // single-writer protocols ship whole pages.
  uint64_t page_data_bytes = 0;

  // Page-request message count (the Figure-9 hot-path traffic this node generated).
  uint64_t page_request_messages() const { return single_page_requests + bulk_requests; }
};

// Filaments runtime counters.
struct FilamentStats {
  uint64_t filaments_created = 0;
  uint64_t filaments_run = 0;
  uint64_t filaments_run_inlined = 0;  // executed via the pattern-recognized strip path
  uint64_t forks_local = 0;
  uint64_t forks_pruned = 0;  // forks converted to procedure calls
  uint64_t forks_sent = 0;    // forks shipped to another node (tree distribution)
  uint64_t steals_attempted = 0;
  uint64_t steals_succeeded = 0;
  uint64_t steals_denied = 0;
  uint64_t steals_attempted_on_us = 0;  // steal requests this node served or denied
  uint64_t pool_suspensions = 0;
  uint64_t server_threads_started = 0;
};

}  // namespace dfil

#endif  // DFIL_COMMON_STATS_H_
