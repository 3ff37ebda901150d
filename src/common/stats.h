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

// Each stats struct is declared from one field list: LIST(X) applies X to every counter name, in
// the order exports and printers walk them. DFIL_STATS_STRUCT_BODY(Type, LIST) expands a list into
// the struct's uint64_t counters (each starting at 0), a ForEach(f) that calls f(name, value) for
// every counter in list order, and an operator+= that adds another instance counter by counter.
// The metrics export, the fuzz driver's roll-ups and the tests go through those two, so a counter
// added to a list reaches all of them with no further edit.
#define DFIL_STATS_FIELD_(name) uint64_t name = 0;
#define DFIL_STATS_VISIT_(name) f(#name, name);
#define DFIL_STATS_ADD_(name) name += other.name;
#define DFIL_STATS_STRUCT_BODY(Type, LIST) \
  LIST(DFIL_STATS_FIELD_)                  \
  template <typename F>                    \
  void ForEach(F&& f) const {              \
    LIST(DFIL_STATS_VISIT_)                \
  }                                        \
  Type& operator+=(const Type& other) {    \
    LIST(DFIL_STATS_ADD_)                  \
    return *this;                          \
  }

// Machine-level message counters, kept cluster-wide by the simulated network (sim::Machine), used
// to verify protocol claims (e.g. implicit-invalidate sends no invalidation messages; the
// tournament barrier sends O(p) messages). Per-node Packet counters are net::PacketStats.
#define DFIL_MESSAGE_STATS(X)                                                                      \
  X(messages_sent)                                                                                 \
  X(messages_dropped)                                                                              \
  X(bytes_sent)                                                                                    \
  /* Adversarial fault injection (sim::FaultInjector): extra deliveries and deferrals it made. */  \
  X(messages_duplicated) /* injected duplicate deliveries */                                       \
  X(messages_delayed)    /* deliveries given injected extra latency */                             \
  X(stall_deferrals)     /* deliveries deferred past a receiver stall window */

struct MessageStats {
  DFIL_STATS_STRUCT_BODY(MessageStats, DFIL_MESSAGE_STATS)
};

// DSM activity counters.
#define DFIL_DSM_STATS(X)                                                                          \
  X(read_faults)                                                                                   \
  X(write_faults)                                                                                  \
  X(page_requests_served)                                                                          \
  X(invalidations_sent)                                                                            \
  X(invalidations_received)                                                                        \
  X(implicit_invalidations) /* read-only copies dropped at synchronization points */               \
  X(page_forwards)          /* requests forwarded along the owner chain */                         \
  X(mirage_deferrals)       /* page requests delayed by the Mirage hold window */                  \
  X(fetch_deferrals)        /* page requests deferred because the entry was in flux */             \
  X(use_deferrals)          /* serves deferred until a woken faulter touched the page */           \
  /* Prefetch / bulk-transfer pipeline. */                                                         \
  X(single_page_requests) /* single-page request messages sent (incl. redirect chases) */          \
  X(bulk_requests)        /* bulk page-run request messages sent */                                \
  X(bulk_pages_requested) /* pages covered by bulk requests */                                     \
  X(bulk_pages_served)    /* owner side: pages shipped inside bulk replies */                      \
  X(bulk_misses)          /* pages a bulk reply reported as not-owned-here */                      \
  X(prefetched_pages)     /* pages installed ahead of any demand access */                         \
  X(prefetch_wasted)      /* prefetched copies discarded without ever being read */                \
  /* Duplication/reordering defenses (exercised by the fault-injection harness). */                \
  X(grant_reserves)              /* lost ownership transfers re-served from the grant record */    \
  X(stale_invalidations_ignored) /* duplicated invalidations that arrived after re-acquisition */  \
  X(stale_transfer_dups_ignored) /* duplicated transfer requests for an already-answered fault */  \
  X(discarded_installs)          /* page installs dropped because invalidated in flight */         \
  /* Multiple-writer diff protocol (kDiff) and the per-page-group adapter. */                      \
  X(diff_twins_created)        /* pages twinned on first write to a diff copy */                   \
  X(diff_merges_sent)          /* kDiffMerge messages sent at synchronization points */            \
  X(diff_pages_flushed)        /* twinned pages encoded and dropped at sync points */              \
  X(diff_bytes_sent)           /* modified-run payload bytes inside sent diffs */                  \
  X(diff_merges_applied)       /* merge messages applied at this home node */                      \
  X(diff_pages_merged)         /* pages patched by applied merges */                               \
  X(diff_stale_merges_ignored) /* duplicate / old-epoch merges skipped (idempotence) */            \
  X(diff_bulk_refetches)       /* sync-batch flush sets re-fetched via bulk requests */            \
  X(adapter_switches_to_diff)  /* page groups this owner flipped implicit-inv -> diff */           \
  X(adapter_switches_to_ii)    /* page groups flipped back after calm epochs */                    \
  /* Rebalance page re-homing (load balancer, DESIGN.md §13). All zero with the balancer off. */   \
  X(pages_rehomed)          /* requester side: ownership transfers installed */                    \
  X(rehome_requests)        /* kRehomePages batches sent */                                        \
  X(rehome_pages_requested) /* pages covered by those batches */                                   \
  X(rehome_pages_served)    /* source side: transfers shipped inside rehome replies */             \
  X(rehome_misses)          /* requester side: pages the source could not release */               \
  X(rehome_misses_served)   /* source side: pages it reported back as misses */                    \
  /* Page-content payload bytes this node shipped: full pages inside data/bulk replies plus */     \
  /* diff run bytes. The false-sharing bench's headline metric: diff ships O(bytes changed) */     \
  /* where the single-writer protocols ship whole pages. */                                        \
  X(page_data_bytes)

struct DsmStats {
  DFIL_STATS_STRUCT_BODY(DsmStats, DFIL_DSM_STATS)

  // Page-request message count (the Figure-9 hot-path traffic this node generated).
  uint64_t page_request_messages() const { return single_page_requests + bulk_requests; }
};

// Filaments runtime counters.
#define DFIL_FILAMENT_STATS(X)                                                                     \
  X(filaments_created)                                                                             \
  X(filaments_run)                                                                                 \
  X(filaments_run_inlined) /* executed via the pattern-recognized strip path */                    \
  X(forks_local)                                                                                   \
  X(forks_pruned) /* forks converted to procedure calls */                                         \
  X(forks_sent)   /* forks shipped to another node (tree distribution) */                          \
  X(steals_attempted)                                                                              \
  X(steals_succeeded)                                                                              \
  X(steals_denied)                                                                                 \
  X(steals_attempted_on_us) /* steal requests this node served or denied */                        \
  X(pool_suspensions)                                                                              \
  X(server_threads_started)

struct FilamentStats {
  DFIL_STATS_STRUCT_BODY(FilamentStats, DFIL_FILAMENT_STATS)
};

}  // namespace dfil

#endif  // DFIL_COMMON_STATS_H_
