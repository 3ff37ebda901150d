// The time ledger: one per node. NodeRuntime feeds it at one point per event, and every time view
// of a run is a projection of it.
//
// Paper Figure 10 splits a node's time into work, filament execution, data transfer,
// synchronization overhead and synchronization delay (plus idle). The same ledger also answers
// what each node waited FOR (which page, which barrier epoch, which service call, which RTO), which
// pool held the processor, and how the node's clock splits into three parts:
//
//   run   — time charged while a server thread held the processor
//   serve — time charged in handler (interrupt) context: serving pages, acks, reduce traffic
//   wait  — scheduler gaps, classified by the wake that ended them
//
// Feed points (nothing else writes the ledger):
//   * AddCharge — each Charge quantum, under its Figure-10 category and its context: handler
//     (kServe), the pool runner named by ServerThread::profile_pool, or kOtherRun.
//   * AddGap — each wake books the scheduler gap it ends under the woken thread's WaitKind;
//     Figure 10 books the same gap under CategoryOfWait(kind).
//   * AddTrailingGap — the end of run books the gap after the last wake as idle wait and keeps it
//     out of Figure 10 (no wake classifies it).
//   * AddBlocked — each blocked interval (a wake, a barrier, a retransmission timeout) counts one
//     event of its kind, enters the flight ring, and adds to the blocked time of the runner's pool.
//   * BindPoolFn / AddFault / AddFilamentsRun / AddMigratedIn — per-pool events.
//
// Since every clock advance is booked exactly once, two identities hold by construction, at
// SimTime resolution:
//   Total() + trailing_gap() == run_time() + serve_time() + wait_time() == the final clock
//   sum(pool run) + other_run() == run_time()
//
// The ledger never charges time, sends messages, or steers the runtime, so it cannot move a
// schedule. Its hot path is allocation-free except when a pool id is first booked. The ring is
// the flight recorder: the last kRingCapacity blocked intervals per node, dumped when the
// coherence oracle flags a violation or a fuzz case fails.
#ifndef DFIL_COMMON_LEDGER_H_
#define DFIL_COMMON_LEDGER_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace dfil {

// Why a thread (or the node's scheduler) was waiting. Every blocking site names one kind, plus
// kRetransmit (an RTO stall observed by the transport) and kIdle (a scheduler gap no wake ever
// claimed — e.g. the quiet tail after main finishes).
enum class WaitKind : uint8_t {
  kPageFault = 0,  // filament blocked on a page fault; detail = page id
  kFetchDrain,     // sync-point drain of outstanding fetches / diff merges
  kBarrier,        // reduction arrival-to-release; detail = barrier epoch
  kCall,           // blocking service call; detail = service number
  kChannel,        // explicit-message receive (CG programs)
  kJoin,           // fork/join: join wait, worker winddown, fj idle
  kSweep,          // pool engine waiting for a sweep to finish or for migrated filaments
  kRetransmit,     // request hit its RTO and was retransmitted; detail = service number
  kIdle,           // unclaimed scheduler gap
  kNumKinds,
};
inline constexpr size_t kNumWaitKinds = static_cast<size_t>(WaitKind::kNumKinds);

constexpr const char* WaitKindName(WaitKind k) {
  switch (k) {
    case WaitKind::kPageFault:
      return "page_fault";
    case WaitKind::kFetchDrain:
      return "fetch_drain";
    case WaitKind::kBarrier:
      return "barrier";
    case WaitKind::kCall:
      return "call";
    case WaitKind::kChannel:
      return "channel";
    case WaitKind::kJoin:
      return "join";
    case WaitKind::kSweep:
      return "sweep";
    case WaitKind::kRetransmit:
      return "retransmit";
    case WaitKind::kIdle:
      return "idle";
    case WaitKind::kNumKinds:
      break;
  }
  return "?";
}

// The Figure-10 category of a scheduler gap ended by waking a thread blocked for `k`.
constexpr TimeCategory CategoryOfWait(WaitKind k) {
  switch (k) {
    case WaitKind::kPageFault:
    case WaitKind::kChannel:
      return TimeCategory::kDataTransfer;
    case WaitKind::kFetchDrain:
    case WaitKind::kBarrier:
    case WaitKind::kCall:
    case WaitKind::kJoin:
    case WaitKind::kSweep:
      return TimeCategory::kSyncDelay;
    default:
      return TimeCategory::kIdle;
  }
}

// One blocked interval. `detail` is kind-specific (page id, epoch, service number); 0 when the
// kind carries no cause. kRetransmit events span [first send, RTO expiry] — the stall the timeout
// ended — and may overlap thread-level waits of the exchange that stalled.
struct WaitEvent {
  WaitKind kind = WaitKind::kIdle;
  uint64_t detail = 0;
  SimTime start = 0;
  SimTime end = 0;
};

class TimeLedger {
 public:
  static constexpr size_t kRingCapacity = 256;
  // Charge contexts other than a pool id (>= 0).
  static constexpr int kOtherRun = -1;  // a server thread outside any pool
  static constexpr int kServe = -2;     // handler context

  struct PoolRow {
    SimTime run = 0;            // thread-context Charge time while running this pool
    SimTime blocked = 0;        // this pool's runner blocked (page fault, mostly)
    uint64_t faults = 0;        // pool suspensions on page faults
    uint64_t filaments_run = 0;
    uint64_t migrated_in = 0;   // filaments integrated from a kFilamentMigrate batch
    int fn = -1;                // id of the pool's first filament function (-1 = none yet)
    bool booked = false;        // false: no event ever named this pool id
  };

  // --- Feed points ---
  void AddCharge(TimeCategory c, int context, SimTime t) {
    figure10_[static_cast<size_t>(c)] += t;
    if (context >= 0) {
      Pool(context).run += t;
    } else if (context == kOtherRun) {
      other_run_ += t;
    } else {
      serve_ += t;
    }
  }
  void AddGap(WaitKind kind, SimTime t) {
    figure10_[static_cast<size_t>(CategoryOfWait(kind))] += t;
    waits_[static_cast<size_t>(kind)] += t;
  }
  void AddTrailingGap(SimTime t) {
    trailing_gap_ += t;
    waits_[static_cast<size_t>(WaitKind::kIdle)] += t;
  }
  void AddBlocked(WaitKind kind, uint64_t detail, SimTime start, SimTime end,
                  int pool = kOtherRun) {
    counts_[static_cast<size_t>(kind)]++;
    ring_[seen_ % kRingCapacity] = WaitEvent{kind, detail, start, end};
    seen_++;
    if (pool >= 0) {
      Pool(pool).blocked += end - start;
    }
  }
  // Ties `pool` to its first filament's function. Function ids are assigned in order of first
  // binding on this node: raw pointers are ASLR-unstable across processes, and SPMD programs
  // bind functions in the same order on every node, so ids agree cluster-wide and across runs.
  void BindPoolFn(int pool, const void* fn) {
    PoolRow& row = Pool(pool);
    if (row.fn >= 0) {
      return;
    }
    const auto it = std::find(fns_.begin(), fns_.end(), fn);
    row.fn = static_cast<int>(it - fns_.begin());
    if (it == fns_.end()) {
      fns_.push_back(fn);
    }
  }
  void AddFault(int pool) { Pool(pool).faults++; }
  void AddFilamentsRun(int pool, uint64_t n) { Pool(pool).filaments_run += n; }
  void AddMigratedIn(int pool, uint64_t n) { Pool(pool).migrated_in += n; }

  // --- Figure 10: charged time plus wake-classified gaps, by category ---
  SimTime Get(TimeCategory c) const { return figure10_[static_cast<size_t>(c)]; }
  SimTime Total() const {
    SimTime sum = 0;
    for (const SimTime t : figure10_) {
      sum += t;
    }
    return sum;
  }

  // --- The clock partition ---
  SimTime run_time() const {
    SimTime run = other_run_;
    for (const PoolRow& row : pools_) {
      run += row.run;
    }
    return run;
  }
  SimTime serve_time() const { return serve_; }
  SimTime wait_time() const {
    SimTime total = 0;
    for (const SimTime t : waits_) {
      total += t;
    }
    return total;
  }
  SimTime wait_time(WaitKind kind) const { return waits_[static_cast<size_t>(kind)]; }
  // The idle wait booked at end of run, which Figure 10 leaves out.
  SimTime trailing_gap() const { return trailing_gap_; }

  // --- Pools: rows indexed by pool id (skip rows that are not booked); serve time is not split
  // per pool, because a handler serves the cluster, not the pool it happens to preempt ---
  const std::vector<PoolRow>& pools() const { return pools_; }
  SimTime other_run() const { return other_run_; }

  // --- Blocked intervals ---
  uint64_t event_count(WaitKind kind) const { return counts_[static_cast<size_t>(kind)]; }
  // The flight-recorder window: the last min(seen, kRingCapacity) events, oldest first.
  std::vector<WaitEvent> RecentEvents() const {
    std::vector<WaitEvent> out;
    const uint64_t n = seen_ < kRingCapacity ? seen_ : kRingCapacity;
    out.reserve(n);
    for (uint64_t i = seen_ - n; i < seen_; ++i) {
      out.push_back(ring_[i % kRingCapacity]);
    }
    return out;
  }

 private:
  PoolRow& Pool(int pool) {
    DFIL_DCHECK(pool >= 0) << "pool " << pool;
    if (static_cast<size_t>(pool) >= pools_.size()) {
      pools_.resize(static_cast<size_t>(pool) + 1);
    }
    PoolRow& row = pools_[static_cast<size_t>(pool)];
    row.booked = true;
    return row;
  }

  std::array<SimTime, kNumTimeCategories> figure10_{};
  SimTime serve_ = 0;
  SimTime other_run_ = 0;
  std::array<SimTime, kNumWaitKinds> waits_{};
  SimTime trailing_gap_ = 0;
  std::vector<PoolRow> pools_;
  std::vector<const void*> fns_;  // filament functions in order of first binding
  std::array<uint64_t, kNumWaitKinds> counts_{};
  uint64_t seen_ = 0;
  std::array<WaitEvent, kRingCapacity> ring_{};
};

}  // namespace dfil

#endif  // DFIL_COMMON_LEDGER_H_
