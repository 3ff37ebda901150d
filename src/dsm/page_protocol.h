// Page-consistency-protocol strategy interface (the PCP seam).
//
// DsmNode owns the mechanisms every protocol shares — the page table, the fault/waiter plumbing,
// probable-owner forwarding, grant records, the Mirage hold window, bulk transfers — and asks a
// PageProtocol for the per-protocol policy at the four decision points:
//
//   OnReadFault / OnWriteFault  what a fault does when no fetch is outstanding (demand-fetch the
//                               page, upgrade in place, or twin a writable copy locally);
//   OnRemoteRequest             what the owner replies once the generic serve guards have passed
//                               (a tracked or untracked read copy, or an ownership transfer);
//   OnSyncPoint                 what happens at a synchronization point (nothing, dropping read
//                               copies, or flushing diffs to the home nodes).
//
// One instance per protocol exists on every node; DsmNode dispatches per page through
// page_pcp(), so the per-page-group adapter can run implicit-invalidate and diff side by side.
// The protocols mutate DsmNode state through friendship — they are the policy half of one
// machine, split out so a new protocol (kDiff) plugs in without touching the fault dispatcher.
#ifndef DFIL_DSM_PAGE_PROTOCOL_H_
#define DFIL_DSM_PAGE_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/types.h"
#include "src/dsm/dsm_node.h"
#include "src/net/wire.h"

namespace dfil::dsm {

// Reply-header flag bits (the byte that used to be `grants_ownership`; bit 0 keeps its meaning,
// so the single-writer protocols' replies are byte-identical to the pre-seam wire format).
inline constexpr uint8_t kReplyFlagOwnership = 1;  // the reply transfers page ownership
inline constexpr uint8_t kReplyFlagDiff = 2;       // the served copy is a multiple-writer diff copy

// Trace track for the adapter's decision instants, next to the fault injector's
// sim::Machine::kInjectionTid = 1000000 `inject` lane.
inline constexpr uint64_t kAdaptTid = 1000001;

// Trace track for load-balancer events (plan emission, filament migration, page re-homing);
// every instant name on it starts with "rebalance" so report_lib can count them.
inline constexpr uint64_t kRebalanceTid = 1000002;

// Outcome of a fault entry point.
enum class FaultResult : uint8_t {
  kStarted,    // a fetch (or invalidation round) is now outstanding; the faulter must block
  kSatisfied,  // handled in place (diff twin promotion); the access can proceed immediately
};

class PageProtocol {
 public:
  explicit PageProtocol(DsmNode& node) : node_(node) {}
  virtual ~PageProtocol() = default;

  PageProtocol(const PageProtocol&) = delete;
  PageProtocol& operator=(const PageProtocol&) = delete;

  virtual Pcp pcp() const = 0;
  // Whether a request with `mode` takes the page away from the serving owner (drives the Mirage
  // hold window and the use-once guard in the generic serve path).
  virtual bool TransfersOwnership(AccessMode mode) const = 0;
  // Whether the owner tracks read copies in a copyset and ships it with ownership transfers.
  virtual bool TracksCopyset() const { return false; }

  // Fault entry points. Only called when the entry is not already fetching; the generic demand
  // fetch is the default policy.
  virtual FaultResult OnReadFault(PageId page) { return StartDemandFetch(page, AccessMode::kRead); }
  virtual FaultResult OnWriteFault(PageId page) {
    return StartDemandFetch(page, AccessMode::kWrite);
  }

  // Owner-side serve decision. The generic guards (grant re-serve, in-flux defer, stale-dup,
  // use-once hold, Mirage window) have already passed in DsmNode::Judge, and the serving service
  // (page or re-home) has charged for the serve; this appends the data reply to `reply` and
  // applies the protocol's state transition.
  virtual void OnRemoteRequest(NodeId src, PageId page, AccessMode mode, uint32_t fault_seq,
                               net::WireWriter& reply);

  // Requester side: an ownership-granting reply for a write fault just installed. Returns true
  // when the protocol started extra work (write-invalidate's invalidation round) and will call
  // FinishFetch itself; false lets the generic path finish the fetch immediately.
  virtual bool OnOwnershipInstall(PageId page, uint64_t copyset) {
    (void)page;
    (void)copyset;
    return false;
  }

  // Synchronization point (reduction/barrier), after outstanding fetches drained.
  virtual void OnSyncPoint() {}

 protected:
  // Generic demand fetch: marks the entry fetching and sends a page request at the probable
  // owner (the pre-seam fault path, verbatim).
  FaultResult StartDemandFetch(PageId page, AccessMode mode);
  PageEntry& entry(PageId page);

  DsmNode& node_;
};

// kMigratory — one copy; the page and its ownership move to any requester.
class MigratoryProtocol final : public PageProtocol {
 public:
  using PageProtocol::PageProtocol;
  Pcp pcp() const override { return Pcp::kMigratory; }
  bool TransfersOwnership(AccessMode) const override { return true; }
};

// kWriteInvalidate — replicated read copies tracked in the owner's copyset; a writer acquires
// ownership and explicitly invalidates every copy before writing.
class WriteInvalidateProtocol final : public PageProtocol {
 public:
  using PageProtocol::PageProtocol;
  Pcp pcp() const override { return Pcp::kWriteInvalidate; }
  bool TransfersOwnership(AccessMode mode) const override {
    return mode == AccessMode::kWrite;
  }
  bool TracksCopyset() const override { return true; }
  FaultResult OnWriteFault(PageId page) override;
  bool OnOwnershipInstall(PageId page, uint64_t copyset) override;
};

// kImplicitInvalidate — like write-invalidate, but read copies are untracked and die silently at
// every synchronization point, so no invalidation messages exist.
class ImplicitInvalidateProtocol final : public PageProtocol {
 public:
  using PageProtocol::PageProtocol;
  Pcp pcp() const override { return Pcp::kImplicitInvalidate; }
  bool TransfersOwnership(AccessMode mode) const override {
    return mode == AccessMode::kWrite;
  }
  void OnSyncPoint() override;
};

// kDiff — multiple-writer, barrier-merged diffs (TreadMarks-style twins at user level). Ownership
// never moves: the home node serves writable *copies*, each writer twins the page on first write,
// and at the next synchronization point every writer run-length-encodes its twin/page delta and
// sends it to the home, which merges the runs into its frame. N false-sharing writers of one page
// exchange O(bytes changed) instead of N full-page transfers. Copies die at every sync point like
// implicit-invalidate, so the merged frame is re-fetched next epoch — correct for the same
// barrier-structured programs implicit-invalidate requires.
class DiffProtocol final : public PageProtocol {
 public:
  using PageProtocol::PageProtocol;
  Pcp pcp() const override { return Pcp::kDiff; }
  bool TransfersOwnership(AccessMode) const override { return false; }
  FaultResult OnReadFault(PageId page) override;
  FaultResult OnWriteFault(PageId page) override;
  void OnRemoteRequest(NodeId src, PageId page, AccessMode mode, uint32_t fault_seq,
                       net::WireWriter& reply) override;
  void OnSyncPoint() override;

  // Twins every page of `page`'s group from the just-installed bytes and promotes the group to a
  // writable (non-owner) diff copy; used when a write fault was answered with a diff-tagged copy.
  void InstallWritableCopy(PageId page);

  // Home side: applies one kDiffMerge message (idempotently, keyed by (sender, epoch)). `gated`
  // (the kDiffMergeGated service) elides the ack: the barrier done broadcast stands in for it.
  // Its reply is an empty ack.
  void ServeMerge(NodeId src, net::WireReader body, bool gated = false);

  bool HasTwin(PageId page) const { return twins_.count(page) != 0; }

  // --- Coalescing sync-batch support (DsmNode::sync_batch) ---

  // Highest flush epoch applied from `src` (0 = none).
  uint64_t applied_epoch(NodeId src) const {
    const auto it = applied_epoch_.find(src);
    return it == applied_epoch_.end() ? 0 : it->second;
  }
  // Epoch of the gated merge still awaiting the barrier done signal (0 = none).
  uint64_t pending_gated_merge_epoch() const {
    return gated_merge_req_ != 0 ? gated_merge_epoch_ : 0;
  }
  // The done signal arrived: the parent has applied our gated merge, stop retransmitting it.
  void OnBarrierDone();

 private:
  // Copies the page into a fresh twin and promotes the entry to kReadWrite in place.
  void TwinInPlace(PageId page);
  // Encodes and sends all twins (one kDiffMerge per home node), then drops the flushed copies.
  void FlushTwins();
  // Sync-batch mode: a fault on a page this node flushed last epoch re-fetches the whole
  // per-home flush set with bulk requests (one datagram per contiguous run) instead of paging it
  // back one RTT-chained request at a time. One-shot per flush set. Returns true when the
  // faulted page itself is now fetching.
  bool MaybeBulkRefetch(PageId page);

  using TwinMap = std::map<PageId, std::vector<std::byte>>;
  // One changed page of a flush: its home and its runs, flush_runs_[first, first + count).
  struct FlushedPage {
    NodeId home;
    PageId page;
    size_t first;
    size_t count;
  };
  // A page flushed at the last sync point and the home it went to.
  struct FlushSetPage {
    PageId page;
    NodeId home;
  };

  // Twinned pages, ordered so flush batches and message contents are deterministic.
  TwinMap twins_;
  // Flushed twins kept for reuse: TwinInPlace re-keys one and copies the page into its buffer,
  // so a twin costs no allocation once a node has flushed as many as it holds.
  std::vector<TwinMap::node_type> spare_twins_;
  // FlushTwins' working lists, reused across flushes: every page's runs in one list, and the
  // changed pages sorted into per-home merges.
  std::vector<net::DiffRun> flush_runs_;
  std::vector<FlushedPage> flush_pages_;
  // This node's sync-point counter, stamped into outgoing merges. Barriers are collective, so
  // the counter advances in lockstep across nodes and names the epoch a merge belongs to.
  uint64_t flush_epoch_ = 0;
  // Home side: last epoch applied per sender; retransmissions and delayed duplicates of an
  // already-applied flush are skipped (the empty ack is still rebuilt).
  std::map<NodeId, uint64_t> applied_epoch_;
  // Sync-batch mode: pages flushed at the last sync point, in page order, each with its home —
  // the next epoch's expected re-fetch footprint. A home's pages form its flush set, which the
  // first fault into it consumes (erases).
  std::vector<FlushSetPage> last_flush_sets_;
  // The request id and epoch of the gated merge sent to the barrier parent (0 = none pending).
  uint64_t gated_merge_req_ = 0;
  uint64_t gated_merge_epoch_ = 0;
};

}  // namespace dfil::dsm

#endif  // DFIL_DSM_PAGE_PROTOCOL_H_
