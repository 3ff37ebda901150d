// Per-node engine of the multi-threaded distributed shared memory (paper §3).
//
// Each node holds a full replica of the shared region plus a page table. Access goes through
// Access(): when a page is missing or under-privileged the calling server thread is suspended on
// the page's waiter queue and a page request goes out through Packet; meanwhile the runtime runs
// other server threads, which is how DF overlaps communication with computation.
// Message handlers (page requests, replies, invalidations) run asynchronously — the SIGIO analog —
// and never block.
//
// Four page consistency protocols are implemented (paper §3 plus the diff extension), as
// PageProtocol strategies (page_protocol.h):
//  * kMigratory        — one copy; the page (and ownership) moves to any requester.
//  * kWriteInvalidate  — replicated read-only copies; a writer acquires ownership and explicitly
//                        invalidates every copy in the owner-maintained copyset before writing.
//  * kImplicitInvalidate — like write-invalidate, but read-only copies are implicitly discarded by
//                        their holders at every synchronization point, so no invalidation messages
//                        exist. Correct only for regular programs with a stable sharing pattern.
//  * kDiff             — multiple-writer: the home node serves writable copies, writers twin the
//                        page on first write and flush run-length-encoded twin/page deltas to the
//                        home at every synchronization point, which merges them. Same program
//                        restrictions as implicit-invalidate; falsely-shared pages cost O(bytes
//                        changed) instead of whole-page ping-pong. See DESIGN.md §10.
//
// Ownership is located by probable-owner forwarding: a request sent to a stale owner is answered
// with a redirect carrying a better hint, and the requester chases the chain (each transfer
// updates hints, so chains stay short). Ownership transfers are made idempotent against reply
// loss with a per-page grant record: the previous owner keeps the stale frame and re-serves the
// same transfer if the same requester asks again, so Packet never needs to buffer page data.
//
// Thrashing control (paper §2.3): an owner holds a freshly acquired page for a configurable
// Mirage-style time window, deferring requests that would take the page away (deferred requests
// are simply ignored; Packet retransmission recovers them).
#ifndef DFIL_DSM_DSM_NODE_H_
#define DFIL_DSM_DSM_NODE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/intrusive_list.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/dsm/layout.h"
#include "src/net/packet.h"
#include "src/threads/server_thread.h"

namespace dfil::dsm {

class CoherenceOracle;
class PageProtocol;
class MigratoryProtocol;
class WriteInvalidateProtocol;
class ImplicitInvalidateProtocol;
class DiffProtocol;

enum class Pcp : uint8_t { kMigratory, kWriteInvalidate, kImplicitInvalidate, kDiff };
inline constexpr size_t kNumPcps = 4;

// Stable protocol name used in metrics JSON and report tables.
constexpr const char* PcpName(Pcp pcp) {
  switch (pcp) {
    case Pcp::kMigratory:
      return "migratory";
    case Pcp::kWriteInvalidate:
      return "write_invalidate";
    case Pcp::kImplicitInvalidate:
      return "implicit_invalidate";
    case Pcp::kDiff:
      return "diff";
  }
  return "unknown";
}

enum class AccessMode : uint8_t { kRead = 0, kWrite = 1 };

// Prefetch and bulk-transfer sizes (DsmConfig::prefetch_detector, prefetch_hints).
inline constexpr int kPrefetchMinRun = 2;  // consecutive adjacent faults that arm the detector
inline constexpr int kPrefetchDegree = 4;  // pages the armed detector fetches ahead of the fault
inline constexpr int kMaxBulkPages = 16;   // cap on the page count of one bulk request

enum class PageState : uint8_t { kInvalid, kReadOnly, kReadWrite };

struct DsmConfig {
  Pcp pcp = Pcp::kWriteInvalidate;
  // Mirage hold window: a node keeps a freshly acquired page this long, deferring requests that
  // would take it away. Besides controlling fork/join thrashing (paper §2.3), the window is the
  // progress guarantee when pages ping-pong (Mirage [FP89]); 0 disables it.
  SimTime mirage_window = Milliseconds(2.0);

  // --- Strip-aware prefetching / bulk transfers (extension; both off = paper behaviour) ---
  // Sequential-fault detector: after kPrefetchMinRun consecutive demand read faults on adjacent
  // pages, the remainder of the run is fetched with one bulk request.
  bool prefetch_detector = false;
  // Strip hints: the pool engine re-issues last sweep's per-pool fault footprint as bulk
  // prefetches before running the pool's filaments.
  bool prefetch_hints = false;

  // --- Per-page-group protocol adaptation (extension; DESIGN.md §10) ---
  // Requires pcp == kImplicitInvalidate. Every page group starts under implicit-invalidate; the
  // group's owner flips it to the diff protocol when the group's per-epoch ping-pong write
  // traffic (write faults taken plus write copies/transfers served) reaches
  // adapt_to_diff_threshold, and flips it back after adapt_calm_epochs consecutive epochs with
  // no diff activity (hysteresis, so a group does not oscillate at the threshold). Decisions are
  // made at synchronization points and recorded as instants on the trace `adapt` track.
  bool adapt_protocols = false;
  uint32_t adapt_to_diff_threshold = 3;
  uint32_t adapt_calm_epochs = 2;
};

struct PageEntry {
  // The first three bytes are the ones the inline hit reads, as one word (HitsInline below).
  PageState state = PageState::kInvalid;
  bool pending_use = false;        // installed for blocked faulters not yet run (defer serves)
  bool prefetched_unused = false;  // installed by a prefetch and not yet touched by any access
  bool owner = false;
  bool fetching = false;           // a page request is outstanding
  AccessMode fetch_mode = AccessMode::kRead;
  int pending_invalidate_acks = 0;  // write-invalidate: acks awaited before the write proceeds
  NodeId probable_owner = 0;
  uint64_t copyset = 0;      // owner side (write-invalidate): nodes holding read-only copies
  SimTime hold_until = 0;    // Mirage window expiry
  NodeId granted_to = kNoNode;  // last ownership grant, for idempotent transfer re-replies
  uint64_t grant_copyset = 0;
  uint32_t grant_seq = 0;  // fault_seq of the request the grant answered (re-reply match key)
  uint32_t fetch_seq = 0;  // this node's fault counter for the page; stamped into page requests
  bool discard_install = false;    // the in-flight read copy was invalidated; drop it on arrival
  bool diff_copy = false;          // a multiple-writer (diff-protocol) copy; twinned on first write
  bool prefetch_wasted = false;    // sticky: the last prefetched copy died untouched (hint pruning)
  bool copy_listed = false;        // on DsmNode::copies_ (kept only under a sweeping protocol)
  uint64_t trace_id = 0;           // causal trace id of the in-flight fetch (0 = none)
  IntrusiveList<threads::ServerThread, &threads::ServerThread::queue_link> waiters;
};

// HitsInline reads state, pending_use and prefetched_unused as the low three bytes of one
// little-endian word, and tests the state by its value.
static_assert(std::endian::native == std::endian::little);
static_assert(offsetof(PageEntry, state) == 0 && offsetof(PageEntry, pending_use) == 1 &&
              offsetof(PageEntry, prefetched_unused) == 2 && sizeof(bool) == 1);
static_assert(static_cast<int>(PageState::kReadOnly) == 1 &&
              static_cast<int>(PageState::kReadWrite) == 2);
static_assert(sizeof(PageEntry) == 96);

// Whether DsmNode::Access answers an access to a page with this entry inline: the page is
// present for `mode` and owes no NotePageUsed bookkeeping (!pending_use && !prefetched_unused).
// One 32-bit load masked to the three bytes and one compare: a set flag lifts the word above
// kReadWrite, so a read hits when the word is kReadOnly or kReadWrite and a write when it is
// kReadWrite. The fourth byte (owner) is masked off.
inline bool HitsInline(const PageEntry& e, AccessMode mode) {
  uint32_t word;
  std::memcpy(&word, &e, sizeof word);
  word &= 0x00ff'ffffu;
  return mode == AccessMode::kRead ? word - 1 < 2
                                   : word == static_cast<uint32_t>(PageState::kReadWrite);
}

// The node a DsmNode runs on, as the DSM layer sees it: a Packet host that also schedules the
// server threads, since a fault suspends only the faulting thread (paper §3).
class DsmHost : public net::PacketHost {
 public:
  // The server thread currently executing on this node (nullptr in handler context).
  virtual threads::ServerThread* CurrentThread() = 0;
  // Makes `t` runnable again (ready-queue placement policy is the host's).
  virtual void Wake(threads::ServerThread* t) = 0;
  // The current thread is about to suspend on `page`; the engines start replacement server
  // threads here. May charge time and yield, and the fetch may complete meanwhile.
  virtual void BeforeFaultBlock(PageId page) = 0;
  // Marks the calling server thread blocked on (kind, detail) and suspends it. Returns when the
  // thread is woken. Must not charge.
  virtual void BlockCurrent(WaitKind kind, uint64_t detail) = 0;
  // The last outstanding fetch completed (synchronization points wait on this).
  virtual void FetchesDrained() = 0;
};

class DsmNode {
 public:
  // `host` owns this node and outlives it; its id is this node's. `tracer` (spans, flow arcs,
  // trace-id allocation) may be null: trace ids then stay 0 and all instrumentation is skipped.
  // `metrics` receives the dsm.fault_wait_us histogram. `barrier_parent` is this node's parent in
  // the reduction tree: kNoNode at the root, or under a barrier with no fixed parent
  // (dissemination).
  DsmNode(DsmHost* host, const GlobalLayout* layout, net::PacketEndpoint* packet,
          const sim::CostModel* costs, const DsmConfig& config, NodeId barrier_parent,
          NodeTracer* tracer, MetricsRegistry* metrics);
  ~DsmNode();

  DsmNode(const DsmNode&) = delete;
  DsmNode& operator=(const DsmNode&) = delete;

  // --- Access path (server-thread context) ---

  // Faults pages in as needed and returns a pointer to the bytes of [addr, addr+len), valid until
  // the next potential suspension point. Must be called from a server thread. The hit on one page
  // that owes no NotePageUsed bookkeeping is answered inline (HitsInline), standing in for the
  // free hit of an mprotect-checked load (DESIGN.md §2); every other access takes AccessSlow.
  std::byte* Access(GlobalAddr addr, size_t len, AccessMode mode) {
    DFIL_DCHECK(len > 0);
    DFIL_DCHECK(addr + len <= layout_->region_bytes());
    const GlobalAddr page = addr >> page_shift_;
    if (page == (addr + len - 1) >> page_shift_ && HitsInline(table_[page], mode)) [[likely]] {
      return replica_ + addr;
    }
    return AccessSlow(addr, len, mode);
  }

  // --- Prefetching (any context; never blocks) ---

  // Asynchronously fetches the page run [first, first+count) with bulk requests, skipping pages
  // that are present, already being fetched, grouped, or owned here. Only read prefetches are
  // supported: a write needs an ownership transfer, and prefetching a read copy first would turn
  // one transfer into two. No-op under the migratory PCP (every fetch moves ownership there).
  // Fetched pages land as replicated read-only copies, subject to the normal PCP rules —
  // write-invalidate tracks them in the owner's copyset, implicit-invalidate drops them at the
  // next synchronization point. Outstanding prefetches count as pending fetches, so they drain
  // at synchronization points like demand faults.
  void Prefetch(PageId first, int count, AccessMode mode);

  // Hint-pruning handshake: returns whether the last prefetched copy of `page` was discarded
  // without ever being accessed, and clears the flag.
  bool ConsumePrefetchWasted(PageId page);

  // --- Synchronization integration ---

  // Called by the runtime at every synchronization point (reduction/barrier). Under
  // implicit-invalidate this discards all read-only copies — no messages are sent. The sweep
  // walks copies_, the pages that may hold a copy, not the page table.
  void AtSyncPoint();

  // Called when the barrier's done signal arrives (coalescing sync-batch mode): cancels the
  // retransmission of the gated diff merge — the done broadcast proves the parent applied it.
  void OnBarrierDone();

  // Highest diff-flush epoch this node has applied from `src` (home side). The reduce tree uses
  // it to defer a child's arrival until the child's gated merge has landed.
  uint64_t DiffAppliedEpoch(NodeId src) const;

  // Epoch of the gated merge still awaiting the done signal (0 = none). Piggybacked on the
  // reduce-up message so the parent can order merge-apply before arrival.
  uint64_t PendingGatedMergeEpoch() const;

  // --- Rebalance page re-homing (load balancer; DESIGN.md §13) ---

  // Requests ownership of `pages` from `source` in one batched kRehomePages exchange per
  // kMaxBulkPages run, so a migrated strip's next epoch faults locally instead of chasing
  // ownership page by page. Pages that are owned here, already being fetched, grouped, or under
  // the diff protocol (which never transfers ownership) are skipped. Each re-homed page goes
  // through the standard single-page install path — grants, copyset invalidation rounds, the
  // Mirage window, and the coherence oracle all see an ordinary ownership transfer. Pages the
  // source cannot serve (not the owner, in flux, inside its Mirage window) come back as misses
  // and simply stay where they were: a later demand fault fetches them the normal way. The
  // requests count as pending fetches, so they drain before the next sync point.
  void RequestRehome(const std::vector<PageId>& pages, NodeId source);

  // Outstanding page fetches; a node delays at synchronization points until this reaches zero.
  int pending_fetches() const { return pending_fetches_; }

  // --- Introspection (tests, benches) ---

  // Registers this node with a cluster-global coherence oracle; subsequent protocol transitions
  // are reported through it. Pass nullptr to detach. Testing only; see coherence_oracle.h.
  void AttachOracle(CoherenceOracle* oracle);

  const PageEntry& page(PageId p) const { return table_[p]; }
  // Demand faults taken per page on this node (prefetches excluded) — the report's "hottest
  // pages" table.
  const std::vector<uint32_t>& fault_heat() const { return fault_heat_; }
  const DsmStats& stats() const { return stats_; }
  DsmStats& mutable_stats() { return stats_; }
  const GlobalLayout& layout() const { return *layout_; }
  std::byte* raw_replica(GlobalAddr addr) { return replica_ + addr; }
  Pcp pcp() const { return config_.pcp; }
  // The protocol currently governing `page`: the configured PCP, or the adapter's per-group
  // choice (implicit-invalidate or diff) when adaptation is enabled.
  Pcp page_pcp(PageId page) const;

 private:
  friend class PageProtocol;
  friend class MigratoryProtocol;
  friend class WriteInvalidateProtocol;
  friend class ImplicitInvalidateProtocol;
  friend class DiffProtocol;
  // Access() for a multi-page range, a miss, or a page that owes NotePageUsed bookkeeping: faults
  // the first missing page until the whole range is present, then marks every page used.
  std::byte* AccessSlow(GlobalAddr addr, size_t len, AccessMode mode);

  // Initiates (or joins) a fetch of `page` with `mode` and suspends the current thread.
  void FaultAndWait(PageId page, AccessMode mode);

  // Sends a page request for `page` towards `target`.
  void SendPageRequest(PageId page, AccessMode mode, NodeId target);

  // Write-invalidate: sends invalidations to every node in `targets`; when all acks are in,
  // completes the pending write fetch of `page`.
  void StartInvalidations(PageId page, uint64_t targets);

  // What the owner side does with a request from `src` for `page` (Judge).
  enum class Verdict : uint8_t {
    kReserveGrant,  // a retransmission of the fault the last transfer answered: re-serve it
    kDeferFetch,    // the entry is in transition
    kStaleDup,      // a delayed duplicate of a transfer answered before this node re-acquired
    kDeferUse,      // installed for blocked faulters, none of which has run yet
    kDeferMirage,   // inside the Mirage hold window
    kServe,         // owned and free to serve
    kRedirect,      // not the owner
  };
  // The serve decision the page, bulk and re-home services share, its guards in the order they
  // must run. It only reads the entry: each service maps the verdict to its own counters,
  // charges and reply.
  Verdict Judge(NodeId src, PageId page, AccessMode mode, uint32_t fault_seq) const;
  // Handles an incoming page request: writes the reply, or returns false to defer.
  bool ServePageRequest(NodeId src, net::WireReader body, net::ReplyWriter& reply);
  // Ignores a page request, which the requester's retransmission retries: counts it and marks
  // it on the trace as `what` and the page. Returns false, the deferring service's answer.
  bool IgnoreRequest(uint64_t& counter, const char* what, PageId page);
  // Re-serves the transfer that the grant record of `page` answered, from the stale frame.
  void ReserveGrant(NodeId src, PageId page, net::WireWriter& w);
  // Charges one serve of `pages` pages batched into one reply (none: no charge).
  void ChargeBatchedServe(size_t pages);
  bool ServeInvalidate(NodeId src, net::WireReader body, net::ReplyWriter& reply);
  void OnPageReply(PageId page, AccessMode mode, net::WireReader reply);

  // --- PageProtocol plumbing (policy helpers the strategies share; page_protocol.h) ---

  // Write-invalidate upgrade-in-place: invalidate the copyset, no page request.
  void StartOwnerUpgrade(PageId page);
  // Owner-side reply writers used by OnRemoteRequest; each appends a data reply to `w`.
  // ServeReadCopy ships an (optionally copyset-tracked) read copy with `extra_flags` folded into
  // the reply header; ServeTransfer demotes this owner and records the grant.
  void ServeReadCopy(NodeId src, PageId page, uint8_t extra_flags, net::WireWriter& w);
  void ServeTransfer(NodeId src, PageId page, uint32_t fault_seq, net::WireWriter& w);
  PageProtocol& proto(PageId page) const {
    return *protocols_[static_cast<size_t>(page_pcp(page))];
  }

  // --- Per-page-group adapter ---

  PageId GroupRoot(PageId page) const { return layout_->GroupPagesOf(page).front(); }
  // Counts one unit of ping-pong write traffic against `page`'s group this epoch.
  void NoteAdaptTraffic(PageId page);
  // Sync-point decision pass: flip groups between implicit-invalidate and diff with hysteresis.
  void AdapterAtSyncPoint();

  // --- Bulk transfers / prefetching ---

  // Sequential-fault detector (called on every demand read fault when enabled): arms on
  // kPrefetchMinRun adjacent faults and bulk-prefetches the run's continuation.
  void NoteFaultForDetector(PageId page, AccessMode mode);

  // Marks every eligible page of [first, first+count) as fetching and sends one bulk request per
  // probable-owner run. Pages that are present, fetching, grouped, or owned here are skipped.
  void StartBulkFetch(PageId first, int count);

  // Sends one kBulkPageRequest for [first, first+count) towards `target`.
  void SendBulkRequest(PageId first, uint16_t count, NodeId target);

  // Serves a bulk request from current state: ships the pages this node owns as read-only copies
  // and reports the rest as misses (idempotent; never defers, never transfers ownership).
  bool ServeBulkRequest(NodeId src, net::WireReader body, net::ReplyWriter& reply);
  void OnBulkReply(net::WireReader reply);

  // --- Rebalance page re-homing ---

  // Sends one kRehomePages request for `pages` (each already marked fetching) to `source`.
  void SendRehomeRequest(const std::vector<std::pair<PageId, uint32_t>>& pages, NodeId source);
  // Serves a re-home batch from current state: each page this node owns (and may release) ships
  // as an embedded ownership-transfer reply; everything else is a miss. Never defers — the whole
  // batch answers at once, and a per-page grant record keeps re-serves loss-safe.
  bool ServeRehomeRequest(NodeId src, net::WireReader body, net::ReplyWriter& reply);
  void OnRehomeReply(net::WireReader reply);

  // Completes one page of a bulk or re-home fetch (no group logic: both cover ungrouped pages
  // only). `diff_copy` installs the page as a multiple-writer copy (from the block's diff tag); a
  // page not `installed` is a miss, which wakes its waiters to re-fault and ignores `owner_hint`.
  void FinishBulkPage(PageId page, bool installed, NodeId owner_hint, bool diff_copy = false);
  // Ends one pending fetch (or acknowledged diff merge); the last one to end drains the node.
  void EndFetch() {
    DFIL_CHECK_GT(pending_fetches_, 0);
    if (--pending_fetches_ == 0) {
      host_->FetchesDrained();
    }
  }

  // Marks a present page as touched; discarding an untouched prefetched copy counts as waste.
  // Also retires the use-once hold: a page fetched for blocked faulters becomes servable again
  // the moment any local access lands on it. A no-op when both flags are clear, the only case
  // Access() answers inline.
  void NotePageUsed(PageEntry& e) {
    if (e.prefetched_unused) {
      e.prefetched_unused = false;
    }
    e.pending_use = false;
  }
  void NotePageDiscarded(PageEntry& e);

  // --- Copy list (implicit-invalidate and diff sync points) ---

  // Lists `page`, which just became a present copy this node does not own. FinishFetch and
  // FinishBulkPage are the only two installs of such a copy: every other transition to a present
  // state makes or keeps the page owned.
  void NoteCopy(PageId page) {
    PageEntry& e = table_[page];
    if (sweeps_copies_ && !e.copy_listed) {
      e.copy_listed = true;
      copies_.push_back(page);
    }
  }
  // The sync-point sweep of the implicit-invalidate and diff protocols: every non-owned,
  // read-only page not being fetched dies silently and loses its diff tag (which only a
  // diff-protocol serve sets, and the diff sweep runs first under adaptation). Pages that are no
  // longer non-owned copies leave the list.
  void DropReadCopies();
  // Drops one copy at a sync point: it dies silently and loses its diff tag.
  void DropCopy(PageEntry& e) {
    e.state = PageState::kInvalid;
    e.diff_copy = false;
    stats_.implicit_invalidations++;
    NotePageDiscarded(e);
  }
  // Debug check after a sweep: no page of the table is a non-owned, read-only, non-fetching copy.
  bool NoReadCopyLeft() const;

  // Completes a fetch: grants access, wakes waiters, decrements pending counter. `diff_copy`
  // tags the installed group as multiple-writer copies (from the reply's diff flag).
  void FinishFetch(PageId page, PageState new_state, bool ownership, bool diff_copy = false);

  // Appends a data reply for the whole group of `page` to `w`, optionally transferring
  // ownership. `from_grant` re-serves a lost transfer from the grant record instead of the live
  // copyset. The reply takes DataReplyBytes(page) bytes.
  void WriteDataReply(net::WireWriter& w, PageId page, bool transfer_ownership,
                      bool include_copyset, bool from_grant = false, uint8_t extra_flags = 0);
  size_t DataReplyBytes(PageId page) const;

  bool PagePresent(const PageEntry& e, AccessMode mode) const {
    if (mode == AccessMode::kRead) {
      return e.state != PageState::kInvalid;
    }
    return e.state == PageState::kReadWrite;
  }

  DsmHost* host_;
  NodeId self_;
  const GlobalLayout* layout_;
  net::PacketEndpoint* packet_;
  const sim::CostModel* costs_;
  DsmConfig config_;
  NodeId barrier_parent_;
  // layout_->page_shift(), read by the inline hit without the hop through layout_ (it sits in
  // what was padding, so the members after it keep their offsets).
  uint32_t page_shift_;
  NodeTracer* tracer_;
  MetricsRegistry* metrics_;
  // Sync-point traffic batching (DESIGN.md §11) rides on frame coalescing: diff flush sets are
  // re-fetched with bulk requests, bulk replies carry the diff tag, and the merge to
  // barrier_parent_ goes out gated (ack elided; it piggybacks on the reduce-up frame).
  bool sync_batch() const { return packet_->coalesce().enabled; }
  // tracer_ when it can record, nullptr otherwise (so hot paths skip name building).
  NodeTracer* tracer() const {
    return tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  }

  // The node's copy of the shared region: an anonymous mapping of layout_->region_bytes(), so
  // it is always zeroed on demand and only the pages this node touches become resident. (calloc
  // gave that only while glibc mapped large blocks: once a cluster freed its mapped replicas,
  // glibc raised its mmap threshold, and a later cluster's replicas came zero-filled off the
  // heap.) The destructor unmaps it.
  std::byte* replica_;
  std::byte* PageBytes(PageId page) {
    return replica_ + (static_cast<GlobalAddr>(page) << page_shift_);
  }
  std::vector<PageEntry> table_;
  std::vector<uint32_t> fault_heat_;
  int pending_fetches_ = 0;
  DsmStats stats_;
  CoherenceOracle* oracle_ = nullptr;

  // One strategy instance per protocol, indexed by Pcp; active_protocols_ are the ones whose
  // OnSyncPoint runs ({configured} normally, {diff, implicit-invalidate} under adaptation).
  std::array<std::unique_ptr<PageProtocol>, kNumPcps> protocols_;
  std::vector<PageProtocol*> active_protocols_;
  DiffProtocol* diff_ = nullptr;

  // Adapter state, per group root (ungrouped pages are singleton groups). Only groups that saw
  // ping-pong write traffic have an entry; absent means implicit-invalidate. std::map so the
  // sync-point decision pass iterates deterministically.
  struct AdaptState {
    Pcp mode = Pcp::kImplicitInvalidate;
    uint32_t traffic = 0;  // this epoch's write faults taken + write copies/transfers served
    uint32_t calm = 0;     // consecutive epochs with zero traffic while in diff mode
  };
  std::map<PageId, AdaptState> adapt_;

  // Sequential-fault detector state (last-fault window reduced to a run counter: the run is the
  // only pattern the bulk protocol exploits).
  PageId last_fault_page_ = kNoPage;
  int fault_run_len_ = 0;

  // ServeBulkRequest's page lists, reused across requests (a serve runs in handler context, so
  // it never interleaves with another).
  std::vector<PageId> bulk_hits_;
  std::vector<PageId> bulk_misses_;
  // Kept after the members the inline hit reads: placed between metrics_ and replica_, it made
  // the 64-node Jacobi run (perfbench jacobi64) about a tenth slower.
  HistogramRef fault_wait_us_{"dsm.fault_wait_us"};
  // Pages that may hold a copy this node does not own, each once (PageEntry::copy_listed), kept
  // only while a protocol that drops copies at sync points is active (implicit-invalidate, diff,
  // and both under adaptation). The sweep visits them in list order; it changes only counters
  // and per-page flags, so the order cannot move a schedule.
  bool sweeps_copies_;
  std::vector<PageId> copies_;
};

}  // namespace dfil::dsm

#endif  // DFIL_DSM_DSM_NODE_H_
