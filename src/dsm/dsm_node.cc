#include "src/dsm/dsm_node.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/dsm/coherence_oracle.h"
#include "src/dsm/page_protocol.h"

// Coherence-oracle hook: a null-pointer check when no oracle is attached.
#define DFIL_ORACLE(call)   \
  if (oracle_ == nullptr) { \
  } else /* NOLINT */       \
    oracle_->call

namespace dfil::dsm {
namespace {

constexpr uint8_t kReplyOk = 0;
constexpr uint8_t kReplyRedirect = 1;

struct RequestBody {
  PageId page;
  AccessMode mode;
  // Identifies the requester's fault, not just the requester: a grant record may only answer
  // retransmissions of the exact fault it served. A later fault by the same node that chases back
  // to a previous owner (ownership cycles under migratory) must NOT see the old grant's bytes.
  uint32_t fault_seq;
};

struct ReplyHeader {
  uint8_t status;
  NodeId owner_hint;  // redirect target, or the replying owner for data replies
  uint8_t flags;      // kReplyFlagOwnership | kReplyFlagDiff (bit 0 was `grants_ownership`, so
                      // single-writer replies are byte-identical to the pre-seam format)
  uint16_t npages;
};

struct PageBlockHeader {
  PageId page;
  uint64_t copyset;
};

// Bulk transfers: one request names a page run [first, first+count); the reply ships the pages
// the replier owns as read-only copies and lists the rest as misses, so it can be rebuilt
// idempotently from current state like every other page reply.
struct BulkRequestBody {
  PageId first;
  uint16_t count;
  AccessMode mode;
};

struct BulkReplyHeader {
  NodeId owner_hint;  // the replying node
  PageId first;       // first page of the requested run (names the flow arc on install)
  uint16_t npages;    // PageBlockHeader + page bytes follow
  uint16_t nmisses;   // then this many PageIds the replier does not own
};

// Rebalance page re-homing: a batch of per-page ownership requests, each carrying the
// requester's fault_seq so the grant machinery answers lost-reply retransmissions; the reply
// embeds one standard single-page transfer reply (WriteDataReply bytes) per served page and
// lists the rest as misses. Like bulk transfers it is rebuilt idempotently from current state
// and never defers — an unservable page is a miss, not a stall.
struct RehomeRequestHeader {
  uint16_t count;
};

struct RehomePageReq {
  PageId page;
  uint32_t fault_seq;
};

struct RehomeReplyHeader {
  uint16_t nserved;  // nserved x (PageId, uint32_t len, embedded reply payload) follow
  uint16_t nmisses;  // then nmisses x PageId
};

// Flow-arc name shared by the fault, serve and install sides ("p<page>" / "bulk p<first>").
// (append, not "literal" + std::string: GCC 12 reports a false -Wrestrict on the latter.)
std::string FlowName(PageId page) { return std::string("p").append(std::to_string(page)); }
std::string BulkFlowName(PageId first) {
  return std::string("bulk p").append(std::to_string(first));
}

uint64_t Bit(NodeId n) { return uint64_t{1} << n; }

}  // namespace

DsmNode::DsmNode(DsmHost* host, const GlobalLayout* layout, net::PacketEndpoint* packet,
                 const sim::CostModel* costs, const DsmConfig& config, NodeId barrier_parent,
                 NodeTracer* tracer, MetricsRegistry* metrics)
    : host_(host),
      self_(host->id()),
      layout_(layout),
      packet_(packet),
      costs_(costs),
      config_(config),
      barrier_parent_(barrier_parent),
      page_shift_(static_cast<uint32_t>(layout->page_shift())),
      tracer_(tracer),
      metrics_(metrics),
      replica_(static_cast<std::byte*>(mmap(nullptr, layout->region_bytes(),
                                            PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                                            -1, 0))),
      table_(layout->num_pages()),
      fault_heat_(layout->num_pages()),
      // Adaptation runs over an implicit-invalidate base (checked below).
      sweeps_copies_(config.pcp == Pcp::kImplicitInvalidate || config.pcp == Pcp::kDiff) {
  DFIL_CHECK(replica_ != MAP_FAILED) << "cannot map a " << layout->region_bytes()
                                     << "-byte replica";
  DFIL_CHECK(layout->sealed());
  DFIL_CHECK_LT(self_, 64) << "copysets are 64-bit masks";
  for (PageId p = 0; p < table_.size(); ++p) {
    PageEntry& e = table_[p];
    e.probable_owner = layout->InitialOwner(p);
    if (e.probable_owner == self_) {
      e.state = PageState::kReadWrite;
      e.owner = true;
    }
  }

  packet_->RegisterService(
      net::Service::kPageRequest,
      [this](NodeId src, net::WireReader body, net::ReplyWriter& reply) {
        return ServePageRequest(src, body, reply);
      },
      /*idempotent=*/true, TimeCategory::kDataTransfer);
  packet_->RegisterService(
      net::Service::kInvalidate,
      [this](NodeId src, net::WireReader body, net::ReplyWriter& reply) {
        return ServeInvalidate(src, body, reply);
      },
      /*idempotent=*/true, TimeCategory::kDataTransfer);
  packet_->RegisterService(
      net::Service::kBulkPageRequest,
      [this](NodeId src, net::WireReader body, net::ReplyWriter& reply) {
        return ServeBulkRequest(src, body, reply);
      },
      /*idempotent=*/true, TimeCategory::kDataTransfer);
  packet_->RegisterService(
      net::Service::kRehomePages,
      [this](NodeId src, net::WireReader body, net::ReplyWriter& reply) {
        return ServeRehomeRequest(src, body, reply);
      },
      /*idempotent=*/true, TimeCategory::kDataTransfer);
  // A merge's reply is an empty ack; the sender's barrier drain waits on it.
  packet_->RegisterService(
      net::Service::kDiffMerge,
      [this](NodeId src, net::WireReader body, net::ReplyWriter&) {
        diff_->ServeMerge(src, body, /*gated=*/false);
        return true;
      },
      /*idempotent=*/true, TimeCategory::kDataTransfer);
  // Gated variant (coalescing sync-batch mode): same apply path, but the ack is elided — the
  // barrier done broadcast stands in for it. A separate service number keeps the stale path
  // (which returns before parsing any page) able to tell the two apart.
  packet_->RegisterService(
      net::Service::kDiffMergeGated,
      [this](NodeId src, net::WireReader body, net::ReplyWriter&) {
        diff_->ServeMerge(src, body, /*gated=*/true);
        return true;
      },
      /*idempotent=*/true, TimeCategory::kDataTransfer);

  protocols_[static_cast<size_t>(Pcp::kMigratory)] = std::make_unique<MigratoryProtocol>(*this);
  protocols_[static_cast<size_t>(Pcp::kWriteInvalidate)] =
      std::make_unique<WriteInvalidateProtocol>(*this);
  protocols_[static_cast<size_t>(Pcp::kImplicitInvalidate)] =
      std::make_unique<ImplicitInvalidateProtocol>(*this);
  auto diff = std::make_unique<DiffProtocol>(*this);
  diff_ = diff.get();
  protocols_[static_cast<size_t>(Pcp::kDiff)] = std::move(diff);
  if (config_.adapt_protocols) {
    DFIL_CHECK(config_.pcp == Pcp::kImplicitInvalidate)
        << "protocol adaptation switches groups between implicit-invalidate and diff; the base "
           "PCP must be implicit-invalidate";
    // The diff flush runs first so twinned pages are encoded before any copy sweep.
    active_protocols_ = {diff_, protocols_[static_cast<size_t>(Pcp::kImplicitInvalidate)].get()};
  } else {
    active_protocols_ = {protocols_[static_cast<size_t>(config_.pcp)].get()};
  }
}

DsmNode::~DsmNode() { munmap(replica_, layout_->region_bytes()); }

Pcp DsmNode::page_pcp(PageId page) const {
  if (!config_.adapt_protocols) {
    return config_.pcp;
  }
  const auto it = adapt_.find(GroupRoot(page));
  return it == adapt_.end() ? Pcp::kImplicitInvalidate : it->second.mode;
}

void DsmNode::AttachOracle(CoherenceOracle* oracle) {
  oracle_ = oracle;
  if (oracle_ != nullptr) {
    oracle_->AttachNode(self_, this);
  }
}

std::byte* DsmNode::AccessSlow(GlobalAddr addr, size_t len, AccessMode mode) {
  for (;;) {
    const PageId first = layout_->PageOf(addr);
    const PageId last = layout_->PageOf(addr + len - 1);
    PageId missing = kNoPage;
    for (PageId p = first; p <= last; ++p) {
      if (!PagePresent(table_[p], mode)) {
        missing = p;
        break;
      }
    }
    if (missing == kNoPage) {
      for (PageId p = first; p <= last; ++p) {
        NotePageUsed(table_[p]);
      }
      return replica_ + addr;
    }
    FaultAndWait(missing, mode);
  }
}

void DsmNode::FaultAndWait(PageId page, AccessMode mode) {
  PageEntry& e = table_[page];
  if (mode == AccessMode::kRead) {
    stats_.read_faults++;
  } else {
    stats_.write_faults++;
  }
  fault_heat_[page]++;
  if (config_.adapt_protocols && mode == AccessMode::kWrite && !e.owner) {
    NoteAdaptTraffic(page);
  }
  host_->Charge(TimeCategory::kDataTransfer, costs_->fault_handle);
  DFIL_LOG(kDebug, "dsm") << "node " << self_ << " " << (mode == AccessMode::kRead ? "r" : "w")
                          << "-fault page " << page << " @" << ToMilliseconds(host_->Clock())
                          << "ms hint=" << e.probable_owner << (e.fetching ? " (in-flight)" : "");
  if (config_.prefetch_detector) {
    NoteFaultForDetector(page, mode);
  }
  if (PagePresent(e, mode)) {
    // The fault-handling charge can dispatch pending events (e.g. the last invalidation ack of an
    // in-flight upgrade), completing the fetch before we pick a branch below. Acting on the stale
    // pre-charge view would re-request a page we already hold — from ourselves.
    return;
  }

  bool initiated = false;
  if (!e.fetching) {
    // The protocol decides what a fresh fault does: demand-fetch through the owner directory
    // (default), upgrade in place (write-invalidate owners), or twin the copy locally (diff).
    const FaultResult r = mode == AccessMode::kWrite ? proto(page).OnWriteFault(page)
                                                     : proto(page).OnReadFault(page);
    if (r == FaultResult::kSatisfied) {
      return;  // handled without a fetch; the access proceeds immediately
    }
    initiated = true;
  }
  // If a fetch is already outstanding (even a weaker read fetch), simply wait: Access() rechecks
  // on wake-up and re-faults with the stronger mode if still insufficient.

  // Let the engines start a replacement server thread BEFORE this thread is queued as a waiter:
  // the spawn charges time and may yield, and the page could arrive during that yield — waking a
  // queued-but-still-running thread would corrupt the scheduler.
  host_->BeforeFaultBlock(page);
  if (PagePresent(e, mode) || !e.fetching) {
    // Resolved (or the fetch settled with a weaker mode) while the engines reacted; Access()
    // re-checks and re-faults as needed.
    return;
  }
  threads::ServerThread* t = host_->CurrentThread();
  DFIL_CHECK(t != nullptr) << "DSM fault outside a server thread";
  // The blocked interval of the fault, from suspension to wake-up.
  const SimTime blocked_at = host_->Clock();
  TraceSpan fault_span(tracer_, "dsm", "fault p", page);
  if (initiated && tracer() != nullptr && e.trace_id != 0) {
    // Opens the flow arc inside the fault span (only the thread that started the fetch; later
    // waiters join the same fetch without emitting a second 's').
    tracer()->Flow(kFlowStart, "dsm", FlowName(page), e.trace_id);
  }
  e.waiters.PushBack(t);
  host_->BlockCurrent(WaitKind::kPageFault, page);
  fault_wait_us_.In(*metrics_).Record(ToMicroseconds(host_->Clock() - blocked_at));
}

void DsmNode::StartOwnerUpgrade(PageId page) {
  // We own the page but downgraded to read-only for other readers; invalidate their copies and
  // upgrade in place — no page request needed.
  PageEntry& e = table_[page];
  e.fetching = true;
  e.fetch_mode = AccessMode::kWrite;
  ++pending_fetches_;
  e.trace_id = tracer_ != nullptr ? tracer_->NewTraceId() : 0;
  const uint64_t targets = e.copyset & ~Bit(self_);
  TraceContext trace_ctx(tracer_, e.trace_id);
  StartInvalidations(page, targets);
}

void DsmNode::StartInvalidations(PageId page, uint64_t targets) {
  PageEntry& e = table_[page];
  e.pending_invalidate_acks = std::popcount(targets);
  if (e.pending_invalidate_acks == 0) {
    FinishFetch(page, PageState::kReadWrite, /*ownership=*/true);
    return;
  }
  for (NodeId n = 0; n < 64; ++n) {
    if ((targets & Bit(n)) == 0) {
      continue;
    }
    net::WireWriter w;
    w.Put(page);
    stats_.invalidations_sent++;
    packet_->SendRequest(
        n, net::Service::kInvalidate, w.Take(),
        [this, page](net::WireReader) {
          PageEntry& entry = table_[page];
          DFIL_CHECK_GT(entry.pending_invalidate_acks, 0);
          if (--entry.pending_invalidate_acks == 0) {
            FinishFetch(page, PageState::kReadWrite, /*ownership=*/true);
          }
        },
        TimeCategory::kDataTransfer);
  }
}

void DsmNode::SendPageRequest(PageId page, AccessMode mode, NodeId target) {
  DFIL_CHECK_NE(target, self_) << "owner hint points at self on a fault (page " << page << ")";
  stats_.single_page_requests++;
  net::WireWriter w;
  w.Put(RequestBody{page, mode, table_[page].fetch_seq});
  packet_->SendRequest(
      target, net::Service::kPageRequest, w.Take(),
      [this, page, mode](net::WireReader reply) { OnPageReply(page, mode, reply); },
      TimeCategory::kDataTransfer);
}

bool DsmNode::ServePageRequest(NodeId src, net::WireReader body, net::ReplyWriter& reply) {
  const auto req = body.Get<RequestBody>();
  PageEntry& e = table_[req.page];
  // The serve span plus a flow step tie this handler into the faulting node's arc (the packet
  // layer put the request's trace id in our current context).
  TraceSpan serve_span(tracer_, "dsm", "serve p", req.page);
  if (NodeTracer* tr = tracer(); tr != nullptr) {
    tr->Flow(kFlowStep, "dsm", FlowName(req.page), tr->current());
  }

  if (e.granted_to == src && e.grant_seq == req.fault_seq && e.state == PageState::kInvalid &&
      !e.owner) {
    // A retransmission of the exact fault our last transfer answered: the requester never saw the
    // reply (it was lost), so re-serve the identical transfer from the stale frame. This keeps
    // page replies unbuffered yet loss-safe. Two subtleties:
    //  - it must come BEFORE the in-transition defer: after granting we may re-fault on this page
    //    ourselves, and our own fetch then chases a hint chain that runs through the requester —
    //    deferring here while the requester defers us (both mid-fetch) deadlocks the pair;
    //  - it must match the fault (grant_seq), not just the node: under migratory, ownership
    //    cycles, and a LATER fault by the same node can chase back to us mid-refetch — serving
    //    the old grant's bytes to that fault would hand out stale data (and a second owner).
    host_->Charge(TimeCategory::kDataTransfer, costs_->page_service);
    stats_.page_requests_served++;
    stats_.grant_reserves++;
    DFIL_ORACLE(OnServeGrantReserve(self_, src, req.page));
    WriteDataReply(reply.Body(DataReplyBytes(req.page)), req.page, /*transfer_ownership=*/true,
                   /*include_copyset=*/proto(req.page).TracksCopyset(), /*from_grant=*/true);
    return true;
  }

  if (e.fetching) {
    // This page table entry is in transition: either we are mid-upgrade (invalidation acks
    // outstanding — serving a transfer now would create a second owner), or we are fetching and
    // our chase hint may point right back at the requester. Ignore the request; the requester's
    // retransmission retries once our fetch settles (the paper's deferred-servicing pattern).
    stats_.fetch_deferrals++;
    if (NodeTracer* tr = tracer(); tr != nullptr) {
      tr->Instant("dsm", "defer_fetch " + FlowName(req.page));
    }
    return false;
  }

  if (e.owner) {
    if (e.granted_to == src && e.grant_seq == req.fault_seq) {
      // A delayed duplicate of a transfer request we already answered, arriving after we
      // re-acquired the page. The requester is long done with that fault (had it still been
      // waiting, ownership could never have chased back through it to us), so serving a fresh
      // transfer here would demote us and orphan the page: the requester drops the unexpected
      // reply and nobody is left owning it. Grant records persist across re-acquisition
      // (FinishFetch keeps them) precisely so this duplicate is recognizable.
      stats_.stale_transfer_dups_ignored++;
      if (NodeTracer* tr = tracer(); tr != nullptr) {
        tr->Instant("dsm", "stale_dup " + FlowName(req.page));
      }
      return false;
    }
    if (e.pending_use) {
      // The page just arrived for our own blocked faulters and none has run yet. Serving now —
      // even a read copy, which under write-invalidate demotes us and turns the blocked write
      // into an upgrade round — restarts their fault from scratch; with service latency above
      // the Mirage window that regresses into a livelock where no writer ever completes an
      // access. Ignore the request; the retransmission arrives after the waiters have run.
      stats_.use_deferrals++;
      if (NodeTracer* tr = tracer(); tr != nullptr) {
        tr->Instant("dsm", "defer_use " + FlowName(req.page));
      }
      return false;
    }
    if (proto(req.page).TransfersOwnership(req.mode) && config_.mirage_window > 0 &&
        host_->Clock() < e.hold_until) {
      // Mirage hold window: ignore the request; the requester's retransmission will retry.
      stats_.mirage_deferrals++;
      if (NodeTracer* tr = tracer(); tr != nullptr) {
        tr->Instant("dsm", "defer_mirage " + FlowName(req.page));
      }
      return false;
    }
    host_->Charge(TimeCategory::kDataTransfer, costs_->page_service);
    stats_.page_requests_served++;
    proto(req.page).OnRemoteRequest(src, req.page, req.mode, req.fault_seq,
                                    reply.Body(DataReplyBytes(req.page)));
    return true;
  }

  // Not the owner: redirect the requester along the probable-owner chain.
  host_->Charge(TimeCategory::kDataTransfer, costs_->page_redirect);
  stats_.page_forwards++;
  reply.Body(sizeof(ReplyHeader)).Put(ReplyHeader{kReplyRedirect, e.probable_owner, 0, 0});
  return true;
}

void DsmNode::ServeReadCopy(NodeId src, PageId page, uint8_t extra_flags, net::WireWriter& w) {
  // Read copy. A copyset-tracking owner (write-invalidate) downgrades and tracks the copy;
  // otherwise the copy is untracked — it dies at the reader's next sync point
  // (implicit-invalidate) or is merged back by diffs (diff).
  if (proto(page).TracksCopyset()) {
    for (PageId p : layout_->GroupPagesOf(page)) {
      table_[p].state = PageState::kReadOnly;
      table_[p].copyset |= Bit(src);
    }
  }
  DFIL_ORACLE(OnServeRead(self_, src, page));
  WriteDataReply(w, page, /*transfer_ownership=*/false, /*include_copyset=*/false,
                 /*from_grant=*/false, extra_flags);
}

void DsmNode::ServeTransfer(NodeId src, PageId page, uint32_t fault_seq, net::WireWriter& w) {
  // Ownership transfer (migratory always; write faults otherwise).
  DFIL_LOG(kDebug, "dsm") << "node " << self_ << " transfers page " << page << " -> " << src
                          << " @" << ToMilliseconds(host_->Clock()) << "ms";
  if (config_.adapt_protocols) {
    NoteAdaptTraffic(page);  // write transfers served are the owner's half of the ping-pong count
  }
  WriteDataReply(w, page, /*transfer_ownership=*/true,
                 /*include_copyset=*/proto(page).TracksCopyset());
  DFIL_ORACLE(OnServeTransfer(self_, src, page));
  for (PageId p : layout_->GroupPagesOf(page)) {
    PageEntry& ge = table_[p];
    ge.granted_to = src;
    ge.grant_seq = fault_seq;
    ge.grant_copyset = ge.copyset;
    ge.state = PageState::kInvalid;
    ge.owner = false;
    ge.copyset = 0;
    ge.probable_owner = src;
  }
}

size_t DsmNode::DataReplyBytes(PageId page) const {
  return sizeof(ReplyHeader) +
         layout_->GroupPagesOf(page).size() * (sizeof(PageBlockHeader) + layout_->page_size());
}

void DsmNode::WriteDataReply(net::WireWriter& w, PageId page, bool transfer_ownership,
                             bool include_copyset, bool from_grant, uint8_t extra_flags) {
  const auto group = layout_->GroupPagesOf(page);
  const uint8_t flags =
      static_cast<uint8_t>((transfer_ownership ? kReplyFlagOwnership : 0) | extra_flags);
  const size_t ps = layout_->page_size();
  w.Put(ReplyHeader{kReplyOk, self_, flags, static_cast<uint16_t>(group.size())});
  for (PageId p : group) {
    const PageEntry& e = table_[p];
    const uint64_t copyset = include_copyset ? (from_grant ? e.grant_copyset : e.copyset) : 0;
    w.Put(PageBlockHeader{p, copyset});
    w.PutBytes(PageBytes(p), ps);
  }
  stats_.page_data_bytes += group.size() * ps;
}

void DsmNode::OnPageReply(PageId page, AccessMode mode, net::WireReader r) {
  const auto h = r.Get<ReplyHeader>();
  PageEntry& e = table_[page];
  DFIL_CHECK(e.fetching) << "page reply for a page we are not fetching";

  if (h.status == kReplyRedirect) {
    DFIL_CHECK_NE(h.owner_hint, self_) << "redirected to self for page " << page;
    // One hop of the probable-owner chase: a step in the fault's flow arc (the redirect reply's
    // trace id is our current context, so the re-sent request inherits it).
    TraceSpan chase_span(tracer_, "dsm", "chase p", page);
    if (NodeTracer* tr = tracer(); tr != nullptr) {
      tr->Flow(kFlowStep, "dsm", FlowName(page), tr->current());
    }
    for (PageId p : layout_->GroupPagesOf(page)) {
      table_[p].probable_owner = h.owner_hint;
    }
    SendPageRequest(page, mode, h.owner_hint);
    return;
  }

  // Install the data for every page in the reply (the whole group).
  const size_t ps = layout_->page_size();
  uint64_t copyset = 0;
  for (uint16_t i = 0; i < h.npages; ++i) {
    const auto block = r.Get<PageBlockHeader>();
    r.GetBytes(PageBytes(block.page), ps);
    copyset |= block.copyset;
    host_->Charge(TimeCategory::kDataTransfer, costs_->page_install);
  }

  if ((h.flags & kReplyFlagOwnership) == 0 && e.discard_install) {
    // The copy was invalidated while the bytes were in flight: the owner served us, then granted
    // the page to a writer whose invalidation raced ahead of our reply. Installing now would
    // resurrect stale bytes as a read-only copy the owner no longer tracks. Drop the install;
    // waiters re-fault through Access() and chase the (updated) hint.
    for (PageId p : layout_->GroupPagesOf(page)) {
      table_[p].probable_owner = h.owner_hint;
    }
    stats_.discarded_installs++;
    DFIL_ORACLE(OnDiscardedInstall(self_, page));
    FinishFetch(page, PageState::kInvalid, /*ownership=*/false);
    return;
  }

  if ((h.flags & kReplyFlagOwnership) != 0) {
    if (mode == AccessMode::kWrite && proto(page).OnOwnershipInstall(page, copyset)) {
      return;  // the protocol continues the fetch itself (write-invalidate's invalidation round)
    }
    FinishFetch(page, PageState::kReadWrite, /*ownership=*/true);
    return;
  }

  for (PageId p : layout_->GroupPagesOf(page)) {
    table_[p].probable_owner = h.owner_hint;
  }
  if ((h.flags & kReplyFlagDiff) != 0 && mode == AccessMode::kWrite) {
    // A diff-tagged copy answering a write fault: twin it and install it writable in place, so
    // the write proceeds without an ownership transfer.
    diff_->InstallWritableCopy(page);
    return;
  }
  FinishFetch(page, PageState::kReadOnly, /*ownership=*/false,
              /*diff_copy=*/(h.flags & kReplyFlagDiff) != 0);
}

void DsmNode::FinishFetch(PageId page, PageState new_state, bool ownership, bool diff_copy) {
  // The arc terminates here whether the fetch installed or was discarded (a re-fault starts a new
  // arc with a fresh id).
  TraceSpan install_span(tracer_, "dsm",
                         new_state == PageState::kInvalid ? "discard p" : "install p", page);
  if (NodeTracer* tr = tracer(); tr != nullptr && table_[page].trace_id != 0) {
    tr->Flow(kFlowEnd, "dsm", FlowName(page), table_[page].trace_id);
  }
  DFIL_LOG(kDebug, "dsm") << "node " << self_ << " installs page " << page
                          << (ownership ? " owned" : " copy") << " @"
                          << ToMilliseconds(host_->Clock()) << "ms waiters="
                          << (table_[page].waiters.empty() ? "no" : "yes");
  for (PageId p : layout_->GroupPagesOf(page)) {
    PageEntry& e = table_[p];
    NotePageDiscarded(e);  // a demand fetch replacing an untouched prefetched copy = waste
    e.state = new_state;
    e.owner = ownership;
    e.fetching = false;
    e.discard_install = false;
    e.pending_invalidate_acks = 0;
    e.trace_id = 0;
    e.diff_copy = new_state == PageState::kInvalid ? false : diff_copy;
    e.hold_until = host_->Clock() + config_.mirage_window;
    // The grant record (granted_to/grant_seq/grant_copyset) deliberately survives this fetch:
    // a delayed duplicate of the transfer request the grant answered can still arrive after we
    // re-acquire the page, and ServePageRequest needs the record to recognize (and ignore) it.
    // Keeping it is safe — the re-serve path additionally requires state kInvalid and !owner.
    if (ownership) {
      e.probable_owner = self_;
      e.copyset = 0;
    }
    // Use-once progress guarantee: a page installed for blocked faulters must not be served away
    // before at least one of them runs. The waiters are runnable from this instant, but install
    // and service charges can push this node's clock past the arrival time of the next remote
    // request, in which case the event loop dispatches that steal first — with service latency
    // above the Mirage window, two writers then hand the page back and forth forever without
    // either faulting thread completing its access. Unlike `fetching`, the flag clears through
    // local scheduling alone (the first woken waiter's access), so deferring on it cannot
    // deadlock. (Assignment, not |=: a fetch that settles with no waiters heals a stale flag.)
    e.pending_use = !e.waiters.empty() && new_state != PageState::kInvalid;
    while (threads::ServerThread* t = e.waiters.PopFront()) {
      host_->Wake(t);
    }
    if (!ownership && new_state != PageState::kInvalid) {
      NoteCopy(p);
    }
  }
  if (config_.adapt_protocols && new_state != PageState::kInvalid) {
    // The reply's diff tag is authoritative: the serving owner decided the group's mode, and the
    // requester's adapter view follows it so later faults twin (or demand-fetch) consistently.
    AdaptState& st = adapt_[GroupRoot(page)];
    st.mode = diff_copy ? Pcp::kDiff : Pcp::kImplicitInvalidate;
    st.calm = 0;
  }
  if (ownership && new_state == PageState::kReadWrite) {
    DFIL_ORACLE(OnWriteGranted(self_, page));
  } else if (new_state == PageState::kReadWrite) {
    DFIL_ORACLE(OnDiffWriteInstall(self_, page));
  } else if (new_state == PageState::kReadOnly) {
    DFIL_ORACLE(OnInstallRead(self_, page));
  }
  DFIL_CHECK_GT(pending_fetches_, 0);
  if (--pending_fetches_ == 0) {
    host_->FetchesDrained();
  }
}

// --- Bulk transfers / prefetching ------------------------------------------------------------

void DsmNode::NoteFaultForDetector(PageId page, AccessMode mode) {
  if (mode != AccessMode::kRead || config_.pcp == Pcp::kMigratory ||
      layout_->GroupOf(page) != kNoGroup) {
    return;
  }
  if (page == last_fault_page_) {
    return;  // a second thread faulting on the in-flight page is not new pattern evidence
  }
  fault_run_len_ = (last_fault_page_ != kNoPage && page == last_fault_page_ + 1)
                       ? fault_run_len_ + 1
                       : 1;
  last_fault_page_ = page;
  if (fault_run_len_ >= kPrefetchMinRun) {
    Prefetch(page + 1, kPrefetchDegree, AccessMode::kRead);
  }
}

void DsmNode::Prefetch(PageId first, int count, AccessMode mode) {
  // Read replication only: a write needs an ownership transfer, and prefetching a read copy
  // first would double the traffic. Migratory moves ownership on every fetch, so it is excluded
  // entirely (the correctness constraint on bulk reads).
  if (mode != AccessMode::kRead || config_.pcp == Pcp::kMigratory || count <= 0) {
    return;
  }
  const uint64_t clamped_end =
      std::min<uint64_t>(static_cast<uint64_t>(first) + static_cast<uint64_t>(count),
                         table_.size());
  if (first >= clamped_end) {
    return;
  }
  if (NodeTracer* tr = tracer(); tr != nullptr) {
    tr->Instant("dsm", "prefetch p" + std::to_string(first) + "+" +
                           std::to_string(clamped_end - first));
  }
  StartBulkFetch(first, static_cast<int>(clamped_end - first));
}

void DsmNode::StartBulkFetch(PageId first, int count) {
  auto eligible = [&](PageId p) {
    const PageEntry& e = table_[p];
    return e.state == PageState::kInvalid && !e.fetching && !e.owner &&
           e.probable_owner != self_ && layout_->GroupOf(p) == kNoGroup;
  };
  const PageId end = first + static_cast<PageId>(count);
  PageId p = first;
  while (p < end) {
    if (!eligible(p)) {
      ++p;
      continue;
    }
    // Extend a maximal run of eligible pages sharing a probable-owner hint, capped at
    // kMaxBulkPages; hint changes split the run so replies carry few misses.
    const NodeId target = table_[p].probable_owner;
    PageId run_end = p + 1;
    while (run_end < end && run_end - p < static_cast<PageId>(kMaxBulkPages) &&
           eligible(run_end) && table_[run_end].probable_owner == target) {
      ++run_end;
    }
    for (PageId q = p; q < run_end; ++q) {
      PageEntry& e = table_[q];
      e.fetching = true;
      e.fetch_mode = AccessMode::kRead;
      ++pending_fetches_;
    }
    host_->Charge(TimeCategory::kDataTransfer, costs_->prefetch_issue);
    SendBulkRequest(p, static_cast<uint16_t>(run_end - p), target);
    p = run_end;
  }
}

void DsmNode::SendBulkRequest(PageId first, uint16_t count, NodeId target) {
  DFIL_CHECK_NE(target, self_);
  stats_.bulk_requests++;
  stats_.bulk_pages_requested += count;
  // Each bulk run gets its own arc: 's' here, 't' in the remote serve, 'f' at install.
  const uint64_t flow = tracer_ != nullptr ? tracer_->NewTraceId() : 0;
  TraceSpan span(tracer_, "dsm", "bulk_req p", first);
  if (NodeTracer* tr = tracer(); tr != nullptr) {
    tr->Flow(kFlowStart, "dsm", BulkFlowName(first), flow);
  }
  TraceContext trace_ctx(tracer_, flow);
  net::WireWriter w;
  w.Put(BulkRequestBody{first, count, AccessMode::kRead});
  // Upper bound on the reply: every requested page served full-size. Sizes the RTT estimator's
  // serialization floor so a long bulk reply is never mistaken for a loss.
  const size_t expected_reply =
      sizeof(BulkReplyHeader) + count * (sizeof(PageBlockHeader) + layout_->page_size());
  packet_->SendRequest(
      target, net::Service::kBulkPageRequest, w.Take(),
      [this](net::WireReader reply) { OnBulkReply(reply); },
      TimeCategory::kDataTransfer, expected_reply);
}

bool DsmNode::ServeBulkRequest(NodeId src, net::WireReader body, net::ReplyWriter& reply) {
  const auto req = body.Get<BulkRequestBody>();
  TraceSpan serve_span(tracer_, "dsm", "bulk_serve p", req.first);
  if (NodeTracer* tr = tracer(); tr != nullptr) {
    tr->Flow(kFlowStep, "dsm", BulkFlowName(req.first), tr->current());
  }
  // Served idempotently from current state, like single-page replies: pages this node owns ship
  // as read-only copies, everything else is reported back as a miss for the requester to re-fault
  // through the owner-forwarding directory. Never defers and never transfers ownership, so
  // in-flux entries, the Mirage window, and the grant record are untouched.
  std::vector<PageId>& hits = bulk_hits_;
  std::vector<PageId>& misses = bulk_misses_;
  hits.clear();
  misses.clear();
  const uint64_t end =
      std::min<uint64_t>(static_cast<uint64_t>(req.first) + req.count, table_.size());
  for (uint64_t p64 = req.first; p64 < end; ++p64) {
    const PageId p = static_cast<PageId>(p64);
    const PageEntry& e = table_[p];
    const bool servable = e.owner && !e.fetching && !e.pending_use &&
                          page_pcp(p) != Pcp::kMigratory && layout_->GroupOf(p) == kNoGroup;
    (servable ? hits : misses).push_back(p);
  }
  if (!hits.empty()) {
    host_->Charge(TimeCategory::kDataTransfer,
                  costs_->page_service +
                      costs_->bulk_service_extra_page * static_cast<SimTime>(hits.size() - 1));
    stats_.bulk_pages_served += hits.size();
  }
  const size_t ps = layout_->page_size();
  net::WireWriter& w = reply.Body(sizeof(BulkReplyHeader) +
                                  hits.size() * (sizeof(PageBlockHeader) + ps) +
                                  misses.size() * sizeof(PageId));
  w.Put(BulkReplyHeader{self_, req.first, static_cast<uint16_t>(hits.size()),
                        static_cast<uint16_t>(misses.size())});
  for (PageId p : hits) {
    PageEntry& e = table_[p];
    if (proto(p).TracksCopyset()) {
      e.state = PageState::kReadOnly;  // owner downgrades and tracks the copy, as for any read
      e.copyset |= Bit(src);
    }
    // Bit 0 of the copyset field doubles as the diff tag in coalescing sync-batch mode: the home
    // marks served diff-mode pages so a flush-set bulk refetch installs twin-eligible copies.
    // Only set when sync-batch is on, so off-mode bulk replies stay byte-identical.
    const uint64_t diff_tag = (sync_batch() && page_pcp(p) == Pcp::kDiff) ? 1 : 0;
    w.Put(PageBlockHeader{p, diff_tag});
    w.PutBytes(PageBytes(p), ps);
    DFIL_ORACLE(OnServeRead(self_, src, p));
  }
  stats_.page_data_bytes += hits.size() * ps;
  for (PageId p : misses) {
    w.Put(p);
  }
  return true;
}

void DsmNode::OnBulkReply(net::WireReader r) {
  const auto h = r.Get<BulkReplyHeader>();
  TraceSpan install_span(tracer_, "dsm", "bulk_install p", h.first);
  if (NodeTracer* tr = tracer(); tr != nullptr) {
    tr->Flow(kFlowEnd, "dsm", BulkFlowName(h.first), tr->current());
    if (h.nmisses > 0) {
      tr->Instant("dsm", "bulk_miss p" + std::to_string(h.first) + " x" +
                             std::to_string(h.nmisses));
    }
  }
  const size_t ps = layout_->page_size();
  for (uint16_t i = 0; i < h.npages; ++i) {
    const auto block = r.Get<PageBlockHeader>();
    r.GetBytes(PageBytes(block.page), ps);
    host_->Charge(TimeCategory::kDataTransfer, costs_->page_install);
    FinishBulkPage(block.page, /*installed=*/true, h.owner_hint,
                   /*diff_copy=*/(block.copyset & 1) != 0);
  }
  for (uint16_t i = 0; i < h.nmisses; ++i) {
    const PageId p = r.Get<PageId>();
    stats_.bulk_misses++;
    FinishBulkPage(p, /*installed=*/false, h.owner_hint);
  }
}

void DsmNode::FinishBulkPage(PageId page, bool installed, NodeId owner_hint, bool diff_copy) {
  PageEntry& e = table_[page];
  DFIL_CHECK(e.fetching) << "bulk reply for page " << page << " we are not fetching";
  e.fetching = false;
  if (installed && e.discard_install) {
    // Invalidated while the bulk bytes were in flight; installing would resurrect a stale
    // untracked copy. Treat it as a miss: waiters re-fault, a pure prefetch just lapses.
    installed = false;
    stats_.discarded_installs++;
    DFIL_ORACLE(OnDiscardedInstall(self_, page));
  }
  e.discard_install = false;
  bool had_waiters = false;
  if (installed) {
    e.state = PageState::kReadOnly;
    e.owner = false;
    // In coalescing sync-batch mode the bulk block's diff tag carries through, so a write fault
    // on the installed copy twins in place. Otherwise bulk replies carry no tag and the copy
    // installs untagged even when the requester's adapter view says diff: a later write fault
    // then demand-fetches a properly tagged copy (one extra round trip, never a wrong twin).
    e.diff_copy = diff_copy;
    e.probable_owner = owner_hint;
    e.hold_until = host_->Clock() + config_.mirage_window;
    // Any grant record survives (see FinishFetch); harmless here since state is now kReadOnly.
    NoteCopy(page);
    stats_.prefetched_pages++;
    DFIL_ORACLE(OnInstallRead(self_, page));
    while (threads::ServerThread* t = e.waiters.PopFront()) {
      had_waiters = true;
      host_->Wake(t);
    }
    if (!had_waiters) {
      // Nobody demanded this page yet; track it so an untouched death can be reported as waste.
      e.prefetched_unused = true;
    }
  } else {
    // Miss: the replier does not own this page (or it is in flux there). Waiters re-fault through
    // the single-page owner-forwarding path from their Access() loop; a pure prefetch just lapses.
    while (threads::ServerThread* t = e.waiters.PopFront()) {
      host_->Wake(t);
    }
  }
  DFIL_CHECK_GT(pending_fetches_, 0);
  if (--pending_fetches_ == 0) {
    host_->FetchesDrained();
  }
}

// --- Rebalance page re-homing ----------------------------------------------------------------

void DsmNode::RequestRehome(const std::vector<PageId>& pages, NodeId source) {
  if (source == self_ || source == kNoNode) {
    return;
  }
  std::vector<std::pair<PageId, uint32_t>> batch;
  auto flush = [&] {
    if (!batch.empty()) {
      SendRehomeRequest(batch, source);
      batch.clear();
    }
  };
  for (PageId p : pages) {
    if (static_cast<size_t>(p) >= table_.size()) {
      continue;
    }
    PageEntry& e = table_[p];
    // Owned/fetching pages need no re-home; grouped pages move as a unit through the normal
    // fault path; the diff protocol never transfers ownership at all.
    if (e.owner || e.fetching || layout_->GroupOf(p) != kNoGroup || page_pcp(p) == Pcp::kDiff) {
      continue;
    }
    e.fetching = true;
    e.fetch_mode = AccessMode::kWrite;
    ++e.fetch_seq;  // a fresh fault, exactly like StartDemandFetch
    ++pending_fetches_;
    batch.emplace_back(p, e.fetch_seq);
    if (batch.size() >= static_cast<size_t>(kMaxBulkPages)) {
      flush();
    }
  }
  flush();
}

void DsmNode::SendRehomeRequest(const std::vector<std::pair<PageId, uint32_t>>& pages,
                                NodeId source) {
  DFIL_CHECK_NE(source, self_);
  stats_.rehome_requests++;
  stats_.rehome_pages_requested += pages.size();
  if (NodeTracer* tr = tracer(); tr != nullptr) {
    tr->InstantOnTrack(kRebalanceTid, "dsm",
                       "rebalance rehome_req p" + std::to_string(pages.front().first) + " x" +
                           std::to_string(pages.size()) + " <- n" + std::to_string(source));
  }
  net::WireWriter w;
  w.Put(RehomeRequestHeader{static_cast<uint16_t>(pages.size())});
  for (const auto& [p, seq] : pages) {
    w.Put(RehomePageReq{p, seq});
  }
  // Worst case every page ships full-size, flooring the RTT estimator like a bulk reply.
  const size_t expected_reply =
      sizeof(RehomeReplyHeader) +
      pages.size() * (sizeof(PageId) + sizeof(uint32_t) + sizeof(ReplyHeader) +
                      sizeof(PageBlockHeader) + layout_->page_size());
  packet_->SendRequest(
      source, net::Service::kRehomePages, w.Take(),
      [this](net::WireReader reply) { OnRehomeReply(reply); },
      TimeCategory::kDataTransfer, expected_reply);
}

bool DsmNode::ServeRehomeRequest(NodeId src, net::WireReader body, net::ReplyWriter& reply) {
  const auto h = body.Get<RehomeRequestHeader>();
  TraceSpan serve_span(tracer_, "dsm", "rehome_serve x", h.count);
  net::WireWriter& w = reply.Body();
  const size_t header_at = w.size();
  w.Put(RehomeReplyHeader{});  // the counts are known once every page is decided
  uint16_t nserved = 0;
  std::vector<PageId> misses;
  // A served page: its id and length, then its single-page transfer reply, written in place.
  const auto open_served = [&](PageId page) {
    ++nserved;
    w.Put(page);
    w.Put(static_cast<uint32_t>(DataReplyBytes(page)));
    return w.size();
  };
  for (uint16_t i = 0; i < h.count; ++i) {
    const auto preq = body.Get<RehomePageReq>();
    if (static_cast<size_t>(preq.page) >= table_.size()) {
      misses.push_back(preq.page);
      continue;
    }
    PageEntry& e = table_[preq.page];
    if (e.granted_to == src && e.grant_seq == preq.fault_seq &&
        e.state == PageState::kInvalid && !e.owner) {
      // A retransmission of the exact fault our last transfer answered (the reply was lost);
      // re-serve the identical transfer from the stale frame, as ServePageRequest does.
      stats_.grant_reserves++;
      DFIL_ORACLE(OnServeGrantReserve(self_, src, preq.page));
      const size_t at = open_served(preq.page);
      WriteDataReply(w, preq.page, /*transfer_ownership=*/true,
                     /*include_copyset=*/proto(preq.page).TracksCopyset(), /*from_grant=*/true);
      DFIL_DCHECK(w.size() - at == DataReplyBytes(preq.page));
      continue;
    }
    // Unservable pages are misses, never deferrals: the batch reply must not stall on one page
    // in flux, and a missed page simply stays home until a demand fault moves it.
    const bool servable = e.owner && !e.fetching && !e.pending_use &&
                          page_pcp(preq.page) != Pcp::kDiff &&
                          layout_->GroupOf(preq.page) == kNoGroup &&
                          !(config_.mirage_window > 0 && host_->Clock() < e.hold_until);
    if (!servable) {
      stats_.rehome_misses_served++;
      misses.push_back(preq.page);
      continue;
    }
    const size_t at = open_served(preq.page);
    proto(preq.page).OnRemoteRequest(src, preq.page, AccessMode::kWrite, preq.fault_seq, w);
    DFIL_DCHECK(w.size() - at == DataReplyBytes(preq.page));
  }
  if (nserved > 0) {
    host_->Charge(TimeCategory::kDataTransfer,
                  costs_->page_service +
                      costs_->bulk_service_extra_page * static_cast<SimTime>(nserved - 1));
    stats_.rehome_pages_served += nserved;
  }
  w.PutAt(header_at, RehomeReplyHeader{nserved, static_cast<uint16_t>(misses.size())});
  for (PageId p : misses) {
    w.Put(p);
  }
  return true;
}

void DsmNode::OnRehomeReply(net::WireReader r) {
  const auto h = r.Get<RehomeReplyHeader>();
  TraceSpan install_span(tracer_, "dsm", "rehome_install x", h.nserved);
  for (uint16_t i = 0; i < h.nserved; ++i) {
    const auto page = r.Get<PageId>();
    const auto len = r.Get<uint32_t>();
    const net::WireReader embedded(r.GetSpan(len));
    stats_.pages_rehomed++;
    // The embedded payload is a standard single-page transfer reply: route it through the
    // normal install path so grants, copyset invalidation rounds, the Mirage window, waiter
    // wake-ups and the oracle hooks all behave exactly as for a demand fault.
    OnPageReply(page, AccessMode::kWrite, embedded);
  }
  for (uint16_t i = 0; i < h.nmisses; ++i) {
    const PageId p = r.Get<PageId>();
    stats_.rehome_misses++;
    PageEntry& e = table_[p];
    DFIL_CHECK(e.fetching) << "rehome miss for page " << p << " we are not fetching";
    e.fetching = false;
    e.discard_install = false;
    // Anyone who demand-faulted while the re-home was in flight re-faults through Access();
    // the page simply stays at its current owner.
    while (threads::ServerThread* t = e.waiters.PopFront()) {
      host_->Wake(t);
    }
    DFIL_CHECK_GT(pending_fetches_, 0);
    if (--pending_fetches_ == 0) {
      host_->FetchesDrained();
    }
  }
}

void DsmNode::NotePageDiscarded(PageEntry& e) {
  if (e.prefetched_unused) {
    e.prefetched_unused = false;
    e.prefetch_wasted = true;
    stats_.prefetch_wasted++;
  }
}

bool DsmNode::ConsumePrefetchWasted(PageId page) {
  const bool wasted = table_[page].prefetch_wasted;
  table_[page].prefetch_wasted = false;
  return wasted;
}

bool DsmNode::ServeInvalidate(NodeId src, net::WireReader body, net::ReplyWriter& /*ack*/) {
  (void)src;
  const auto page = body.Get<PageId>();
  TraceSpan inval_span(tracer_, "dsm", "inval p", page);
  if (NodeTracer* tr = tracer(); tr != nullptr) {
    tr->Flow(kFlowStep, "dsm", FlowName(page), tr->current());
  }
  host_->Charge(TimeCategory::kDataTransfer, costs_->invalidate_handle);
  stats_.invalidations_received++;
  for (PageId p : layout_->GroupPagesOf(page)) {
    PageEntry& e = table_[p];
    if (e.owner) {
      // A duplicated invalidation, delivered after we re-acquired the page we once held a read
      // copy of. The copy it targeted is long gone; crashing here (this used to be a CHECK) turns
      // a benign duplicate into a protocol failure.
      stats_.stale_invalidations_ignored++;
      continue;
    }
    if (e.fetching && e.fetch_mode == AccessMode::kRead) {
      // The invalidation targets the read copy currently in flight to us: the owner served our
      // request, then granted the page to a writer whose invalidation overtook our reply. Poison
      // the pending install so the stale bytes are dropped on arrival.
      e.discard_install = true;
    }
    if (e.state == PageState::kReadOnly) {
      e.state = PageState::kInvalid;
      NotePageDiscarded(e);
      DFIL_ORACLE(OnInvalidated(self_, p));
    }
  }
  return true;  // an empty ack
}

void DsmNode::DropReadCopies() {
  size_t kept = 0;
  for (const PageId p : copies_) {
    PageEntry& e = table_[p];
    if (!e.owner && e.state == PageState::kReadOnly && !e.fetching) {
      e.state = PageState::kInvalid;
      e.diff_copy = false;
      stats_.implicit_invalidations++;
      NotePageDiscarded(e);
    }
    if (!e.owner && e.state != PageState::kInvalid) {
      copies_[kept++] = p;  // still a copy: being fetched, or a writable diff copy
    } else {
      e.copy_listed = false;  // a later install lists it again
    }
  }
  copies_.resize(kept);
}

bool DsmNode::NoReadCopyLeft() const {
  return std::none_of(table_.begin(), table_.end(), [](const PageEntry& e) {
    return !e.owner && e.state == PageState::kReadOnly && !e.fetching;
  });
}

void DsmNode::AtSyncPoint() {
  for (PageProtocol* p : active_protocols_) {
    p->OnSyncPoint();
  }
  // Write-invalidate read copies live on past a sync point; the two sweeping protocols leave none.
  DFIL_DCHECK(!sweeps_copies_ || NoReadCopyLeft())
      << "node " << self_ << ": a read copy missing from the copy list survived a sync point";
  if (config_.adapt_protocols) {
    AdapterAtSyncPoint();
  }
}

void DsmNode::OnBarrierDone() { diff_->OnBarrierDone(); }

uint64_t DsmNode::DiffAppliedEpoch(NodeId src) const { return diff_->applied_epoch(src); }

uint64_t DsmNode::PendingGatedMergeEpoch() const { return diff_->pending_gated_merge_epoch(); }

void DsmNode::NoteAdaptTraffic(PageId page) { adapt_[GroupRoot(page)].traffic++; }

void DsmNode::AdapterAtSyncPoint() {
  for (auto& [root, st] : adapt_) {
    const bool owner = table_[root].owner;
    if (st.mode == Pcp::kImplicitInvalidate) {
      // Only the group's owner may flip it to diff: the mode propagates to the other nodes
      // through the diff tag on the copies this owner serves.
      if (owner && st.traffic >= config_.adapt_to_diff_threshold) {
        st.mode = Pcp::kDiff;
        st.calm = 0;
        stats_.adapter_switches_to_diff++;
        DFIL_LOG(kDebug, "dsm") << "node " << self_ << " adapts group p" << root
                                << " -> diff (traffic=" << st.traffic << ") @"
                                << ToMilliseconds(host_->Clock()) << "ms";
        if (NodeTracer* tr = tracer(); tr != nullptr) {
          tr->InstantOnTrack(kAdaptTid, "dsm",
                             "adapt_diff p" + std::to_string(root) + " traffic=" +
                                 std::to_string(st.traffic));
        }
      }
    } else if (owner) {
      // Hysteresis: only after adapt_calm_epochs consecutive quiet epochs does the owner fall
      // back to implicit-invalidate. While any writer still holds a diff copy, its faults/merges
      // count as traffic, so a live multiple-writer group can never flip back mid-use (which
      // also pins ownership: the diff protocol never transfers it).
      if (st.traffic == 0) {
        if (++st.calm >= config_.adapt_calm_epochs) {
          st.mode = Pcp::kImplicitInvalidate;
          st.calm = 0;
          stats_.adapter_switches_to_ii++;
          DFIL_LOG(kDebug, "dsm") << "node " << self_ << " adapts group p" << root
                                  << " -> implicit-invalidate @"
                                  << ToMilliseconds(host_->Clock()) << "ms";
          if (NodeTracer* tr = tracer(); tr != nullptr) {
            tr->InstantOnTrack(kAdaptTid, "dsm", "adapt_ii p" + std::to_string(root));
          }
        }
      } else {
        st.calm = 0;
      }
    }
    st.traffic = 0;
  }
}

}  // namespace dfil::dsm
