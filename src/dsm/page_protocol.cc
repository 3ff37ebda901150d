// Strategy implementations for the four page-consistency protocols (the policy half of DsmNode).
//
// The single-writer protocols (migratory, write-invalidate, implicit-invalidate) are verbatim
// extractions of the pre-seam fault/serve/sync branches — their message schedules and wire bytes
// are unchanged, which the bench/baselines/jacobi_gate.json schedule-invariance gate pins. The
// diff protocol is new; DESIGN.md §10 describes it.
#include "src/dsm/page_protocol.h"

#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/dsm/coherence_oracle.h"
#include "src/net/packet.h"

// Coherence-oracle hook, as in dsm_node.cc but through the strategy's node reference.
#define DFIL_ORACLE(call)         \
  if (node_.oracle_ == nullptr) { \
  } else /* NOLINT */             \
    node_.oracle_->call

namespace dfil::dsm {
namespace {

uint64_t Bit(NodeId n) { return uint64_t{1} << n; }

}  // namespace

PageEntry& PageProtocol::entry(PageId page) { return node_.table_[page]; }

FaultResult PageProtocol::StartDemandFetch(PageId page, AccessMode mode) {
  PageEntry& e = entry(page);
  e.fetching = true;
  e.fetch_mode = mode;
  ++e.fetch_seq;  // a fresh fault; redirect re-sends within it keep the same seq
  ++node_.pending_fetches_;
  // Allocate the causal trace id for this fetch; the request, every chase hop, the owner's serve,
  // and the final install all carry it.
  e.trace_id = node_.tracer_ != nullptr ? node_.tracer_->NewTraceId() : 0;
  TraceContext trace_ctx(node_.tracer_, e.trace_id);
  node_.SendPageRequest(page, mode, e.probable_owner);
  return FaultResult::kStarted;
}

std::optional<net::Payload> PageProtocol::OnRemoteRequest(NodeId src, PageId page, AccessMode mode,
                                                          uint32_t fault_seq) {
  if (!TransfersOwnership(mode)) {
    return node_.ServeReadCopy(src, page, /*extra_flags=*/0);
  }
  return node_.ServeTransfer(src, page, fault_seq);
}

// --- Write-invalidate --------------------------------------------------------------------------

FaultResult WriteInvalidateProtocol::OnWriteFault(PageId page) {
  const PageEntry& e = entry(page);
  if (e.owner && e.state == PageState::kReadOnly) {
    node_.StartOwnerUpgrade(page);
    return FaultResult::kStarted;
  }
  return StartDemandFetch(page, AccessMode::kWrite);
}

bool WriteInvalidateProtocol::OnOwnershipInstall(PageId page, uint64_t copyset) {
  // Invalidate every other read copy before the write proceeds.
  node_.StartInvalidations(page, copyset & ~Bit(node_.self_));
  return true;
}

// --- Implicit-invalidate -----------------------------------------------------------------------

void ImplicitInvalidateProtocol::OnSyncPoint() {
  // Implicit invalidation: read-only copies have a very short lifetime — they die, without any
  // message traffic, at every synchronization point (paper §3).
  for (PageEntry& e : node_.table_) {
    if (!e.owner && e.state == PageState::kReadOnly && !e.fetching) {
      e.state = PageState::kInvalid;
      node_.stats_.implicit_invalidations++;
      node_.NotePageDiscarded(e);
    }
  }
}

// --- Diff (multiple-writer) --------------------------------------------------------------------

FaultResult DiffProtocol::OnReadFault(PageId page) {
  if (MaybeBulkRefetch(page)) {
    return FaultResult::kStarted;
  }
  return StartDemandFetch(page, AccessMode::kRead);
}

FaultResult DiffProtocol::OnWriteFault(PageId page) {
  const PageEntry& e = entry(page);
  if (!e.owner && e.state == PageState::kReadOnly && e.diff_copy) {
    // First write to a diff-tagged read copy: twin it and promote in place — no messages at all.
    // The `diff_copy` tag (set from the serving owner's reply flag) is required, not just the
    // local adapter mode: a stale local mode must never twin a plain implicit-invalidate copy.
    TwinInPlace(page);
    return FaultResult::kSatisfied;
  }
  if (MaybeBulkRefetch(page)) {
    // The bulk reply installs diff-tagged read copies; the woken writer re-faults and twins the
    // page in place (the branch above), so the write still never transfers ownership.
    return FaultResult::kStarted;
  }
  // No usable copy: demand-fetch one from the home. A diff-mode home answers with a
  // kReplyFlagDiff copy and OnPageReply routes write faults into InstallWritableCopy.
  return StartDemandFetch(page, AccessMode::kWrite);
}

bool DiffProtocol::MaybeBulkRefetch(PageId page) {
  if (!node_.sync_batch() || last_flush_sets_.empty()) {
    return false;
  }
  for (auto it = last_flush_sets_.begin(); it != last_flush_sets_.end(); ++it) {
    const std::set<PageId>& pages = it->second;
    if (pages.count(page) == 0) {
      continue;
    }
    // The whole set this node flushed to `it->first` last epoch is about to be re-read; fetch it
    // back in maximal contiguous runs (std::set iterates sorted). StartBulkFetch skips pages that
    // are present, fetching, grouped, or owned here, so overlap with other traffic is safe.
    std::vector<PageId> sorted(pages.begin(), pages.end());
    size_t i = 0;
    while (i < sorted.size()) {
      size_t j = i + 1;
      while (j < sorted.size() && sorted[j] == sorted[j - 1] + 1) {
        ++j;
      }
      node_.StartBulkFetch(sorted[i], static_cast<int>(j - i));
      i = j;
    }
    last_flush_sets_.erase(it);  // one-shot: a second fault must not re-issue the sweep
    node_.stats_.diff_bulk_refetches++;
    return node_.table_[page].fetching;
  }
  return false;
}

std::optional<net::Payload> DiffProtocol::OnRemoteRequest(NodeId src, PageId page, AccessMode mode,
                                                          uint32_t fault_seq) {
  (void)fault_seq;  // ownership never transfers, so the grant machinery is never engaged
  if (node_.config_.adapt_protocols && mode == AccessMode::kWrite) {
    // Served write copies keep the group hot — and thereby pinned to this owner: a group with
    // live diff writers can never go calm and flip back to implicit-invalidate mid-use.
    node_.NoteAdaptTraffic(page);
  }
  return node_.ServeReadCopy(src, page, kReplyFlagDiff);
}

void DiffProtocol::TwinInPlace(PageId page) {
  PageEntry& e = entry(page);
  const size_t ps = node_.layout_->page_size();
  const std::byte* cur =
      node_.replica_.get() + (static_cast<GlobalAddr>(page) << node_.layout_->page_shift());
  twins_[page].assign(cur, cur + ps);
  e.state = PageState::kReadWrite;
  node_.stats_.diff_twins_created++;
  node_.host_->Charge(TimeCategory::kDataTransfer, node_.costs_->diff_twin_copy);
  DFIL_ORACLE(OnTwinWrite(node_.self_, page));
}

void DiffProtocol::InstallWritableCopy(PageId page) {
  // OnPageReply already copied the group's bytes into the replica; twin every page of the group
  // (a write anywhere in it must be tracked) and finish the fetch writable but unowned. Under
  // adaptation the local mode must say diff BEFORE the first twin exists (FinishFetch would sync
  // it anyway, but by then the twins are already live).
  if (node_.config_.adapt_protocols) {
    DsmNode::AdaptState& st = node_.adapt_[node_.GroupRoot(page)];
    st.mode = Pcp::kDiff;
    st.calm = 0;
  }
  for (PageId p : node_.layout_->GroupPagesOf(page)) {
    TwinInPlace(p);
  }
  node_.FinishFetch(page, PageState::kReadWrite, /*ownership=*/false, /*diff_copy=*/true);
}

void DiffProtocol::OnSyncPoint() {
  ++flush_epoch_;
  FlushTwins();
  // Clean (never-written) read copies die silently, exactly like implicit-invalidate copies.
  // This covers untagged copies too (bulk/prefetch installs carry no diff tag): any copy that
  // survived a sync point could hold bytes from before other writers' merges landed at the home.
  for (PageEntry& e : node_.table_) {
    if (!e.owner && e.state == PageState::kReadOnly && !e.fetching) {
      e.state = PageState::kInvalid;
      e.diff_copy = false;
      node_.stats_.implicit_invalidations++;
      node_.NotePageDiscarded(e);
    }
  }
}

void DiffProtocol::FlushTwins() {
  if (twins_.empty()) {
    return;
  }
  TraceSpan flush_span(node_.tracer_, "dsm", "diff_flush e", flush_epoch_);
  const size_t ps = node_.layout_->page_size();
  // Encode every twin and batch the non-empty diffs by home node. std::map ordering makes both
  // the target sequence and each message's page order deterministic.
  struct PageDiff {
    PageId page;
    std::vector<net::DiffRun> runs;
  };
  std::map<NodeId, std::vector<PageDiff>> by_home;
  for (const auto& [p, twin] : twins_) {
    const std::byte* cur =
        node_.replica_.get() + (static_cast<GlobalAddr>(p) << node_.layout_->page_shift());
    node_.host_->Charge(TimeCategory::kDataTransfer, node_.costs_->diff_encode_page);
    std::vector<net::DiffRun> runs = net::DiffPageRuns(twin.data(), cur, ps);
    if (runs.empty()) {
      continue;  // the twin was never actually changed; nothing to merge
    }
    const NodeId home = node_.table_[p].probable_owner;
    DFIL_CHECK_NE(home, node_.self_) << "diff twin of a page we own (page " << p << ")";
    by_home[home].push_back(PageDiff{p, std::move(runs)});
  }
  struct Merge {
    NodeId home;
    net::Payload payload;
    uint64_t flow;
  };
  std::vector<Merge> merges;
  for (auto& [home, pages] : by_home) {
    net::WireWriter w;
    w.Put(net::DiffMergeHeader{flush_epoch_, static_cast<uint16_t>(pages.size())});
    for (const PageDiff& d : pages) {
      w.Put(net::DiffPageHeader{d.page, static_cast<uint16_t>(d.runs.size())});
      const std::byte* cur =
          node_.replica_.get() + (static_cast<GlobalAddr>(d.page) << node_.layout_->page_shift());
      for (const net::DiffRun& run : d.runs) {
        w.Put(run);
        w.PutBytes(cur + run.offset, run.len);
        node_.stats_.diff_bytes_sent += run.len;
        node_.stats_.page_data_bytes += run.len;
      }
      node_.stats_.diff_pages_flushed++;
    }
    const uint64_t flow = node_.tracer_ != nullptr ? node_.tracer_->NewTraceId() : 0;
    merges.push_back(Merge{home, w.Take(), flow});
  }
  // Sync-batch mode: remember what was flushed where — the next epoch's first fault into a set
  // re-fetches the whole set with bulk requests instead of RTT-chained single-page faults.
  if (node_.sync_batch()) {
    last_flush_sets_.clear();
    for (const auto& [p, twin] : twins_) {
      last_flush_sets_[node_.table_[p].probable_owner].insert(p);
    }
  }
  // The merge to the barrier parent goes out gated: its ack is elided (the done broadcast stands
  // in), it does not count as an outstanding fetch, and the transport holds its frame so it packs
  // with the reduce-up of the same sync point.
  const bool gating = node_.sync_batch() && node_.barrier_parent_ != kNoNode;
  auto is_gated = [&](const Merge& m) { return gating && m.home == node_.barrier_parent_; };
  // Count every acked merge as an outstanding fetch BEFORE sending any: a send's time charge can
  // dispatch pending events (even this flush's own ack), and a premature zero crossing would
  // release the barrier's drain wait while merges are still unacknowledged.
  int acked_merges = 0;
  for (const Merge& m : merges) {
    if (!is_gated(m)) {
      ++acked_merges;
    }
  }
  node_.pending_fetches_ += acked_merges;
  const uint64_t epoch = flush_epoch_;
  for (Merge& m : merges) {
    node_.stats_.diff_merges_sent++;
    if (NodeTracer* tr = node_.tracer(); tr != nullptr) {
      tr->Flow(kFlowStart, "dsm", "diff e" + std::to_string(epoch), m.flow);
    }
    TraceContext trace_ctx(node_.tracer_, m.flow);
    if (is_gated(m)) {
      DFIL_CHECK_EQ(gated_merge_req_, uint64_t{0})
          << "gated merge of epoch " << gated_merge_epoch_ << " still pending";
      gated_merge_epoch_ = epoch;
      gated_merge_req_ = node_.packet_->SendRequest(m.home, net::Service::kDiffMergeGated,
                                                    std::move(m.payload), /*on_reply=*/nullptr,
                                                    TimeCategory::kDataTransfer);
      continue;
    }
    node_.packet_->SendRequest(
        m.home, net::Service::kDiffMerge, std::move(m.payload),
        [this, epoch, flow = m.flow](net::Payload) {
          if (NodeTracer* tr = node_.tracer(); tr != nullptr) {
            tr->Flow(kFlowEnd, "dsm", "diff e" + std::to_string(epoch), flow);
          }
          DFIL_CHECK_GT(node_.pending_fetches_, 0);
          if (--node_.pending_fetches_ == 0) {
            node_.host_->FetchesDrained();
          }
        },
        TimeCategory::kDataTransfer);
  }
  // The flushed copies die like any sync-point copy; the home's frame is now authoritative.
  for (const auto& [p, twin] : twins_) {
    PageEntry& e = node_.table_[p];
    e.state = PageState::kInvalid;
    e.diff_copy = false;
    node_.stats_.implicit_invalidations++;
    node_.NotePageDiscarded(e);
  }
  twins_.clear();
}

std::optional<net::Payload> DiffProtocol::ServeMerge(NodeId src, net::WireReader body,
                                                     bool gated) {
  const auto h = body.Get<net::DiffMergeHeader>();
  TraceSpan apply_span(node_.tracer_, "dsm", "diff_apply e", h.epoch);
  if (NodeTracer* tr = node_.tracer(); tr != nullptr) {
    tr->Flow(kFlowStep, "dsm", "diff e" + std::to_string(h.epoch), tr->current());
  }
  // A gated merge's ack is elided: the sender treats the barrier done broadcast (which this node
  // only sends after applying the merge) as the acknowledgment.
  if (gated) {
    node_.packet_->ElideCurrentReply();
  }
  const auto it = applied_epoch_.find(src);
  if (it != applied_epoch_.end() && h.epoch <= it->second) {
    // A retransmission (or delayed duplicate) of a flush we already merged; re-ack without
    // re-applying, so a lost ack can never double-apply runs.
    node_.stats_.diff_stale_merges_ignored++;
    return net::Payload{};
  }
  applied_epoch_[src] = h.epoch;
  std::vector<std::byte> scratch(node_.layout_->page_size());
  bool applied_any = false;
  for (uint16_t i = 0; i < h.npages; ++i) {
    const auto ph = body.Get<net::DiffPageHeader>();
    // Ownership is pinned while diff copies exist (see OnRemoteRequest), so merges always find
    // their home; a page we no longer own can only appear in pathological injected schedules,
    // and its runs are consumed without touching the frame.
    const bool own = node_.table_[ph.page].owner;
    std::byte* frame =
        node_.replica_.get() + (static_cast<GlobalAddr>(ph.page) << node_.layout_->page_shift());
    std::vector<net::DiffRun> runs;
    runs.reserve(ph.nruns);
    for (uint16_t r = 0; r < ph.nruns; ++r) {
      const auto run = body.Get<net::DiffRun>();
      body.GetBytes(own ? frame + run.offset : scratch.data(), run.len);
      runs.push_back(run);
    }
    if (!own) {
      node_.stats_.diff_stale_merges_ignored++;
      continue;
    }
    node_.host_->Charge(TimeCategory::kDataTransfer, node_.costs_->diff_apply_page);
    node_.stats_.diff_pages_merged++;
    if (node_.config_.adapt_protocols) {
      node_.NoteAdaptTraffic(ph.page);  // incoming merges keep the group hot (and pinned)
    }
    applied_any = true;
    DFIL_ORACLE(OnDiffMergeApplied(node_.self_, src, ph.page, h.epoch, runs));
  }
  if (applied_any) {
    node_.stats_.diff_merges_applied++;
  }
  return net::Payload{};  // empty ack; the sender's barrier drain waits on it
}

void DiffProtocol::OnBarrierDone() {
  if (gated_merge_req_ != 0) {
    // The done broadcast proves the parent applied (or durably recorded) our gated merge; stop
    // retransmitting it.
    node_.packet_->CancelRequest(gated_merge_req_);
    gated_merge_req_ = 0;
  }
}

}  // namespace dfil::dsm
