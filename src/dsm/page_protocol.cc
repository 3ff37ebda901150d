// Strategy implementations for the four page-consistency protocols (the policy half of DsmNode).
//
// The single-writer protocols (migratory, write-invalidate, implicit-invalidate) are verbatim
// extractions of the pre-seam fault/serve/sync branches — their message schedules and wire bytes
// are unchanged, which the bench/baselines/jacobi_gate.json schedule-invariance gate pins. The
// diff protocol is new; DESIGN.md §10 describes it.
#include "src/dsm/page_protocol.h"

#include <algorithm>
#include <cstring>
#include <span>
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

void PageProtocol::OnRemoteRequest(NodeId src, PageId page, AccessMode mode, uint32_t fault_seq,
                                   net::WireWriter& reply) {
  if (!TransfersOwnership(mode)) {
    node_.ServeReadCopy(src, page, /*extra_flags=*/0, reply);
  } else {
    node_.ServeTransfer(src, page, fault_seq, reply);
  }
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
  node_.DropReadCopies();
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
  const auto it = std::lower_bound(
      last_flush_sets_.begin(), last_flush_sets_.end(), page,
      [](const FlushSetPage& f, PageId p) { return f.page < p; });
  if (it == last_flush_sets_.end() || it->page != page) {
    return false;
  }
  // The whole set this node flushed to `home` last epoch is about to be re-read; fetch it back in
  // maximal runs of consecutive pages, in page order. Two consecutive pages of one set sit next
  // to each other in the list. StartBulkFetch skips pages that are present, fetching, grouped, or
  // owned here, so overlap with other traffic is safe.
  const NodeId home = it->home;
  const auto in_set = [home](const FlushSetPage& f) { return f.home == home; };
  size_t i = 0;
  while (i < last_flush_sets_.size()) {
    if (!in_set(last_flush_sets_[i])) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < last_flush_sets_.size() && in_set(last_flush_sets_[j]) &&
           last_flush_sets_[j].page == last_flush_sets_[j - 1].page + 1) {
      ++j;
    }
    node_.StartBulkFetch(last_flush_sets_[i].page, static_cast<int>(j - i));
    i = j;
  }
  std::erase_if(last_flush_sets_, in_set);  // one-shot: a second fault must not re-issue the sweep
  node_.stats_.diff_bulk_refetches++;
  return node_.table_[page].fetching;
}

void DiffProtocol::OnRemoteRequest(NodeId src, PageId page, AccessMode mode, uint32_t fault_seq,
                                   net::WireWriter& reply) {
  (void)fault_seq;  // ownership never transfers, so the grant machinery is never engaged
  if (node_.config_.adapt_protocols && mode == AccessMode::kWrite) {
    // Served write copies keep the group hot — and thereby pinned to this owner: a group with
    // live diff writers can never go calm and flip back to implicit-invalidate mid-use.
    node_.NoteAdaptTraffic(page);
  }
  node_.ServeReadCopy(src, page, kReplyFlagDiff, reply);
}

void DiffProtocol::TwinInPlace(PageId page) {
  PageEntry& e = entry(page);
  const size_t ps = node_.layout_->page_size();
  const std::byte* cur = node_.PageBytes(page);
  auto it = twins_.lower_bound(page);
  if (it == twins_.end() || it->first != page) {
    if (spare_twins_.empty()) {
      it = twins_.emplace_hint(it, page, std::vector<std::byte>());
    } else {
      TwinMap::node_type twin = std::move(spare_twins_.back());
      spare_twins_.pop_back();
      twin.key() = page;
      it = twins_.insert(it, std::move(twin));
    }
  }
  it->second.assign(cur, cur + ps);
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
  node_.DropReadCopies();
}

void DiffProtocol::FlushTwins() {
  if (twins_.empty()) {
    return;
  }
  TraceSpan flush_span(node_.tracer_, "dsm", "diff_flush e", flush_epoch_);
  const size_t ps = node_.layout_->page_size();
  // Encode every twin into one run list; each changed page records its slice of it.
  flush_runs_.clear();
  flush_pages_.clear();
  for (const auto& [p, twin] : twins_) {
    node_.host_->Charge(TimeCategory::kDataTransfer, node_.costs_->diff_encode_page);
    const size_t first = flush_runs_.size();
    net::AppendDiffPageRuns(twin.data(), node_.PageBytes(p), ps, flush_runs_);
    if (flush_runs_.size() == first) {
      continue;  // the twin was never actually changed; nothing to merge
    }
    const NodeId home = node_.table_[p].probable_owner;
    DFIL_CHECK_NE(home, node_.self_) << "diff twin of a page we own (page " << p << ")";
    flush_pages_.push_back(FlushedPage{home, p, first, flush_runs_.size() - first});
  }
  // One kDiffMerge per home, homes in ascending order and each message's pages in page order.
  std::sort(flush_pages_.begin(), flush_pages_.end(),
            [](const FlushedPage& a, const FlushedPage& b) {
              return a.home != b.home ? a.home < b.home : a.page < b.page;
            });
  struct Merge {
    NodeId home;
    net::Payload payload;
    uint64_t flow;
  };
  std::vector<Merge> merges;
  for (size_t begin = 0; begin < flush_pages_.size();) {
    const NodeId home = flush_pages_[begin].home;
    size_t end = begin;
    size_t bytes = sizeof(net::DiffMergeHeader);
    for (; end < flush_pages_.size() && flush_pages_[end].home == home; ++end) {
      const FlushedPage& d = flush_pages_[end];
      bytes += sizeof(net::DiffPageHeader) + d.count * sizeof(net::DiffRun);
      for (size_t r = d.first; r < d.first + d.count; ++r) {
        bytes += flush_runs_[r].len;
      }
    }
    net::WireWriter w;
    w.Reserve(bytes);
    w.Put(net::DiffMergeHeader{flush_epoch_, static_cast<uint16_t>(end - begin)});
    for (size_t k = begin; k < end; ++k) {
      const FlushedPage& d = flush_pages_[k];
      w.Put(net::DiffPageHeader{d.page, static_cast<uint16_t>(d.count)});
      const std::byte* cur = node_.PageBytes(d.page);
      for (size_t r = d.first; r < d.first + d.count; ++r) {
        const net::DiffRun run = flush_runs_[r];
        w.Put(run);
        w.PutBytes(cur + run.offset, run.len);
        node_.stats_.diff_bytes_sent += run.len;
        node_.stats_.page_data_bytes += run.len;
      }
      node_.stats_.diff_pages_flushed++;
    }
    const uint64_t flow = node_.tracer_ != nullptr ? node_.tracer_->NewTraceId() : 0;
    merges.push_back(Merge{home, w.Take(), flow});
    begin = end;
  }
  // Sync-batch mode: remember what was flushed where — the next epoch's first fault into a set
  // re-fetches the whole set with bulk requests instead of RTT-chained single-page faults.
  if (node_.sync_batch()) {
    last_flush_sets_.clear();
    for (const auto& [p, twin] : twins_) {
      last_flush_sets_.push_back(FlushSetPage{p, node_.table_[p].probable_owner});
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
        [this, epoch, flow = m.flow](net::WireReader) {
          if (NodeTracer* tr = node_.tracer(); tr != nullptr) {
            tr->Flow(kFlowEnd, "dsm", "diff e" + std::to_string(epoch), flow);
          }
          node_.EndFetch();
        },
        TimeCategory::kDataTransfer);
  }
  // The flushed copies die like any sync-point copy; the home's frame is now authoritative. Their
  // twins go to the spare list.
  while (!twins_.empty()) {
    node_.DropCopy(node_.table_[twins_.begin()->first]);
    spare_twins_.push_back(twins_.extract(twins_.begin()));
  }
}

void DiffProtocol::ServeMerge(NodeId src, net::WireReader body, bool gated) {
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
    return;
  }
  applied_epoch_[src] = h.epoch;
  bool applied_any = false;
  std::vector<net::DiffRun> oracle_runs;  // a page's runs, kept only for the coherence oracle
  for (uint16_t i = 0; i < h.npages; ++i) {
    const auto ph = body.Get<net::DiffPageHeader>();
    // Ownership is pinned while diff copies exist (see OnRemoteRequest), so merges always find
    // their home; a page we no longer own can only appear in pathological injected schedules,
    // and its runs are consumed without touching the frame.
    const bool own = node_.table_[ph.page].owner;
    std::byte* frame = node_.PageBytes(ph.page);
    oracle_runs.clear();
    for (uint16_t r = 0; r < ph.nruns; ++r) {
      const auto run = body.Get<net::DiffRun>();
      const std::span<const std::byte> bytes = body.GetSpan(run.len);
      if (own) {
        std::memcpy(frame + run.offset, bytes.data(), run.len);
      }
      if (node_.oracle_ != nullptr) {
        oracle_runs.push_back(run);
      }
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
    DFIL_ORACLE(OnDiffMergeApplied(node_.self_, src, ph.page, h.epoch, oracle_runs));
  }
  if (applied_any) {
    node_.stats_.diff_merges_applied++;
  }
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
