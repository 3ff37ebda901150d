// Packet: the paper's low-overhead reliable datagram protocol (§3, Figure 3).
//
// Communication occurs in request/reply pairs over an unreliable datagram substrate (simulated
// UDP). Only requests are buffered — they are short — and a request is retransmitted until its
// reply arrives; replies are never buffered, they are rebuilt from current state when a duplicate
// request is served (so services must be idempotent, like page replies, which are constructed
// from the current page contents). For the few non-idempotent services (e.g. fork results) an
// endpoint keeps a small, time-bounded response cache per requester, a VMTP-style extension
// documented in DESIGN.md. Unlike VMTP, send/receive/reply is fully asynchronous.
//
// The critical-section mechanism (§3): a node marks itself "in a critical section" with a single
// flag assignment; while the flag is set, requests whose service mutates critical data are simply
// ignored — the requester's retransmission recovers them.
//
// Raw (unreliable) sends are also provided; the paper's coarse-grain comparison programs use bare
// UDP and hang when a message is lost, which the benches reproduce.
#ifndef DFIL_NET_PACKET_H_
#define DFIL_NET_PACKET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ledger.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/net/wire.h"
#include "src/sim/machine.h"

namespace dfil::net {

// Upper-layer service numbers. Declared centrally so traces are readable.
enum class Service : uint16_t {
  // DSM
  kPageRequest = 1,
  kInvalidate = 2,
  kBulkPageRequest = 3,  // page-run [first, count] fetch; unowned pages come back as misses
  kDiffMerge = 4,        // multiple-writer diff flush, merged into the home node's frame
  kDiffMergeGated = 5,   // a diff merge whose ack is elided: the barrier done broadcast stands in
  kRehomePages = 6,      // rebalance ownership handoff: a batch of pages re-homed to the requester
  // Reductions
  kReduceUp = 10,
  kReduceDone = 11,  // raw broadcast dissemination
  // Fork/join
  kForkShip = 20,
  kJoinResult = 21,
  kStealWork = 22,
  kTerminate = 23,  // raw broadcast: fork/join computation finished
  kFilamentMigrate = 24,  // rebalance plan execution: a batch of stackless filaments changes node
  // Coarse-grain application traffic (raw UDP semantics)
  kAppData = 30,
  // Tests
  kTestEcho = 100,
  kTestMutate = 101,
};

// Human-readable service name for traces and metric keys ("page_request", "reduce_up", ...).
const char* ServiceName(Service service);

// Per-destination frame coalescing (DESIGN.md §11). Off by default; when disabled the wire
// format, charges, and message schedule are byte-identical to the uncoalesced protocol.
struct CoalesceConfig {
  bool enabled = false;
};

// Coalescing's fixed parameters.
// Flush when packing one more frame would push the datagram payload past this limit (a
// UDP-practical MTU on the simulated network; a single oversized frame still goes out alone).
inline constexpr size_t kMaxDatagramBytes = 8800;
// How long a tolerant (held) frame may wait for a carrier before its hold timer flushes it.
// Sized to cover the fault skew between neighbouring nodes in a phase-locked exchange (they
// reach their boundary pages several ms apart); the just-served filter in ShouldHold keeps
// this from charging fetches whose carrier already left.
inline constexpr SimTime kRequestHold = Milliseconds(20.0);
// A page/bulk request to a lower-numbered mutual peer — one that requested from us within this
// window — is held briefly so it can ride on our reply to that peer's next request.
inline constexpr SimTime kMutualWindow = Milliseconds(250.0);
// Retransmission floor for requests whose ack is elided (gated merges, reduce-ups): their
// "ack" is the barrier done broadcast, which arrives an epoch-scale time later, so the timer
// is a loss-recovery backstop — an RTT-scale RTO would retransmit spuriously every barrier.
inline constexpr SimTime kElidedAckTimeout = Milliseconds(1000.0);

struct PacketConfig {
  SimTime retransmit_timeout = Milliseconds(100.0);  // >> quiet RTT and transient reply queueing
  // Cap of the exponential backoff, and of the estimated RTO. Backoff never shrinks a timer: one
  // that started above the cap (kElidedAckTimeout, a large-reply floor) keeps its length.
  SimTime retransmit_timeout_max = Milliseconds(400.0);
  // Lower clamp for the Jacobson/Karels estimated retransmission timeout (coalescing mode).
  // Defaults to the legacy fixed timeout: the estimator exists to stretch the RTO on slow or
  // congested paths, not to undercut a value the uncoalesced protocol never retransmits at —
  // a shared-medium barrier routinely queues an ack past any quiet-time RTT estimate.
  SimTime rto_min = Milliseconds(100.0);
};

// Attempts per request before the run ends softly: Machine::Fail.
inline constexpr int kRetransmitLimit = 60;

// How long a cached non-idempotent reply stays valid, in initial retransmission timeouts.
inline constexpr int kResponseCacheTimeouts = 20;

// Statistics specific to the Packet layer of one node.
#define DFIL_PACKET_STATS(X)                                                                       \
  X(requests_sent)                                                                                 \
  X(replies_sent)                                                                                  \
  /* Always 0: replies are never buffered, so none is acknowledged or retransmitted. Kept */       \
  /* because every metrics export, `dfil figure9` and the host-time benchmark read them. */        \
  X(acks_sent)                                                                                     \
  X(reply_retransmissions)                                                                         \
  X(retransmissions)                                                                               \
  X(duplicate_requests)                                                                            \
  X(duplicate_replies)                                                                             \
  X(deferred_requests) /* ignored due to a critical section or a busy service */                   \
  X(raw_sent)                                                                                      \
  /* Idempotent services only: replies are never buffered, so a retransmitted request makes */     \
  /* the service rebuild its reply from current state (paper Figure 3c). Splitting first */        \
  /* serves from rebuilds makes that loss-recovery path, and bulk-reply idempotence, */            \
  /* observable in tests. */                                                                       \
  X(replies_first_serve)                                                                           \
  X(replies_rebuilt)                                                                               \
  /* Wire-level accounting: one datagram may carry many logical frames when coalescing is on. */   \
  X(datagrams_sent)                                                                                \
  X(wire_bytes)        /* framed bytes on the wire (link headers + packed frames) */               \
  X(frames_coalesced)  /* frames that rode an already-open datagram */                             \
  X(replies_elided)    /* idempotent replies suppressed (a later frame stands in) */               \
  X(requests_canceled) /* outstanding requests canceled before their reply arrived */

struct PacketStats {
  DFIL_STATS_STRUCT_BODY(PacketStats, DFIL_PACKET_STATS)
};

// The node an endpoint runs on, as the Packet layer sees it: a simulated host whose clock the
// endpoint reads and charges, and whose critical-section flag gates the mutating services.
class PacketHost : public sim::NodeHost {
 public:
  // Charges CPU cost to this node's virtual clock.
  virtual void Charge(TimeCategory category, SimTime cost) = 0;
  // While true, requests for mutating (non-idempotent) services are ignored.
  virtual bool InCriticalSection() const = 0;
};

// Every frame on the wire is a header of this many bytes followed by its body.
inline constexpr size_t kFrameHeaderBytes = 24;

// The reply a service writes (PacketEndpoint::ServiceFn). Its buffer opens with room for the frame
// header, which the endpoint fills in once the service returns; the endpoint then sends or queues
// that same buffer, so a reply's bytes are written once, into the frame they go out in.
class ReplyWriter {
 public:
  ReplyWriter(const ReplyWriter&) = delete;
  ReplyWriter& operator=(const ReplyWriter&) = delete;

  // The body's writer, its buffer sized for the header room plus `bytes` of body (the body may
  // grow past that). Call it once, before writing; a reply never opened has an empty body.
  WireWriter& Body(size_t bytes = 0) {
    DFIL_DCHECK(!opened_) << "a reply's body is opened once";
    opened_ = true;
    writer_.Reserve(kFrameHeaderBytes + bytes);
    writer_.PutZeros(kFrameHeaderBytes);
    return writer_;
  }

 private:
  friend class PacketEndpoint;
  ReplyWriter() = default;

  WireWriter writer_;
  bool opened_ = false;
};

// One node's endpoint of the Packet protocol.
class PacketEndpoint {
 public:
  // A service reads a request body, writes the reply into `reply` and returns true, or returns
  // false to defer the request entirely (it will be served on a later retransmission; whatever it
  // wrote is dropped). Services, reply handlers and raw handlers all read their body in place:
  // the reader points into the received datagram, whose buffer is recycled once the handler
  // returns, so a handler copies whatever it keeps.
  using ServiceFn = std::function<bool(NodeId src, WireReader body, ReplyWriter& reply)>;
  using ReplyFn = std::function<void(WireReader reply)>;
  using RawFn = std::function<void(NodeId src, WireReader body)>;

  // `host` owns the endpoint and outlives it; the endpoint takes its node id from it.
  PacketEndpoint(sim::Machine* machine, PacketHost* host, PacketConfig config);
  ~PacketEndpoint();

  PacketEndpoint(const PacketEndpoint&) = delete;
  PacketEndpoint& operator=(const PacketEndpoint&) = delete;

  // Registers the handler for `service`. Non-idempotent services get the response cache.
  // `recv_category` is the accounting bucket charged for receiving traffic of this service
  // (page traffic counts as data transfer, barrier traffic as synchronization overhead, ...).
  void RegisterService(Service service, ServiceFn fn, bool idempotent,
                       TimeCategory recv_category = TimeCategory::kSyncOverhead);
  void RegisterRawHandler(Service service, RawFn fn,
                          TimeCategory recv_category = TimeCategory::kSyncOverhead);

  // Sends a reliable request; `on_reply` runs on this node when the reply arrives. The request
  // body is buffered (it must be small; the paper's are <= 20 bytes) and retransmitted on timeout.
  // Returns the request id. `expected_reply_bytes`, when nonzero and coalescing is on, floors the
  // initial timeout at the serialized wire time of this reply plus every large reply `dst` still
  // owes this node, times the node count: the backlog at `dst` when every peer has as many queued
  // there. A bulk reply queued behind the others on the shared wire is then not spuriously
  // retransmitted (and rebuilt) by a short estimated RTO.
  uint64_t SendRequest(NodeId dst, Service service, Payload body, ReplyFn on_reply,
                       TimeCategory charge_as = TimeCategory::kSyncOverhead,
                       size_t expected_reply_bytes = 0);

  // Cancels an outstanding request: its retransmission timer stops and a late reply is dropped as
  // a duplicate. Used when a broader signal (the barrier done broadcast) supersedes the reply.
  void CancelRequest(uint64_t req_id);

  // Callable from inside a ServiceFn of an *idempotent* service: the reply the service writes
  // is not transmitted (a later frame — e.g. the done broadcast — stands in for it).
  // The service still counts as served, so a retransmission rebuilds normally.
  void ElideCurrentReply();

  // Flushes every queued frame (held and batched) to `dst` immediately. No-op when nothing is
  // queued or coalescing is off.
  void Flush(NodeId dst);

  // Enables/configures coalescing. Call before traffic flows (the runtime does, at construction).
  void set_coalesce(const CoalesceConfig& coalesce) { coalesce_ = coalesce; }
  const CoalesceConfig& coalesce() const { return coalesce_; }

  // Unreliable one-shot datagrams (bare UDP semantics).
  void SendRaw(NodeId dst, Service service, std::span<const std::byte> body,
               TimeCategory charge_as = TimeCategory::kSyncOverhead);
  void BroadcastRaw(Service service, std::span<const std::byte> body,
                    TimeCategory charge_as = TimeCategory::kSyncOverhead);

  // Datagram ingress (wired from the owning NodeHost). Charges receive overhead, dispatches each
  // frame in place, then hands the datagram's buffer back for reuse (ReturnSpare).
  void OnDatagram(sim::Datagram d);

  // Requests still awaiting a reply. Nodes delay at synchronization points until this is zero.
  size_t outstanding() const { return outstanding_.size(); }

  const PacketStats& stats() const { return stats_; }

  // Observability wiring (optional; set by the runtime after construction). The tracer supplies
  // the causal trace id stamped on every outgoing packet — requests carry the sender's current
  // context, replies echo the request's id, retransmissions re-stamp the original — and
  // incoming handlers run under the message's id so nested sends inherit it. The metrics registry
  // receives the per-service send counters and the outstanding-pipeline-depth histogram.
  void set_tracer(NodeTracer* tracer) { tracer_ = tracer; }
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  // When set, every RTO expiry books a kRetransmit blocked interval spanning [first send, expiry]
  // — the stall the retransmission is recovering from — in the node's time ledger.
  void set_ledger(TimeLedger* ledger) { ledger_ = ledger; }

  // Messages transmitted per service (requests, replies and raws combined), for the Figure 9
  // message-count table.
  const std::map<uint16_t, uint64_t>& sent_by_service() const { return sent_by_service_; }

 private:
  // kPacked marks a coalesced multi-frame datagram: Header{kPacked, 0, nframes, 0} followed by
  // nframes x (uint32_t len, then a full legacy Header + body of `len` bytes). kPacked keeps its
  // wire value, so 4 is unused.
  enum class Kind : uint8_t { kRequest = 1, kReply = 2, kRaw = 3, kPacked = 5 };

  struct Header {
    Kind kind;
    uint16_t service;
    uint64_t req_id;
    uint64_t trace;  // causal trace id; 0 = no context
  };
  static_assert(sizeof(Header) == kFrameHeaderBytes);

  struct Outstanding {
    NodeId dst;
    Service service;
    Payload body;  // buffered for retransmission
    ReplyFn on_reply;
    sim::EventHandle timer;
    SimTime timeout;
    SimTime sent_at = 0;              // first-send time, for RTT sampling (Karn's rule)
    size_t expected_reply_bytes = 0;  // floors the estimated RTO (see SendRequest)
    int attempts;
    TimeCategory charge_as;
    uint64_t trace = 0;  // re-stamped on retransmissions
  };

  // One logical message waiting in a per-destination coalescing queue.
  struct QueuedFrame {
    Kind kind;
    Service service;
    uint64_t trace;
    Payload bytes;  // Header + body: exactly what a singleton datagram carries
  };

  struct DstQueue {
    std::vector<QueuedFrame> held;   // tolerant frames: wait for a carrier or their hold timer
    std::vector<QueuedFrame> batch;  // critical frames: flushed by the same-clock flush event
    size_t bytes = 0;                // serialized frame bytes queued (excluding the outer header)
    sim::EventHandle hold_timer;
    bool hold_armed = false;
  };

  // Jacobson/Karels per-peer RTT estimate (srtt/rttvar in SimTime units).
  struct PeerRtt {
    SimTime srtt = 0;
    SimTime rttvar = 0;
    bool valid = false;
  };

  struct ServiceEntry {
    ServiceFn fn;
    bool idempotent = true;
    TimeCategory recv_category = TimeCategory::kSyncOverhead;
  };

  struct RawEntry {
    RawFn fn;
    TimeCategory recv_category = TimeCategory::kSyncOverhead;
  };

  struct CachedReply {
    Payload frame;  // as first sent
    SimTime expires;
  };

  // Header + body in one buffer sized to fit, for a frame whose body the endpoint keeps (a
  // request's, for retransmission) or was handed as a view (raw sends).
  static Payload Frame(Kind kind, Service service, uint64_t req_id, uint64_t trace,
                       std::span<const std::byte> body);
  // A service's reply as a frame: the header is written into the room `reply` opened with.
  static Payload TakeReplyFrame(ReplyWriter& reply, Service service, uint64_t req_id,
                                uint64_t trace);
  // A legacy (one-frame) datagram carrying `frame` as it is; records its datagram-level stats.
  sim::Datagram LegacyDatagram(NodeId dst, Kind kind, Service service, uint64_t trace,
                               Payload frame);
  // Sends `frame` to `dst`: queued as a critical frame when coalescing, else as its own datagram.
  void SendFrame(NodeId dst, Kind kind, Service service, Payload frame, TimeCategory charge_as,
                 uint64_t trace);
  void Transmit(NodeId dst, Kind kind, Service service, uint64_t req_id,
                std::span<const std::byte> body, TimeCategory charge_as, uint64_t trace);
  // Coalescing send path: queues `frame` to `dst` (charging send overhead for the first frame,
  // the marginal pack cost for the rest). Critical frames arm the same-clock flush event; held
  // frames wait for a carrier or their per-destination hold timer.
  void Enqueue(NodeId dst, Kind kind, Service service, Payload frame, TimeCategory charge_as,
               uint64_t trace, bool held, SimTime hold_for);
  // True when a page/bulk request to `dst` should be held for mutual-peer piggybacking, or the
  // service is a gated diff merge (always held; it rides the reduce-up frame).
  bool ShouldHold(NodeId dst, Service service) const;
  // Arms the flush event at the current clock; the strict event-before-step rule in Machine::Run
  // guarantees it fires before this node executes past the current instant.
  void ScheduleFlushEvent();
  void FlushBatches();
  // Sends every frame queued to `dst` (held ones first) as one datagram, and empties the queue.
  void FlushQueue(NodeId dst, DstQueue& q);
  // Datagram-level stats: wire bytes (link framing + payload) and the per-datagram histograms.
  void RecordDatagram(size_t payload_bytes, size_t nframes);
  // Initial retransmission timeout for a request to `dst` (fixed when coalescing is off; the
  // estimated RTO clamped to [rto_min, retransmit_timeout_max] and floored by the wire time of
  // the large replies owed by `dst` when on; see SendRequest).
  SimTime InitialTimeout(NodeId dst, size_t expected_reply_bytes) const;
  // Feeds one reply into the per-peer RTT estimator (Karn's rule: first-attempt samples only).
  void UpdateRtt(NodeId src, const Outstanding& out);
  // Dispatches one unpacked frame; `first` selects full receive overhead vs the marginal cost.
  void DispatchFrame(NodeId src, const Header& h, WireReader body, bool first);
  // The node's current causal trace id (0 when no tracer is wired).
  uint64_t CurTrace() const { return tracer_ != nullptr ? tracer_->current() : 0; }
  void ArmTimer(uint64_t req_id);
  void OnTimeout(uint64_t req_id);
  void HandleRequest(NodeId src, uint64_t req_id, Service service, WireReader body);
  void HandleReply(NodeId src, uint64_t req_id, WireReader body);

  sim::Machine* machine_;
  PacketHost* host_;
  NodeId self_;
  PacketConfig config_;
  CoalesceConfig coalesce_;
  PacketStats stats_;
  NodeTracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  TimeLedger* ledger_ = nullptr;
  std::map<uint16_t, uint64_t> sent_by_service_;

  uint64_t next_req_id_ = 1;
  std::map<uint64_t, Outstanding> outstanding_;

  // --- Coalescing state (all empty/idle when coalesce_.enabled is false) ---
  std::map<NodeId, DstQueue> queues_;
  bool flush_event_pending_ = false;
  sim::EventHandle flush_event_;
  // Last time each peer sent us a page/bulk request (drives the mutual-peer hold heuristic).
  std::map<NodeId, SimTime> last_req_from_;
  // Set by ElideCurrentReply() from inside the currently-running ServiceFn.
  bool elide_current_reply_ = false;

  // Per-peer RTT estimates; always maintained (net.rto_us), applied to timers when coalescing on.
  std::map<NodeId, PeerRtt> peer_rtt_;
  std::unordered_map<uint16_t, ServiceEntry> services_;
  std::unordered_map<uint16_t, RawEntry> raw_handlers_;

  // Response cache for non-idempotent services: (src, req_id) -> reply, evicted FIFO.
  static constexpr size_t kResponseCacheCap = 1024;
  std::map<std::pair<NodeId, uint64_t>, CachedReply> response_cache_;
  std::deque<std::pair<NodeId, uint64_t>> cache_fifo_;

  // Request ids already served to each requester (idempotent services), splitting first serves
  // from rebuilt-from-state re-serves in the stats. Bounded FIFO; an evicted id at worst
  // misclassifies a very late retransmission as a first serve.
  static constexpr size_t kServedIdsCap = 4096;
  std::set<std::pair<NodeId, uint64_t>> served_requests_;
  std::deque<std::pair<NodeId, uint64_t>> served_fifo_;
  HistogramRef frames_per_datagram_{"net.frames_per_datagram"};
  HistogramRef bytes_per_datagram_{"net.bytes_per_datagram"};
  HistogramRef serve_queue_depth_{"net.serve_queue_depth"};
  HistogramRef rto_us_{"net.rto_us"};
};

}  // namespace dfil::net

#endif  // DFIL_NET_PACKET_H_
