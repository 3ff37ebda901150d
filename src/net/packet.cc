#include "src/net/packet.h"

#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"

namespace dfil::net {

const char* ServiceName(Service service) {
  switch (service) {
    case Service::kPageRequest:
      return "page_request";
    case Service::kInvalidate:
      return "invalidate";
    case Service::kBulkPageRequest:
      return "bulk_page_request";
    case Service::kDiffMerge:
      return "diff_merge";
    case Service::kDiffMergeGated:
      return "diff_merge_gated";
    case Service::kRehomePages:
      return "rehome_pages";
    case Service::kReduceUp:
      return "reduce_up";
    case Service::kReduceDone:
      return "reduce_done";
    case Service::kForkShip:
      return "fork_ship";
    case Service::kJoinResult:
      return "join_result";
    case Service::kStealWork:
      return "steal_work";
    case Service::kTerminate:
      return "terminate";
    case Service::kFilamentMigrate:
      return "filament_migrate";
    case Service::kAppData:
      return "app_data";
    case Service::kTestEcho:
      return "test_echo";
    case Service::kTestMutate:
      return "test_mutate";
  }
  return "unknown";
}

PacketEndpoint::PacketEndpoint(sim::Machine* machine, PacketHost* host, PacketConfig config)
    : machine_(machine), host_(host), self_(host->id()), config_(config) {}

PacketEndpoint::~PacketEndpoint() {
  for (auto& [id, out] : outstanding_) {
    out.timer.Cancel();
  }
  for (auto& [dst, q] : queues_) {
    if (q.hold_armed) {
      q.hold_timer.Cancel();
    }
  }
  if (flush_event_pending_) {
    flush_event_.Cancel();
  }
}

void PacketEndpoint::RegisterService(Service service, ServiceFn fn, bool idempotent,
                                     TimeCategory recv_category) {
  auto [it, inserted] = services_.emplace(static_cast<uint16_t>(service),
                                          ServiceEntry{std::move(fn), idempotent, recv_category});
  DFIL_CHECK(inserted) << "service registered twice: " << static_cast<int>(service);
}

void PacketEndpoint::RegisterRawHandler(Service service, RawFn fn, TimeCategory recv_category) {
  auto [it, inserted] = raw_handlers_.emplace(static_cast<uint16_t>(service),
                                              RawEntry{std::move(fn), recv_category});
  DFIL_CHECK(inserted) << "raw handler registered twice: " << static_cast<int>(service);
}

Payload PacketEndpoint::Frame(Kind kind, Service service, uint64_t req_id, uint64_t trace,
                              std::span<const std::byte> body) {
  WireWriter w;
  w.Reserve(sizeof(Header) + body.size());
  w.Put(Header{kind, static_cast<uint16_t>(service), req_id, trace});
  w.PutBytes(body.data(), body.size());
  return w.Take();
}

Payload PacketEndpoint::TakeReplyFrame(ReplyWriter& reply, Service service, uint64_t req_id,
                                       uint64_t trace) {
  if (!reply.opened_) {
    reply.Body();
  }
  reply.writer_.PutAt(0, Header{Kind::kReply, static_cast<uint16_t>(service), req_id, trace});
  return reply.writer_.Take();
}

sim::Datagram PacketEndpoint::LegacyDatagram(NodeId dst, Kind kind, Service service,
                                             uint64_t trace, Payload frame) {
  RecordDatagram(frame.size(), 1);
  sim::Datagram d;
  d.src = self_;
  d.dst = dst;
  d.type = static_cast<uint32_t>(service);
  d.klass = static_cast<sim::MsgClass>(kind);
  d.trace = trace;
  d.payload = std::move(frame);
  return d;
}

void PacketEndpoint::SendFrame(NodeId dst, Kind kind, Service service, Payload frame,
                               TimeCategory charge_as, uint64_t trace) {
  // Kind and sim::MsgClass share the wire numbering so fault rules can filter on the class.
  static_assert(static_cast<uint8_t>(Kind::kRequest) ==
                static_cast<uint8_t>(sim::MsgClass::kRequest));
  static_assert(static_cast<uint8_t>(Kind::kReply) == static_cast<uint8_t>(sim::MsgClass::kReply));
  static_assert(static_cast<uint8_t>(Kind::kRaw) == static_cast<uint8_t>(sim::MsgClass::kRaw));
  static_assert(static_cast<uint8_t>(Kind::kPacked) ==
                static_cast<uint8_t>(sim::MsgClass::kPacked));
  if (coalesce_.enabled) {
    // Critical frame: queued, then flushed by the same-clock flush event (or MTU pressure).
    Enqueue(dst, kind, service, std::move(frame), charge_as, trace, /*held=*/false, 0);
    return;
  }
  host_->Charge(charge_as, machine_->costs().msg_send_overhead);
  sent_by_service_[static_cast<uint16_t>(service)]++;
  machine_->Send(LegacyDatagram(dst, kind, service, trace, std::move(frame)), host_->Clock());
}

void PacketEndpoint::Transmit(NodeId dst, Kind kind, Service service, uint64_t req_id,
                              std::span<const std::byte> body, TimeCategory charge_as,
                              uint64_t trace) {
  SendFrame(dst, kind, service, Frame(kind, service, req_id, trace, body), charge_as, trace);
}

namespace {
// A packed frame on the wire: a uint32 length prefix, then a full legacy Header + body.
constexpr size_t kFrameLenBytes = sizeof(uint32_t);
}  // namespace

void PacketEndpoint::Enqueue(NodeId dst, Kind kind, Service service, Payload frame,
                             TimeCategory charge_as, uint64_t trace, bool held,
                             SimTime hold_for) {
  DstQueue& q = queues_[dst];
  const size_t frame_bytes = kFrameLenBytes + frame.size();
  // MTU flush: packing this frame would overflow the datagram, so flush what is queued first.
  // A single frame bigger than the MTU still goes out (as a singleton legacy datagram).
  if (q.bytes > 0 && sizeof(Header) + q.bytes + frame_bytes > kMaxDatagramBytes) {
    FlushQueue(dst, q);
  }
  const bool was_empty = (q.bytes == 0);
  // The first frame into an empty queue pays the full send overhead; later frames only the
  // marginal pack cost. Logical per-service message counts are unchanged by coalescing.
  host_->Charge(charge_as, was_empty ? machine_->costs().msg_send_overhead
                                     : machine_->costs().coalesce_frame_send);
  if (!was_empty) {
    stats_.frames_coalesced++;
  }
  sent_by_service_[static_cast<uint16_t>(service)]++;
  q.bytes += frame_bytes;
  QueuedFrame queued{kind, service, trace, std::move(frame)};
  if (held) {
    q.held.push_back(std::move(queued));
    if (!q.hold_armed) {
      q.hold_armed = true;
      q.hold_timer = machine_->ScheduleTimer(self_, host_->Clock() + hold_for, [this, dst] {
        host_->Charge(TimeCategory::kSyncOverhead, machine_->costs().timer_overhead);
        Flush(dst);
      });
    }
  } else {
    q.batch.push_back(std::move(queued));
    ScheduleFlushEvent();
  }
}

bool PacketEndpoint::ShouldHold(NodeId dst, Service service) const {
  if (service == Service::kDiffMergeGated) {
    return true;  // rides the reduce-up frame of the same sync point
  }
  if (service != Service::kPageRequest && service != Service::kBulkPageRequest) {
    return false;
  }
  // Asymmetric mutual-peer hold: only the higher-numbered node holds, so its request can ride on
  // the reply it owes the lower-numbered peer — the peer's own request flows immediately.
  if (self_ <= dst) {
    return false;
  }
  auto it = last_req_from_.find(dst);
  if (it == last_req_from_.end()) {
    return false;
  }
  const SimTime age = host_->Clock() - it->second;
  // Just-served filter: a request that arrived within the last hold window has already been
  // answered (serving is synchronous), so the peer's NEXT request — the only carrier this hold
  // could ride on — is a full exchange period away. Holding would stall this fetch for the whole
  // hold and still flush alone; send it now instead.
  if (age < kRequestHold) {
    return false;
  }
  return age <= kMutualWindow;
}

void PacketEndpoint::ScheduleFlushEvent() {
  if (flush_event_pending_) {
    return;
  }
  flush_event_pending_ = true;
  // Scheduled at the current clock: Machine::Run dispatches an event due at exactly a node's
  // clock before resuming the node, so every critical frame enqueued at this instant — however
  // many handlers run back to back — is packed before the node executes any further.
  flush_event_ = machine_->ScheduleTimer(self_, host_->Clock(), [this] {
    flush_event_pending_ = false;
    FlushBatches();
  });
}

void PacketEndpoint::FlushBatches() {
  // A flush never adds or removes a queue, so the map is walked as it is.
  for (auto& [dst, q] : queues_) {
    if (!q.batch.empty()) {
      FlushQueue(dst, q);
    }
  }
}

void PacketEndpoint::Flush(NodeId dst) {
  if (auto it = queues_.find(dst); it != queues_.end()) {
    FlushQueue(dst, it->second);
  }
}

void PacketEndpoint::FlushQueue(NodeId dst, DstQueue& q) {
  const size_t nframes = q.held.size() + q.batch.size();
  if (nframes == 0) {
    return;
  }
  if (q.hold_armed) {
    q.hold_timer.Cancel();
    q.hold_armed = false;
  }
  // Held frames serialize first: they were enqueued earlier in program order (e.g. a gated diff
  // merge dispatches before the reduce-up it piggybacks on).
  QueuedFrame& first = q.held.empty() ? q.batch.front() : q.held.front();
  if (nframes == 1) {
    // A singleton flush sends the frame's buffer as it is: the legacy wire format,
    // byte-identical to an uncoalesced send.
    machine_->Send(
        LegacyDatagram(dst, first.kind, first.service, first.trace, std::move(first.bytes)),
        host_->Clock());
  } else {
    WireWriter w;
    w.Reserve(sizeof(Header) + q.bytes);  // q.bytes counts each frame with its length prefix
    w.Put(Header{Kind::kPacked, 0, static_cast<uint64_t>(nframes), 0});
    for (const std::vector<QueuedFrame>* frames : {&q.held, &q.batch}) {
      for (const QueuedFrame& f : *frames) {
        w.Put(static_cast<uint32_t>(f.bytes.size()));
        w.PutBytes(f.bytes.data(), f.bytes.size());
      }
    }
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Instant("net",
                       "coalesce " + std::to_string(nframes) + "f -> n" + std::to_string(dst));
    }
    DFIL_DCHECK(w.size() == sizeof(Header) + q.bytes);
    RecordDatagram(w.size(), nframes);
    sim::Datagram d;
    d.src = self_;
    d.dst = dst;
    d.type = 0;
    d.klass = sim::MsgClass::kPacked;
    d.trace = first.trace;
    d.payload = w.Take();
    machine_->Send(std::move(d), host_->Clock());
  }
  // Emptied in place: the vectors keep their capacity for the next flush.
  q.held.clear();
  q.batch.clear();
  q.bytes = 0;
}

void PacketEndpoint::RecordDatagram(size_t payload_bytes, size_t nframes) {
  stats_.datagrams_sent++;
  size_t framed = payload_bytes + machine_->costs().frame_overhead_bytes;
  if (framed < machine_->costs().min_frame_bytes) {
    framed = machine_->costs().min_frame_bytes;
  }
  stats_.wire_bytes += framed;
  if (metrics_ != nullptr) {
    frames_per_datagram_.In(*metrics_).Record(static_cast<double>(nframes));
    bytes_per_datagram_.In(*metrics_).Record(static_cast<double>(framed));
  }
}

uint64_t PacketEndpoint::SendRequest(NodeId dst, Service service, Payload body, ReplyFn on_reply,
                                     TimeCategory charge_as, size_t expected_reply_bytes) {
  DFIL_CHECK_NE(dst, self_);
  const uint64_t req_id = next_req_id_++;
  Outstanding out;
  out.dst = dst;
  out.service = service;
  out.body = std::move(body);
  out.on_reply = std::move(on_reply);
  out.timeout = InitialTimeout(dst, expected_reply_bytes);
  if (coalesce_.enabled &&
      (service == Service::kDiffMerge || service == Service::kDiffMergeGated ||
       service == Service::kReduceUp) &&
      out.timeout < kElidedAckTimeout) {
    // Sync-point traffic: a gated merge's or reduce-up's ack is elided (the barrier done stands
    // in, arriving an epoch later), and a plain merge's ack queues behind every peer's flush
    // wave at the home. Keep these timers as loss backstops — an RTT-scale RTO retransmits
    // spuriously into the very congestion that delayed the ack.
    out.timeout = kElidedAckTimeout;
  }
  out.sent_at = host_->Clock();
  out.expected_reply_bytes = expected_reply_bytes;
  out.attempts = 1;
  out.charge_as = charge_as;
  out.trace = CurTrace();
  stats_.requests_sent++;
  if (metrics_ != nullptr) {
    // Depth of the outstanding-request pipeline including this one: how many replies this node is
    // waiting on whenever it issues a request (a proxy for remote serve-queue pressure).
    serve_queue_depth_.In(*metrics_).Record(static_cast<double>(outstanding_.size() + 1));
  }
  if (coalesce_.enabled && ShouldHold(dst, service)) {
    Enqueue(dst, Kind::kRequest, service,
            Frame(Kind::kRequest, service, req_id, out.trace, out.body), charge_as, out.trace,
            /*held=*/true, kRequestHold);
  } else {
    Transmit(dst, Kind::kRequest, service, req_id, out.body, charge_as, out.trace);
  }
  outstanding_.emplace(req_id, std::move(out));
  ArmTimer(req_id);
  return req_id;
}

void PacketEndpoint::CancelRequest(uint64_t req_id) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) {
    return;
  }
  it->second.timer.Cancel();
  outstanding_.erase(it);
  stats_.requests_canceled++;
}

void PacketEndpoint::ElideCurrentReply() { elide_current_reply_ = true; }

SimTime PacketEndpoint::InitialTimeout(NodeId dst, size_t expected_reply_bytes) const {
  if (!coalesce_.enabled) {
    return config_.retransmit_timeout;  // the paper's fixed timeout; schedules byte-identical
  }
  SimTime rto = config_.retransmit_timeout;
  auto it = peer_rtt_.find(dst);
  if (it != peer_rtt_.end() && it->second.valid) {
    rto = it->second.srtt + 4 * it->second.rttvar;
    if (rto < config_.rto_min) {
      rto = config_.rto_min;
    }
    if (rto > config_.retransmit_timeout_max) {
      rto = config_.retransmit_timeout_max;
    }
  }
  if (expected_reply_bytes > 0) {
    // A large reply queues at `dst` behind every large reply `dst` still owes this node, and in
    // a collective refetch (DiffProtocol::MaybeBulkRefetch) every peer has as many queued there.
    // An RTO learned from short exchanges would retransmit spuriously (and each retransmission
    // rebuilds the whole reply). Floor at that backlog's fully-serialized transfer time.
    SimTime owed = machine_->costs().WireTime(expected_reply_bytes);
    for (const auto& [id, out] : outstanding_) {
      if (out.dst == dst && out.expected_reply_bytes > 0) {
        owed += machine_->costs().WireTime(out.expected_reply_bytes);
      }
    }
    const SimTime floor_t = owed * static_cast<SimTime>(machine_->num_nodes());
    if (rto < floor_t) {
      rto = floor_t;
    }
  }
  return rto;
}

void PacketEndpoint::UpdateRtt(NodeId src, const Outstanding& out) {
  if (out.attempts != 1) {
    return;  // Karn's rule: a retransmitted exchange yields an ambiguous sample
  }
  const SimTime sample = host_->Clock() - out.sent_at;
  PeerRtt& p = peer_rtt_[src];
  if (!p.valid) {
    p.srtt = sample;
    p.rttvar = sample / 2;
    p.valid = true;
  } else {
    const SimTime err = sample > p.srtt ? sample - p.srtt : p.srtt - sample;
    p.rttvar = (3 * p.rttvar + err) / 4;
    p.srtt = (7 * p.srtt + sample) / 8;
  }
  if (metrics_ != nullptr) {
    SimTime rto = p.srtt + 4 * p.rttvar;
    if (rto < config_.rto_min) {
      rto = config_.rto_min;
    }
    if (rto > config_.retransmit_timeout_max) {
      rto = config_.retransmit_timeout_max;
    }
    rto_us_.In(*metrics_).Record(ToMicroseconds(rto));
  }
}

void PacketEndpoint::ArmTimer(uint64_t req_id) {
  auto it = outstanding_.find(req_id);
  DFIL_CHECK(it != outstanding_.end());
  it->second.timer =
      machine_->ScheduleTimer(self_, host_->Clock() + it->second.timeout, [this, req_id] {
        OnTimeout(req_id);
      });
}

void PacketEndpoint::OnTimeout(uint64_t req_id) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) {
    return;  // reply arrived while the timer event was in flight
  }
  Outstanding& out = it->second;
  if (out.attempts >= kRetransmitLimit) {
    std::ostringstream os;
    os << "Packet: node " << self_ << ": request " << req_id << " to node " << out.dst
       << " (service " << static_cast<int>(out.service) << " " << ServiceName(out.service)
       << ") exceeded the retransmission limit";
    machine_->Fail(os.str());
    return;
  }
  host_->Charge(out.charge_as, machine_->costs().timer_overhead);
  DFIL_LOG(kDebug, "packet") << "node " << self_ << " retransmit req " << req_id << " to "
                             << out.dst << " attempt " << out.attempts + 1;
  out.attempts++;
  stats_.retransmissions++;
  if (ledger_ != nullptr) {
    // The stall so far: the exchange has been outstanding since its first transmission.
    ledger_->AddBlocked(WaitKind::kRetransmit, static_cast<uint64_t>(out.service), out.sent_at,
                        host_->Clock());
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("net", std::string("retx ") + ServiceName(out.service) + " -> n" +
                                std::to_string(out.dst));
  }
  Transmit(out.dst, Kind::kRequest, out.service, req_id, out.body, out.charge_as, out.trace);
  // Exponential backoff, capped, but never shrinking: a timer that started above the cap (a
  // loss backstop, a bulk-reply floor) keeps its length.
  out.timeout =
      std::max(out.timeout, std::min<SimTime>(out.timeout * 2, config_.retransmit_timeout_max));
  ArmTimer(req_id);
}

void PacketEndpoint::SendRaw(NodeId dst, Service service, std::span<const std::byte> body,
                             TimeCategory charge_as) {
  stats_.raw_sent++;
  Transmit(dst, Kind::kRaw, service, 0, body, charge_as, CurTrace());
}

void PacketEndpoint::BroadcastRaw(Service service, std::span<const std::byte> body,
                                  TimeCategory charge_as) {
  // Broadcasts cannot be packed per destination; they go out immediately even when coalescing.
  stats_.raw_sent++;
  host_->Charge(charge_as, machine_->costs().msg_send_overhead);
  sent_by_service_[static_cast<uint16_t>(service)]++;
  const uint64_t trace = CurTrace();
  machine_->Broadcast(LegacyDatagram(sim::kBroadcastDst, Kind::kRaw, service, trace,
                                     Frame(Kind::kRaw, service, 0, trace, body)),
                      host_->Clock());
}

void PacketEndpoint::OnDatagram(sim::Datagram d) {
  if (coalesce_.enabled && flush_event_pending_) {
    // Drain queued critical frames before handling this interrupt. The same-clock flush event is
    // ordered by due time, so under back-to-back deliveries (a home node serving a request wave)
    // it would otherwise starve behind every already-due datagram — batching each reply behind
    // the NEXT serve's receive+serve charges and adding a per-exchange latency the direct send
    // path never had. The real kernel finishes the sendto() before taking the next SIGIO; model
    // that. The event stays armed and fires later as a no-op on the emptied queues.
    FlushBatches();
  }
  // Every frame is read in place: handlers get readers into d.payload, which lives until the
  // last frame is dispatched and then goes back to the spare list.
  WireReader r(d.payload);
  const Header h = r.Get<Header>();
  if (h.kind == Kind::kPacked) {
    // Unpack and dispatch each frame in order. Unpacking is stateless, so a duplicated packed
    // datagram re-dispatches every frame and each frame's own idempotence handling (duplicate
    // request re-serve, duplicate reply drop) applies exactly as for singleton datagrams.
    const size_t nframes = static_cast<size_t>(h.req_id);
    DFIL_CHECK_GE(nframes, size_t{2}) << "packed datagram with fewer than two frames";
    for (size_t i = 0; i < nframes; ++i) {
      const size_t len = r.Get<uint32_t>();
      DFIL_CHECK_GE(len, sizeof(Header)) << "corrupt packed frame";
      WireReader frame(r.GetSpan(len));
      const Header fh = frame.Get<Header>();
      DispatchFrame(d.src, fh, frame, /*first=*/i == 0);
    }
    DFIL_CHECK_EQ(r.remaining(), size_t{0}) << "trailing bytes after packed frames";
  } else {
    DispatchFrame(d.src, h, r, /*first=*/true);
  }
  ReturnSpare(std::move(d.payload));
}

void PacketEndpoint::DispatchFrame(NodeId src, const Header& h, WireReader body, bool first) {
  // The first frame of a datagram pays the full receive overhead (SIGIO + syscall + copy); later
  // frames only the marginal unpack-and-dispatch cost.
  const SimTime recv_cost =
      first ? machine_->costs().msg_recv_overhead : machine_->costs().coalesce_frame_recv;
  // Handlers run under the incoming message's causal trace id, so every nested send — the reply,
  // a redirect chase, an invalidation round — inherits the originating fault's id.
  TraceContext trace_ctx(tracer_, h.trace);
  switch (h.kind) {
    case Kind::kRequest: {
      auto it = services_.find(h.service);
      DFIL_CHECK(it != services_.end())
          << "node " << self_ << ": no service " << h.service;
      host_->Charge(it->second.recv_category, recv_cost);
      if (coalesce_.enabled && (static_cast<Service>(h.service) == Service::kPageRequest ||
                                static_cast<Service>(h.service) == Service::kBulkPageRequest)) {
        last_req_from_[src] = host_->Clock();  // drives the mutual-peer hold heuristic
      }
      HandleRequest(src, h.req_id, static_cast<Service>(h.service), body);
      return;
    }
    case Kind::kReply: {
      auto out = outstanding_.find(h.req_id);
      host_->Charge(
          out != outstanding_.end() ? out->second.charge_as : TimeCategory::kSyncOverhead,
          recv_cost);
      HandleReply(src, h.req_id, body);
      return;
    }
    case Kind::kRaw: {
      auto it = raw_handlers_.find(h.service);
      DFIL_CHECK(it != raw_handlers_.end())
          << "node " << self_ << ": no raw handler for service " << h.service;
      host_->Charge(it->second.recv_category, recv_cost);
      it->second.fn(src, body);
      return;
    }
    case Kind::kPacked:
      break;  // nested packing is not produced; fall through to the corrupt-kind check
  }
  DFIL_CHECK(false) << "corrupt packet kind";
}

void PacketEndpoint::HandleRequest(NodeId src, uint64_t req_id, Service service,
                                   WireReader body) {
  ServiceEntry& entry = services_.find(static_cast<uint16_t>(service))->second;

  if (!entry.idempotent) {
    // Ignore mutating requests while this node is inside a critical section; the requester's
    // retransmission will retry (paper §3: entry/exit are a single assignment, ignored messages
    // are recovered by Packet).
    if (host_->InCriticalSection()) {
      stats_.deferred_requests++;
      return;
    }
    // Duplicate of a request we already served: re-send the cached reply rather than re-running
    // the (mutating) service.
    auto cached = response_cache_.find({src, req_id});
    if (cached != response_cache_.end()) {
      stats_.duplicate_requests++;
      stats_.replies_sent++;
      // The cached frame goes out as first sent. Its header's trace id is the current one: a
      // retransmitted request carries its first send's id, and the handler runs under it.
      SendFrame(src, Kind::kReply, service, cached->second.frame, TimeCategory::kSyncOverhead,
                CurTrace());
      return;
    }
  }

  elide_current_reply_ = false;
  ReplyWriter reply;
  if (!entry.fn(src, body, reply)) {
    elide_current_reply_ = false;
    stats_.deferred_requests++;
    return;
  }
  if (entry.idempotent) {
    // No reply buffering for idempotent services: a retransmitted request re-runs the service and
    // the reply is rebuilt from current state. Record which it was (Figure 3a vs 3c).
    if (served_requests_.insert({src, req_id}).second) {
      stats_.replies_first_serve++;
      served_fifo_.push_back({src, req_id});
      while (served_fifo_.size() > kServedIdsCap) {
        served_requests_.erase(served_fifo_.front());
        served_fifo_.pop_front();
      }
    } else {
      stats_.replies_rebuilt++;
    }
  }
  if (elide_current_reply_) {
    // The service asked for its (idempotent) reply to be suppressed: a later frame — e.g. the
    // barrier done broadcast — carries the information instead. The request still counts as
    // served, so a retransmission rebuilds and the requester's retransmit timer still covers
    // loss of the standing-in frame.
    DFIL_CHECK(entry.idempotent) << "reply elision is only valid for idempotent services";
    elide_current_reply_ = false;
    stats_.replies_elided++;
    return;
  }
  const uint64_t trace = CurTrace();
  Payload frame = TakeReplyFrame(reply, service, req_id, trace);
  if (!entry.idempotent) {
    const SimTime expires = host_->Clock() + config_.retransmit_timeout * kResponseCacheTimeouts;
    response_cache_[{src, req_id}] = CachedReply{frame, expires};
    cache_fifo_.push_back({src, req_id});
    // Evict in FIFO order: anything expired, plus the oldest entries beyond the size cap. A
    // requester that still needed an evicted reply will re-run into the duplicate path and, for
    // the rare non-idempotent case, the CHECK below the service catches it loudly in tests.
    while (!cache_fifo_.empty() &&
           (cache_fifo_.size() > kResponseCacheCap ||
            response_cache_[cache_fifo_.front()].expires < host_->Clock())) {
      response_cache_.erase(cache_fifo_.front());
      cache_fifo_.pop_front();
    }
  }
  stats_.replies_sent++;
  SendFrame(src, Kind::kReply, service, std::move(frame), TimeCategory::kSyncOverhead, trace);
}

void PacketEndpoint::HandleReply(NodeId src, uint64_t req_id, WireReader body) {
  auto it = outstanding_.find(req_id);
  if (it == outstanding_.end()) {
    stats_.duplicate_replies++;  // late duplicate (Figure 3d); drop it
    return;
  }
  UpdateRtt(src, it->second);
  it->second.timer.Cancel();
  ReplyFn on_reply = std::move(it->second.on_reply);
  outstanding_.erase(it);
  if (on_reply) {
    on_reply(body);
  }
}

}  // namespace dfil::net
