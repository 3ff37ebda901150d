// Deterministic discrete-event queue.
//
// Events are ordered by (time, insertion sequence), so simultaneous events dispatch in FIFO order
// and runs are bit-for-bit reproducible.
//
// Slots: each pending event lives in a slot of a reused table, which holds its callback, the node
// it is addressed to, and its generation: the event's sequence number, unique for the queue's
// life. The heap holds only (time, sequence, slot) entries. Firing or cancelling an event frees
// its slot at once (a cancel destroys the callback there and then), and the next Schedule takes
// the slot again, so in steady state scheduling allocates nothing. A handle is a (slot,
// generation) pair and is live while its slot still holds its generation: a handle whose event
// fired or was cancelled stays inert after a newer event takes the slot. A heap entry whose
// slot's generation has moved on is a tombstone.
//
// Live-head invariant: the head of the heap is always a live entry, or the heap is empty. Schedule
// pushes a live entry, Pop prunes the tombstones its removal exposes, and EventHandle::Cancel
// prunes the head when it kills the head entry. A tombstone deeper in the heap is harmless: it is
// pruned once it reaches the head. So NextTime() and empty() are plain reads, and NextTime()
// returns the earliest live entry's time, as a prune-then-read would.
#ifndef DFIL_SIM_EVENT_QUEUE_H_
#define DFIL_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"

namespace dfil::sim {

using EventFn = std::function<void()>;

class EventQueue;

// Opaque handle used to cancel a scheduled event. Default-constructed handles are inert. A handle
// must not be cancelled after its queue is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  // True while the event is pending: neither fired nor cancelled.
  inline bool active() const;
  // Cancels the event if it is still pending; otherwise does nothing.
  inline void Cancel();
  // Drops the handle and leaves the event scheduled.
  void Release() { queue_ = nullptr; }

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t slot, uint64_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t generation_ = 0;
};

class EventQueue {
 public:
  // An event taken off the queue.
  struct Event {
    SimTime time;
    NodeId node;  // as scheduled; kNoNode when the event is addressed to no node
    EventFn fn;
  };

  // Schedules `fn` at absolute virtual time `at`.
  EventHandle Schedule(SimTime at, EventFn fn) { return Schedule(at, kNoNode, std::move(fn)); }

  // Schedules `fn` at `at`, addressed to `node`: PopEvent hands the address back.
  EventHandle Schedule(SimTime at, NodeId node, EventFn fn) {
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    const uint64_t seq = next_seq_++;
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.node = node;
    s.generation = seq;
    heap_.push_back(Entry{at, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    return EventHandle(this, slot, seq);
  }

  // True when no live (non-cancelled) event remains.
  bool empty() const { return heap_.empty(); }

  // Virtual time of the earliest pending event, or kSimTimeNever if none.
  SimTime NextTime() const {
    if (heap_.empty()) {
      return kSimTimeNever;
    }
    DFIL_DCHECK(Live(heap_.front())) << "tombstone at the head";
    return heap_.front().time;
  }

  // Removes and returns the earliest live event. The queue must not be empty. Its slot is free
  // again before the callback runs, so a callback may schedule into it.
  Event PopEvent() {
    const Entry top = TakeHead();
    Slot& s = slots_[top.slot];
    Event event{top.time, s.node, std::move(s.fn)};
    FreeSlot(top.slot);
    PruneHead();
    return event;
  }

  // PopEvent without the address.
  std::pair<SimTime, EventFn> Pop() {
    Event event = PopEvent();
    return {event.time, std::move(event.fn)};
  }

 private:
  friend class EventHandle;

  // A free slot's generation: no event's sequence number.
  static constexpr uint64_t kFreeSlot = UINT64_MAX;

  struct Slot {
    EventFn fn;
    uint64_t generation = kFreeSlot;
    NodeId node = kNoNode;
  };

  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };

  // The heap order: `a` dispatches after `b`, so the earliest (time, seq) sits at the front.
  static bool Later(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  bool Pending(uint32_t slot, uint64_t generation) const {
    return slots_[slot].generation == generation;
  }
  bool Live(const Entry& e) const { return Pending(e.slot, e.seq); }

  Entry TakeHead() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const Entry top = heap_.back();
    heap_.pop_back();
    return top;
  }

  void FreeSlot(uint32_t slot) {
    slots_[slot].generation = kFreeSlot;
    free_.push_back(slot);
  }

  void Cancel(uint32_t slot, uint64_t generation) {
    if (!Pending(slot, generation)) {
      return;  // fired or cancelled already; the slot may hold a newer event
    }
    slots_[slot].fn = nullptr;  // the callback, and whatever it captured, goes now
    FreeSlot(slot);
    PruneHead();
  }

  // Discards tombstones at the head, restoring the live-head invariant.
  void PruneHead() {
    while (!heap_.empty() && !Live(heap_.front())) {
      TakeHead();
    }
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  // free slots, the most recently freed last
  uint64_t next_seq_ = 0;
};

inline bool EventHandle::active() const {
  return queue_ != nullptr && queue_->Pending(slot_, generation_);
}

inline void EventHandle::Cancel() {
  if (queue_ != nullptr) {
    queue_->Cancel(slot_, generation_);
    queue_ = nullptr;
  }
}

}  // namespace dfil::sim

#endif  // DFIL_SIM_EVENT_QUEUE_H_
