// Deterministic discrete-event queue.
//
// Events are ordered by (time, insertion sequence), so simultaneous events dispatch in FIFO order
// and runs are bit-for-bit reproducible. Timers are cancelled lazily via a tombstone flag.
//
// Live-head invariant: the head of the heap is always a live (non-cancelled) entry, or the heap is
// empty. Schedule pushes a live entry, Pop prunes the tombstones its removal exposes, and
// EventHandle::Cancel prunes the head when it kills the head entry. A tombstone deeper in the heap
// is harmless: it is pruned once it reaches the head. So NextTime() and empty() are plain reads,
// and NextTime() returns the earliest live entry's time, as a prune-then-read would.
#ifndef DFIL_SIM_EVENT_QUEUE_H_
#define DFIL_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
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

  bool active() const { return cancelled_ != nullptr && !*cancelled_; }
  inline void Cancel();
  void Release() { cancelled_.reset(); }

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::shared_ptr<bool> cancelled)
      : queue_(queue), cancelled_(std::move(cancelled)) {}

  EventQueue* queue_ = nullptr;
  std::shared_ptr<bool> cancelled_;
};

class EventQueue {
 public:
  // Schedules `fn` at absolute virtual time `at`.
  EventHandle Schedule(SimTime at, EventFn fn) {
    auto cancelled = std::make_shared<bool>(false);
    heap_.push_back(Entry{at, next_seq_++, std::move(fn), cancelled});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    return EventHandle(this, std::move(cancelled));
  }

  // True when no live (non-cancelled) event remains.
  bool empty() const { return heap_.empty(); }

  // Virtual time of the earliest pending event, or kSimTimeNever if none.
  SimTime NextTime() const {
    if (heap_.empty()) {
      return kSimTimeNever;
    }
    DFIL_DCHECK(!*heap_.front().cancelled) << "cancelled entry at the head";
    return heap_.front().time;
  }

  // Removes and returns the earliest live event. The queue must not be empty.
  std::pair<SimTime, EventFn> Pop() {
    Entry top = TakeHead();
    PruneHead();
    return {top.time, std::move(top.fn)};
  }

 private:
  friend class EventHandle;

  struct Entry {
    SimTime time;
    uint64_t seq;
    EventFn fn;
    std::shared_ptr<bool> cancelled;
  };

  // The heap order: `a` dispatches after `b`, so the earliest (time, seq) sits at the front.
  static bool Later(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  Entry TakeHead() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry top = std::move(heap_.back());
    heap_.pop_back();
    return top;
  }

  // Discards cancelled entries at the head, restoring the live-head invariant.
  void PruneHead() {
    while (!heap_.empty() && *heap_.front().cancelled) {
      TakeHead();
    }
  }

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

inline void EventHandle::Cancel() {
  if (cancelled_ != nullptr) {
    *cancelled_ = true;
    cancelled_.reset();
    queue_->PruneHead();
  }
}

}  // namespace dfil::sim

#endif  // DFIL_SIM_EVENT_QUEUE_H_
