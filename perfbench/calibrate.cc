#include "perfbench/calibrate.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {
namespace {

// The kernel's mix mirrors a discrete-event simulator's inner loop: a heap of std::function
// events, virtual calls spread over many classes, a hash-table update and a small allocation.
struct Actor {
  virtual ~Actor() = default;
  virtual uint64_t Step(uint64_t x) = 0;
};

template <int K>
struct ActorK final : Actor {
  uint64_t state = K;
  uint64_t Step(uint64_t x) override {
    state = state * 6364136223846793005ull + x + K;
    return state >> (K % 7 + 1);
  }
};

template <int... Ks>
std::vector<std::unique_ptr<Actor>> MakeActors(std::integer_sequence<int, Ks...>) {
  std::vector<std::unique_ptr<Actor>> actors;
  (actors.push_back(std::make_unique<ActorK<Ks>>()), ...);
  return actors;
}

struct Event {
  uint64_t time;
  uint64_t seq;
  std::function<void()> fn;
  bool operator>(const Event& o) const { return time != o.time ? time > o.time : seq > o.seq; }
};

class Kernel {
 public:
  Kernel() : actors_(MakeActors(std::make_integer_sequence<int, 48>{})) {
    table_.reserve(1 << 17);
    for (int i = 0; i < 256; ++i) {
      Schedule();
    }
  }

  // One pass: a fixed number of events, each scheduling one more.
  uint64_t Pass() {
    for (int i = 0; i < 20000; ++i) {
      Event e = queue_.top();
      queue_.pop();
      now_ = e.time;
      e.fn();
      Schedule();
    }
    return acc_;
  }

 private:
  uint64_t Next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  void Schedule() {
    const uint64_t r = Next();
    queue_.push(Event{now_ + (r & 1023), seq_++, [this, r] {
                        const uint64_t v = actors_[r % actors_.size()]->Step(r);
                        uint64_t& slot = table_[v & 0x1ffff];
                        slot += v;
                        std::vector<uint8_t> buf(16 + (r & 255));
                        buf[r % buf.size()] = static_cast<uint8_t>(v);
                        acc_ += slot + buf[0];
                      }});
  }

  std::vector<std::unique_ptr<Actor>> actors_;
  std::unordered_map<uint64_t, uint64_t> table_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  uint64_t x_ = 88172645463325252ull;
  uint64_t now_ = 0;
  uint64_t seq_ = 0;
  uint64_t acc_ = 0;
};

}  // namespace

double CalibrationPassSeconds(int passes) {
  Kernel kernel;
  kernel.Pass();  // warm the heap, the table and the branch predictors
  std::vector<double> times;
  for (int i = 0; i < passes; ++i) {
    const int64_t c0 = CpuNowNs();
    const uint64_t acc = kernel.Pass();
    times.push_back(static_cast<double>(CpuNowNs() - c0) * 1e-9);
    asm volatile("" : : "g"(acc) : "memory");
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace perfbench
