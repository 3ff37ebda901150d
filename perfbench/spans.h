// Host-time spans recorded by perfbench_driver around each call into a simulator layer.
//
// Spans live in memory and are written out once, when the process prints its result, so the
// recording itself does no I/O inside a timed interval. Each span names its parent (the span
// open when it began), which lets run.py compute a layer's self time. Times are the process's
// CPU time: it is single-threaded and does no I/O while timed, so this is its wall time without
// the slices other processes took from its CPU. run.py scales it by the measured host speed
// (see calibrate.h).
#ifndef DFIL_PERFBENCH_SPANS_H_
#define DFIL_PERFBENCH_SPANS_H_

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// CPU time consumed by this process, in nanoseconds.
inline int64_t CpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into SpanLog::spans(), -1 for a root span
};

class SpanLog {
 public:
  // Opens a span nested in the innermost open one; returns its index for End().
  int Begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), CpuNowNs(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = CpuNowNs();
    open_.pop_back();
  }
  double Seconds(int index) const {
    const Span& s = spans_[static_cast<size_t>(index)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Scoped span: opens on construction, closes on destruction or on an explicit Close().
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name) : log_(log), index_(log.Begin(std::move(name))) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Closes the span and returns its duration in seconds.
  double Close() {
    if (open_) {
      log_.End(index_);
      open_ = false;
    }
    return log_.Seconds(index_);
  }

 private:
  SpanLog& log_;
  int index_;
  bool open_ = true;
};

}  // namespace perfbench

#endif  // DFIL_PERFBENCH_SPANS_H_
