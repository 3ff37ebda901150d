#include "src/net/wire.h"

#include <utility>

#include "src/common/asan.h"

namespace dfil::net {
namespace {

// One thread's spare buffers, each empty and poisoned while it is held here.
class SpareList {
 public:
  SpareList() = default;
  SpareList(const SpareList&) = delete;
  SpareList& operator=(const SpareList&) = delete;
  ~SpareList() {
    for (Payload& buf : bufs_) {
      AsanUnpoison(buf.data(), buf.capacity());
    }
  }

  // Removes and returns the oldest held buffer of at least `bytes` capacity, or an empty Payload.
  Payload Take(size_t bytes) {
    for (auto it = bufs_.begin(); it != bufs_.end(); ++it) {
      if (it->capacity() >= bytes) {
        Payload buf = std::move(*it);
        bufs_.erase(it);
        AsanUnpoison(buf.data(), buf.capacity());
        return buf;
      }
    }
    return {};
  }

  void Return(Payload buf) {
    if (bufs_.size() >= kMaxSpares) {
      return;
    }
    buf.clear();
    AsanPoison(buf.data(), buf.capacity());
    bufs_.push_back(std::move(buf));
  }

 private:
  std::vector<Payload> bufs_;  // oldest first
};

thread_local SpareList t_spares;

}  // namespace

void ReturnSpare(Payload buf) {
  if (buf.capacity() >= kSpareMinBytes) {
    t_spares.Return(std::move(buf));
  }
}

void WireWriter::Reserve(size_t bytes) {
  if (bytes >= kSpareMinBytes && buf_.capacity() == 0) {
    buf_ = t_spares.Take(bytes);
  }
  buf_.reserve(bytes);
}

}  // namespace dfil::net
