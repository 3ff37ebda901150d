// Byte-order-free POD serialization for message payloads.
//
// All simulated nodes live in one process, so messages use native layout; readers CHECK against
// truncation so malformed payloads fail loudly.
#ifndef DFIL_NET_WIRE_H_
#define DFIL_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "src/common/check.h"

namespace dfil::net {

using Payload = std::vector<std::byte>;

class WireWriter {
 public:
  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &value, sizeof(T));
  }

  void PutBytes(const void* data, size_t len) {
    if (len == 0) {
      return;  // empty payloads may come with a null pointer; memcpy(p, nullptr, 0) is UB
    }
    const size_t old = buf_.size();
    buf_.resize(old + len);
    std::memcpy(buf_.data() + old, data, len);
  }

  size_t size() const { return buf_.size(); }
  Payload Take() { return std::move(buf_); }

 private:
  Payload buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    DFIL_CHECK_LE(pos_ + sizeof(T), data_.size());
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  void GetBytes(void* out, size_t len) {
    if (len == 0) {
      return;
    }
    DFIL_CHECK_LE(pos_ + len, data_.size());
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
  }

  std::span<const std::byte> Rest() const { return data_.subspan(pos_); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

// --- Multiple-writer diff wire format (Service::kDiffMerge) ------------------------------------
//
// At a synchronization point a diff-protocol writer run-length-encodes the bytes that differ
// between each twinned page and its twin, and sends one kDiffMerge request per home node:
//
//   DiffMergeHeader { epoch, npages }
//   npages x ( DiffPageHeader { page, nruns }  then  nruns x ( DiffRun { offset, len } + bytes ) )
//
// `epoch` is the sender's sync-point counter; the home node applies a (sender, epoch) pair at
// most once, which makes the service idempotent under duplication and retransmission.

struct DiffMergeHeader {
  uint64_t epoch;
  uint16_t npages;
};

struct DiffPageHeader {
  uint32_t page;  // PageId
  uint16_t nruns;
};

// One run of modified bytes within a page; `len` payload bytes follow the header on the wire.
struct DiffRun {
  uint16_t offset;
  uint16_t len;
};

// Scans `cur` against `twin` and returns the runs of differing bytes. Gaps shorter than
// `min_gap` equal bytes are absorbed into the surrounding run: each run costs a DiffRun header
// on the wire, so shipping a few unchanged bytes beats splitting the run.
inline std::vector<DiffRun> DiffPageRuns(const std::byte* twin, const std::byte* cur,
                                         size_t page_size, size_t min_gap = 8) {
  DFIL_CHECK_LE(page_size, size_t{65535}) << "diff runs use 16-bit offsets";
  const auto word = [](const std::byte* p) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  };
  std::vector<DiffRun> runs;
  size_t i = 0;
  while (i < page_size) {
    // Most of a twinned page is unchanged, so step over equal bytes a word at a time.
    if (i + sizeof(uint64_t) <= page_size && word(twin + i) == word(cur + i)) {
      i += sizeof(uint64_t);
      continue;
    }
    if (twin[i] == cur[i]) {
      ++i;
      continue;
    }
    const size_t start = i;
    size_t last_diff = i;
    ++i;
    while (i < page_size && i - last_diff <= min_gap) {
      if (twin[i] != cur[i]) {
        last_diff = i;
      }
      ++i;
    }
    runs.push_back(DiffRun{static_cast<uint16_t>(start),
                           static_cast<uint16_t>(last_diff - start + 1)});
    i = last_diff + 1;
  }
  return runs;
}

}  // namespace dfil::net

#endif  // DFIL_NET_WIRE_H_
