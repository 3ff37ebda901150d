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

// --- Spare message buffers ----------------------------------------------------------------------
//
// A bulk page reply is about 64 KB. After a free of 64 KB or more, glibc trims the top of its heap
// back to the kernel, so a freed reply buffer makes the next one fault its pages in again. Large
// buffers are therefore kept for reuse: the Packet receive path hands back a datagram's buffer
// once its frames are dispatched, and WireWriter::Reserve takes from the list before allocating.
// The list is per OS thread: every node of a cluster shares it (node 0, the default home, serves
// every bulk reply and receives few), and clusters run on different threads never share one.
// A buffer's bytes are poisoned for AddressSanitizer while it sits in the list, and the list hands
// out its oldest buffer first, so each stays poisoned as long as it can. Under ASan a view of a
// message of kSpareMinBytes or more kept past its event therefore fails only until its buffer is
// reused; a smaller message is freed, and ASan's quarantine catches a late read of it.

// Smaller messages (requests, acks, single-page replies of about 4 KB) bypass the list: malloc
// recycles them cheaply, and holding them would only crowd out the large buffers.
inline constexpr size_t kSpareMinBytes = 16 * 1024;
// Caps what the list pins: 32 bulk replies of 66 KB are about 2 MB. On the 8-node diff
// false-sharing run (perfbench fs8_diff_co) the list then serves 88% of large reservations, and
// an attempt's minor page faults fall from about 60 k to 2.3 k.
inline constexpr size_t kMaxSpares = 32;

// Keeps `buf` for reuse when it holds at least kSpareMinBytes and the calling thread's list has
// room; frees it otherwise.
void ReturnSpare(Payload buf);

class WireWriter {
 public:
  // Sizes the buffer for `bytes` in total before anything is written. A size of kSpareMinBytes or
  // more takes the list's oldest spare buffer that large, emptied, when it has one.
  void Reserve(size_t bytes);

  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &value, sizeof(T));
  }

  void PutBytes(const void* data, size_t len) {
    if (len == 0) {
      return;  // empty payloads may come with a null pointer
    }
    const auto* bytes = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), bytes, bytes + len);
  }

  // Appends `len` zero bytes: room for a field that PutAt fills in later.
  void PutZeros(size_t len) { buf_.resize(buf_.size() + len); }

  // Overwrites the bytes at `offset`, which must already be written.
  template <typename T>
  void PutAt(size_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    DFIL_CHECK_LE(offset + sizeof(T), buf_.size());
    std::memcpy(buf_.data() + offset, &value, sizeof(T));
  }

  size_t size() const { return buf_.size(); }
  const std::byte* data() const { return buf_.data(); }
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

  // The next `len` bytes, in place: the view lives as long as the bytes this reader reads.
  std::span<const std::byte> GetSpan(size_t len) {
    DFIL_CHECK_LE(pos_ + len, data_.size());
    const std::span<const std::byte> bytes = data_.subspan(pos_, len);
    pos_ += len;
    return bytes;
  }

  void GetBytes(void* out, size_t len) {
    const std::span<const std::byte> bytes = GetSpan(len);
    if (len != 0) {
      std::memcpy(out, bytes.data(), len);
    }
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

// Gaps shorter than this many equal bytes are absorbed into the surrounding run: each run costs a
// DiffRun header on the wire, so shipping a few unchanged bytes beats splitting the run.
inline constexpr size_t kDiffMinGap = 8;

// Scans `cur` against `twin` and appends the runs of differing bytes to `runs`. A run ends at
// its last differing byte when the next one lies kDiffMinGap or more equal bytes further on (or
// the page ends). Pages of up to 65535 bytes: a DiffRun's offset and length are 16 bits.
void AppendDiffPageRuns(const std::byte* twin, const std::byte* cur, size_t page_size,
                        std::vector<DiffRun>& runs);

}  // namespace dfil::net

#endif  // DFIL_NET_WIRE_H_
