#include "src/net/wire.h"

#include <bit>
#include <cstring>
#include <utility>

#include "src/common/asan.h"

namespace dfil::net {
namespace {

uint64_t LoadWord(const std::byte* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Whether 64 bytes match: one branch on an OR of eight word XORs.
bool BlockEqual(const std::byte* a, const std::byte* b) {
  uint64_t diff = 0;
  for (size_t k = 0; k < 64; k += sizeof(uint64_t)) {
    diff |= LoadWord(a + k) ^ LoadWord(b + k);
  }
  return diff == 0;
}

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

void AppendDiffPageRuns(const std::byte* twin, const std::byte* cur, size_t page_size,
                        std::vector<DiffRun>& runs) {
  DFIL_CHECK_LE(page_size, size_t{65535}) << "diff runs use 16-bit offsets";
  // The open run spans [start, last]. A differing byte at `at` joins it when fewer than
  // kDiffMinGap equal bytes lie between them, and otherwise closes it and opens the next.
  bool open = false;
  size_t start = 0;
  size_t last = 0;
  const auto close = [&] {
    runs.push_back(
        DiffRun{static_cast<uint16_t>(start), static_cast<uint16_t>(last - start + 1)});
    open = false;
  };
  const auto differs = [&](size_t at) {
    if (open && at - last > kDiffMinGap) {
      close();
    }
    if (!open) {
      start = at;
      open = true;
    }
    last = at;
  };
  // Whole words first: outside a run, equal 64-byte blocks are skipped whole, then equal words.
  // Byte k of a little-endian word is its bits [8k, 8k + 8), so the XOR of two words locates
  // their first differing byte by its trailing zeros and their last by its leading zeros. At most
  // 6 equal bytes lie between those two, too few to end a run, so the word joins the run whole.
  static_assert(std::endian::native == std::endian::little);
  static_assert(kDiffMinGap >= 7, "a gap inside one word must not end a run");
  const size_t words_end = page_size & ~(sizeof(uint64_t) - 1);
  size_t i = 0;
  while (i < words_end) {
    if (!open && i + 64 <= words_end && BlockEqual(twin + i, cur + i)) {
      i += 64;
      continue;
    }
    const uint64_t x = LoadWord(twin + i) ^ LoadWord(cur + i);
    if (x == 0) {
      i += sizeof(uint64_t);
      if (open && i - last > kDiffMinGap) {
        close();  // the next differing byte, wherever it is, starts a new run
      }
      continue;
    }
    differs(i + static_cast<size_t>(std::countr_zero(x)) / 8);
    last = i + static_cast<size_t>(63 - std::countl_zero(x)) / 8;
    i += sizeof(uint64_t);
  }
  for (; i < page_size; ++i) {  // the trailing partial word
    if (twin[i] != cur[i]) {
      differs(i);
    }
  }
  if (open) {
    close();
  }
}

void WireWriter::Reserve(size_t bytes) {
  if (bytes >= kSpareMinBytes && buf_.capacity() == 0) {
    buf_ = t_spares.Take(bytes);
  }
  buf_.reserve(bytes);
}

}  // namespace dfil::net
