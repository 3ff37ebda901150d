// Tests for the spare list (src/net/wire.h), which keeps large message buffers for reuse instead
// of freeing them. The list is per thread, so each test runs on a new thread and starts from an
// empty list.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/asan.h"
#include "src/net/wire.h"

namespace dfil::net {
namespace {

// Runs `body` on a new thread, whose spare list starts empty and dies with it.
template <typename F>
void OnFreshThread(F body) {
  std::thread(body).join();
}

// A buffer of exactly `bytes` capacity.
Payload Sized(size_t bytes) {
  Payload buf;
  buf.reserve(bytes);
  return buf;
}

// What a writer reserving `bytes` starts from: a spare buffer when the list has one that fits.
Payload Reserved(size_t bytes) {
  WireWriter w;
  w.Reserve(bytes);
  return w.Take();
}

// A `bytes`-byte message, every byte `fill`.
Payload Filled(size_t bytes, std::byte fill) {
  const std::vector<std::byte> src(bytes, fill);
  WireWriter w;
  w.Reserve(bytes);
  w.PutBytes(src.data(), src.size());
  return w.Take();
}

TEST(SpareListTest, NeverHoldsMoreThanItsCap) {
  OnFreshThread([] {
    // Each returned buffer is one byte larger than the reservations below ask for, so a buffer
    // allocated fresh (capacity exactly kSpareMinBytes) is told apart from a spare one.
    std::vector<const std::byte*> returned;
    for (size_t i = 0; i < kMaxSpares + 1; ++i) {
      Payload buf = Sized(kSpareMinBytes + 1);
      returned.push_back(buf.data());
      ReturnSpare(std::move(buf));
    }
    std::vector<Payload> taken;  // kept alive, so no reservation can land on a taken buffer
    for (size_t i = 0; i < kMaxSpares + 1; ++i) {
      taken.push_back(Reserved(kSpareMinBytes));
    }
    // The first kMaxSpares come back oldest first; the one returned past the cap was freed.
    for (size_t i = 0; i < kMaxSpares; ++i) {
      EXPECT_EQ(taken[i].data(), returned[i]) << "reservation " << i;
    }
    EXPECT_EQ(taken[kMaxSpares].capacity(), kSpareMinBytes);
  });
}

TEST(SpareListTest, IgnoresBuffersUnder16KB) {
  OnFreshThread([] {
    // A small buffer takes no slot: all kMaxSpares large ones returned after it are kept.
    ReturnSpare(Sized(kSpareMinBytes - 1));
    std::vector<const std::byte*> returned;
    for (size_t i = 0; i < kMaxSpares; ++i) {
      Payload buf = Sized(kSpareMinBytes + 1);
      returned.push_back(buf.data());
      ReturnSpare(std::move(buf));
    }
    // A message under the threshold does not take a spare: the oldest is still there after it.
    const Payload small = Reserved(kSpareMinBytes - 1);
    EXPECT_NE(small.data(), returned[0]);
    std::vector<Payload> taken;
    for (size_t i = 0; i < kMaxSpares; ++i) {
      taken.push_back(Reserved(kSpareMinBytes));
      EXPECT_EQ(taken.back().data(), returned[i]) << "reservation " << i;
      EXPECT_EQ(taken.back().capacity(), kSpareMinBytes + 1) << "reservation " << i;
    }
  });
}

TEST(SpareListTest, ReusedBufferComesBackEmpty) {
  OnFreshThread([] {
    Payload long_msg = Filled(40000, std::byte{0xab});
    const std::byte* storage = long_msg.data();
    ReturnSpare(std::move(long_msg));
    // A buffer too small for the request stays in the list.
    const Payload too_big = Reserved(40001);
    EXPECT_NE(too_big.data(), storage);
    // A short message written after the long one carries only its own bytes.
    WireWriter w;
    w.Reserve(20000);
    w.Put(uint32_t{7});
    const Payload short_msg = w.Take();
    EXPECT_EQ(short_msg.data(), storage);
    ASSERT_EQ(short_msg.size(), sizeof(uint32_t));
    EXPECT_EQ(WireReader(short_msg).Get<uint32_t>(), 7u);
  });
}

#if defined(DFIL_ASAN)
// Returns a message to an empty list, then reads it through a view kept from before.
void ReadRecycledBuffer() {
  OnFreshThread([] {
    Payload msg = Filled(kSpareMinBytes, std::byte{1});
    const volatile std::byte* stale = msg.data();
    ReturnSpare(std::move(msg));
    (void)stale[100];
  });
}

// A buffer's bytes are poisoned while it sits in the list, so a view kept past its message's
// event trips AddressSanitizer although the memory stays allocated, until the buffer is reused.
TEST(SpareListDeathTest, ReadingARecycledBufferDies) {
  EXPECT_DEATH(ReadRecycledBuffer(), "use-after-poison");
}
#endif

}  // namespace
}  // namespace dfil::net
