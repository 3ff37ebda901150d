#include "src/threads/stack.h"

#include <cstdint>
#include <cstring>

#include "src/common/check.h"

namespace dfil::threads {
namespace {

constexpr uint64_t kCanary = 0xdeadfacef11a3217ULL;
constexpr size_t kCanaryWords = 8;
constexpr size_t kCanaryBytes = kCanaryWords * sizeof(uint64_t);

}  // namespace

Stack::Stack(size_t bytes) : bytes_(bytes) {
  DFIL_CHECK_GE(bytes, kCanaryBytes + 4096);
  // Not zero-filled: a fiber only ever reads what it wrote, so the untouched depth of a fresh
  // stack never becomes resident. The canary words are written explicitly below.
  memory_ = std::make_unique_for_overwrite<std::byte[]>(bytes_);
  uint64_t canary = kCanary;
  for (size_t i = 0; i < kCanaryWords; ++i) {
    std::memcpy(memory_.get() + i * sizeof(uint64_t), &canary, sizeof(canary));
  }
}

std::span<std::byte> Stack::usable() {
  return std::span<std::byte>(memory_.get() + kCanaryBytes, bytes_ - kCanaryBytes);
}

bool Stack::CanaryIntact() const {
  for (size_t i = 0; i < kCanaryWords; ++i) {
    uint64_t word;
    std::memcpy(&word, memory_.get() + i * sizeof(uint64_t), sizeof(word));
    if (word != kCanary) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<Stack> StackPool::Acquire() {
  if (!free_.empty()) {
    std::unique_ptr<Stack> stack = std::move(free_.back());
    free_.pop_back();
    return stack;
  }
  ++allocated_;
  return std::make_unique<Stack>(stack_bytes_);
}

void StackPool::Release(std::unique_ptr<Stack> stack) {
  DFIL_CHECK(stack->CanaryIntact()) << "server thread stack overflow detected";
  free_.push_back(std::move(stack));
}

}  // namespace dfil::threads
