#include "src/threads/context.h"

#include <cstdint>

#include "src/common/asan.h"
#include "src/common/check.h"

extern "C" {
// Implemented in context_switch_x86_64.S.
void dfil_ctx_switch(void** save_sp, void* load_sp);
void dfil_ctx_boot();
}

namespace dfil::threads {
namespace {

// Register frame popped by dfil_ctx_switch, lowest address first.
struct BootFrame {
  uint64_t r15;
  uint64_t r14;
  uint64_t r13;  // entry argument, moved to rdi by dfil_ctx_boot
  uint64_t r12;  // entry function pointer, called by dfil_ctx_boot
  uint64_t rbx;
  uint64_t rbp;
  uint64_t ret;  // dfil_ctx_boot
};
static_assert(sizeof(BootFrame) == 7 * 8);

// glibc makecontext passes int arguments only; smuggle the 64-bit pointers through two ints each.
void UcontextTrampoline(unsigned int entry_hi, unsigned int entry_lo, unsigned int arg_hi,
                        unsigned int arg_lo) {
  auto entry = reinterpret_cast<Context::EntryFn>((static_cast<uint64_t>(entry_hi) << 32) |
                                                  static_cast<uint64_t>(entry_lo));
  void* arg = reinterpret_cast<void*>((static_cast<uint64_t>(arg_hi) << 32) |
                                      static_cast<uint64_t>(arg_lo));
  entry(arg);
  DFIL_CHECK(false) << "context entry function returned";
}

}  // namespace

ContextBackend DefaultContextBackend() {
#if defined(__x86_64__)
  return ContextBackend::kAsm;
#else
  return ContextBackend::kUcontext;
#endif
}

void Context::Init(std::span<std::byte> stack, EntryFn entry, void* arg, ContextBackend backend) {
  backend_ = backend;
  DFIL_CHECK_GE(stack.size(), static_cast<size_t>(1024));

  // A fiber that switches away forever never unwinds, so its frame redzones stay poisoned in
  // ASan's shadow. When the stack pool recycles that memory, writing the new boot frame (or the
  // new fiber's first frames) trips a false stack-buffer-overflow. The old contents are dead by
  // contract, so clear the shadow for the whole stack.
  AsanUnpoison(stack.data(), stack.size());

  if (backend == ContextBackend::kAsm) {
    // 16-align the stack top; plant the boot frame so the first switch "returns" into
    // dfil_ctx_boot with entry/arg in r12/r13 and rsp 16-aligned.
    auto top = reinterpret_cast<uintptr_t>(stack.data() + stack.size());
    top &= ~static_cast<uintptr_t>(15);
    // After the first switch pops this frame and returns, rsp == top, which is 16-aligned as
    // dfil_ctx_boot requires.
    auto* frame = reinterpret_cast<BootFrame*>(top - sizeof(BootFrame));
    frame->r15 = 0;
    frame->r14 = 0;
    frame->r13 = reinterpret_cast<uint64_t>(arg);
    frame->r12 = reinterpret_cast<uint64_t>(entry);
    frame->rbx = 0;
    frame->rbp = 0;
    frame->ret = reinterpret_cast<uint64_t>(&dfil_ctx_boot);
    sp_ = frame;
    return;
  }

  ucontext_ = std::make_unique<ucontext_t>();
  DFIL_CHECK_EQ(getcontext(ucontext_.get()), 0);
  ucontext_->uc_stack.ss_sp = stack.data();
  ucontext_->uc_stack.ss_size = stack.size();
  ucontext_->uc_link = nullptr;
  auto entry_bits = reinterpret_cast<uint64_t>(entry);
  auto arg_bits = reinterpret_cast<uint64_t>(arg);
  makecontext(ucontext_.get(), reinterpret_cast<void (*)()>(&UcontextTrampoline), 4,
              static_cast<unsigned int>(entry_bits >> 32),
              static_cast<unsigned int>(entry_bits & 0xffffffffu),
              static_cast<unsigned int>(arg_bits >> 32),
              static_cast<unsigned int>(arg_bits & 0xffffffffu));
}

void Context::InitAsCaller(ContextBackend backend) {
  backend_ = backend;
  if (backend == ContextBackend::kUcontext) {
    ucontext_ = std::make_unique<ucontext_t>();
  }
}

void Context::Switch(Context* from, Context* to) {
  DFIL_DCHECK(from != to);
  DFIL_CHECK(from->backend_ == to->backend_) << "mixed context backends";
  if (from->backend_ == ContextBackend::kAsm) {
    dfil_ctx_switch(&from->sp_, to->sp_);
    return;
  }
  DFIL_CHECK_EQ(swapcontext(from->ucontext_.get(), to->ucontext_.get()), 0);
}

}  // namespace dfil::threads
