// Counts a program's heap allocations and its large copies: the allocation and copy tallies of
// EXPERIMENTS.md. Preload it into any program; one perfbench_driver attempt is one process:
//
//   LD_PRELOAD=build/tools/libdfil_count_new.so PROGRAM ARGS...
//
// At exit it prints one line to stderr:
//
//   count_new: A allocations; C copies of 1024 bytes or more, B bytes
//
// A counts the calls of every replaceable operator new (plain, array, nothrow and aligned), which
// take their memory from malloc; C and B count the calls of memcpy and memmove that move 1 KB or
// more, and the bytes they move. With COUNT_NEW_STACKS=FILE set, each counted event also writes a
// line to FILE, "new BYTES" or "copy BYTES" followed by its stack's return addresses as
// MODULE+0xOFFSET, innermost first; tools/count_new_sites.py tallies them by function.
#include <dlfcn.h>
#include <execinfo.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

constexpr size_t kLargeCopy = 1024;
constexpr int kMaxFrames = 48;

std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_copies{0};
std::atomic<uint64_t> g_copied_bytes{0};
FILE* g_stacks = nullptr;
thread_local bool t_in_hook = false;  // a hook's own work (backtrace, stdio) is not counted

using CopyFn = void* (*)(void*, const void*, size_t);
CopyFn g_memcpy = nullptr;
CopyFn g_memmove = nullptr;

void RecordStack(const char* what, size_t bytes) {
  if (g_stacks == nullptr || t_in_hook) {
    return;
  }
  t_in_hook = true;
  void* frames[kMaxFrames];
  const int n = backtrace(frames, kMaxFrames);
  std::fprintf(g_stacks, "%s %zu", what, bytes);
  for (int i = 1; i < n; ++i) {  // frame 0 is this function
    Dl_info info;
    if (dladdr(frames[i], &info) != 0 && info.dli_fname != nullptr) {
      std::fprintf(g_stacks, " %s+0x%zx", info.dli_fname,
                   static_cast<size_t>(static_cast<char*>(frames[i]) -
                                       static_cast<char*>(info.dli_fbase)));
    }
  }
  std::fputc('\n', g_stacks);
  t_in_hook = false;
}

void* CountedAlloc(size_t size, size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  RecordStack("new", size);
  if (size == 0) {
    size = 1;
  }
  return align <= alignof(std::max_align_t)
             ? std::malloc(size)
             : std::aligned_alloc(align, (size + align - 1) / align * align);
}

// A copy before the real functions are resolved (dynamic-loader time): volatile byte moves, which
// the compiler cannot turn back into a call to memcpy.
void* ByteCopy(void* dst, const void* src, size_t n) {
  auto* d = static_cast<volatile unsigned char*>(dst);
  const auto* s = static_cast<const volatile unsigned char*>(src);
  if (d < s) {
    for (size_t i = 0; i < n; ++i) {
      d[i] = s[i];
    }
  } else {
    for (size_t i = n; i > 0; --i) {
      d[i - 1] = s[i - 1];
    }
  }
  return dst;
}

void* CountedCopy(CopyFn real, void* dst, const void* src, size_t n) {
  if (n >= kLargeCopy && !t_in_hook) {
    g_copies.fetch_add(1, std::memory_order_relaxed);
    g_copied_bytes.fetch_add(n, std::memory_order_relaxed);
    RecordStack("copy", n);
  }
  return real != nullptr ? real(dst, src, n) : ByteCopy(dst, src, n);
}

__attribute__((constructor)) void Start() {
  t_in_hook = true;
  g_memcpy = reinterpret_cast<CopyFn>(dlsym(RTLD_NEXT, "memcpy"));
  g_memmove = reinterpret_cast<CopyFn>(dlsym(RTLD_NEXT, "memmove"));
  if (const char* path = std::getenv("COUNT_NEW_STACKS")) {
    void* warm[1];
    backtrace(warm, 1);  // loads the unwinder now, not inside a hook
    g_stacks = std::fopen(path, "w");
  }
  t_in_hook = false;
}

__attribute__((destructor)) void Finish() {
  t_in_hook = true;
  if (g_stacks != nullptr) {
    std::fclose(g_stacks);
    g_stacks = nullptr;
  }
  std::fprintf(stderr,
               "count_new: %llu allocations; %llu copies of %zu bytes or more, %llu bytes\n",
               static_cast<unsigned long long>(g_allocations.load()),
               static_cast<unsigned long long>(g_copies.load()), kLargeCopy,
               static_cast<unsigned long long>(g_copied_bytes.load()));
}

}  // namespace

extern "C" void* memcpy(void* dst, const void* src, size_t n) {
  return CountedCopy(g_memcpy, dst, src, n);
}
extern "C" void* memmove(void* dst, const void* src, size_t n) {
  return CountedCopy(g_memmove, dst, src, n);
}

void* operator new(size_t size) {
  if (void* p = CountedAlloc(size, 0)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size, 0); }
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(size_t size, std::align_val_t align) {
  if (void* p = CountedAlloc(size, static_cast<size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](size_t size, std::align_val_t align) { return operator new(size, align); }
void* operator new(size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }
