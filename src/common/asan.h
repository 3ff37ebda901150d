// AddressSanitizer hooks for memory the program recycles itself: fiber stacks and message buffers.
// ASan cannot see reuse inside a pool, so a pool poisons what it holds and unpoisons what it hands
// out. Without ASan the hooks compile to nothing.
#ifndef DFIL_COMMON_ASAN_H_
#define DFIL_COMMON_ASAN_H_

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define DFIL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DFIL_ASAN 1
#endif
#endif
#if defined(DFIL_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace dfil {

// Marks [p, p + n) unaddressable: ASan reports any access to it as a use-after-poison.
inline void AsanPoison(const void* p, size_t n) {
#if defined(DFIL_ASAN)
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

// Marks [p, p + n) addressable again.
inline void AsanUnpoison(const void* p, size_t n) {
#if defined(DFIL_ASAN)
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

}  // namespace dfil

#endif  // DFIL_COMMON_ASAN_H_
