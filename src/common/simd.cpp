#include "common/simd.h"

#include <atomic>

namespace puffer::simd {
namespace {

std::atomic<bool> g_enabled{true};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

const char* active_isa() {
#if PUFFER_SIMD_SSE2
  return enabled() ? "sse2" : "scalar";
#else
  return "scalar";
#endif
}

}  // namespace puffer::simd
