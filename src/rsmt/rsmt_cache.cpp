#include "rsmt/rsmt_cache.h"

#include <cmath>

namespace puffer {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

RsmtCache::RsmtCache(std::size_t num_nets, double quantum, bool enabled)
    : entries_(num_nets),
      inv_quantum_(1.0 / (quantum > 0.0 ? quantum : 1e-9)),
      enabled_(enabled) {}

std::uint64_t RsmtCache::key_of(const std::vector<Point>& pins) const {
  std::uint64_t h = fnv1a(kFnvOffset, pins.size());
  for (const Point& p : pins) {
    h = fnv1a(h, static_cast<std::uint64_t>(std::llround(p.x * inv_quantum_)));
    h = fnv1a(h, static_cast<std::uint64_t>(std::llround(p.y * inv_quantum_)));
  }
  return h;
}

const RsmtTree& RsmtCache::get_or_build(std::size_t net,
                                        const std::vector<Point>& pins) {
  Entry& e = entries_[net];
  if (!enabled_) {
    e.tree = build_rsmt(pins);
    e.valid = false;
    return e.tree;
  }
  const std::uint64_t key = key_of(pins);
  if (e.valid && e.key == key) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return e.tree;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  e.tree = build_rsmt(pins);
  e.key = key;
  e.valid = true;
  return e.tree;
}

void RsmtCache::invalidate(std::size_t net) { entries_[net].valid = false; }

void RsmtCache::clear() {
  for (Entry& e : entries_) e.valid = false;
}

void RsmtCache::reset_stats() {
  hits_.store(0);
  misses_.store(0);
}

}  // namespace puffer
