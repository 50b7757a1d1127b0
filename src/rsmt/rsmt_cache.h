// Memoizes per-net RSMT topologies across estimator / router calls.
//
// Between consecutive padding rounds (and between a padding round and the
// final routability evaluation) most nets have not moved, yet the
// estimator used to rebuild every tree from scratch. The cache keys each
// net's entry by an FNV-1a hash of its *quantized* pin positions: a pin
// move larger than the quantum changes the key and forces a rebuild, so
// stale topologies can never be served for a meaningfully different
// placement.
//
// Thread-safety: each net owns exactly one slot, so concurrent
// get_or_build calls for *different* nets are race-free (the parallel
// estimator fans out per net). The hit/miss counters are atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "geometry/geometry.h"
#include "rsmt/rsmt.h"

namespace puffer {

class RsmtCache {
 public:
  // `quantum` is the pin-position quantization step used for the key
  // (values <= 0 collapse to a near-exact 1e-9). A disabled cache always
  // rebuilds, keeping the serial reference path exact.
  explicit RsmtCache(std::size_t num_nets, double quantum = 1e-3,
                     bool enabled = true);

  // Returns the cached tree when the quantized pins match the stored key,
  // otherwise rebuilds via build_rsmt and stores the result.
  const RsmtTree& get_or_build(std::size_t net,
                               const std::vector<Point>& pins);

  void invalidate(std::size_t net);
  void clear();

  bool enabled() const { return enabled_; }
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  double hit_rate() const {
    const double h = static_cast<double>(hits());
    const double m = static_cast<double>(misses());
    return h + m > 0.0 ? h / (h + m) : 0.0;
  }
  void reset_stats();

  // Exposed for tests: the key two pin sets map to is equal iff every
  // coordinate rounds to the same quantum multiple.
  std::uint64_t key_of(const std::vector<Point>& pins) const;

 private:
  struct Entry {
    std::uint64_t key = 0;
    bool valid = false;
    RsmtTree tree;
  };

  std::vector<Entry> entries_;
  double inv_quantum_ = 1.0;
  bool enabled_ = true;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace puffer
