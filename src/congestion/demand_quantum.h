// Quantized demand arithmetic shared by the congestion estimator and the
// evaluation router.
//
// Exactness invariant: every contribution to a demand map is rounded to a
// multiple of kDemandQuantum (2^-40). Sums of such values are exact
// IEEE-double integer arithmetic while a Gcell's demand stays below
// 2^53 * 2^-40 = 8192 track-equivalents, so addition is associative and
// subtraction cancels exactly: a map accumulated in any order -- any
// worker count, any band partition, rip-up and re-apply -- has the same
// bits. The estimator quantizes I/L span demand and the pin-penalty
// layer; detour moves and routed paths add +/-1.0, already exact.
#pragma once

#include <cmath>

namespace puffer {

constexpr double kDemandQuantum = 1.0 / (1024.0 * 1024.0 * 1024.0 * 1024.0);
constexpr double kDemandScale = 1024.0 * 1024.0 * 1024.0 * 1024.0;

inline double quantize_demand(double v) {
  return std::round(v * kDemandScale) * kDemandQuantum;
}

}  // namespace puffer
