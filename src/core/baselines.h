// Comparator placers for the Table II experiments. Both are fixed
// replicas: like the tools they stand in for, they run at one setting,
// built inside run_replace_rc / run_commercial_proxy, and take no
// configuration.
//
// * ReplaceRc: a RePlAce-style routability-driven placer [5] on the same
//   electrostatic engine. Its optimizer uses only the local congestion
//   ratio: cells in overflowed regions are inflated by a superlinear
//   function of the ratio, monotonically (no recycling, no multi-feature
//   mix), and legalization runs plain Abacus without inherited padding.
//
// * CommercialProxy: stand-in for the commercial placer (Innovus), which
//   cannot be redistributed. Same engine, but its routability optimizer
//   consults the *actual global router* each round (rip-up-and-reroute in
//   the loop) instead of the fast estimator, runs more rounds with
//   conservative spreading, and converges the placement further. This
//   preserves the behaviour that matters for the comparison: the highest
//   per-round congestion accuracy and the best wirelength, at the largest
//   runtime.
#pragma once

#include "core/flow.h"

namespace puffer {

FlowMetrics run_replace_rc(Design& design);

FlowMetrics run_commercial_proxy(Design& design);

}  // namespace puffer
