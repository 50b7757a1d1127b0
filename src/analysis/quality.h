// Placement-quality analysis: wirelength distribution, bin-density
// statistics and (optionally) congestion percentiles from a routed
// result. Produces the numbers a physical-design engineer looks at
// before trusting a placement, independent of any optimizer.
#pragma once

#include <optional>
#include <string>

#include "grid/routing_maps.h"
#include "netlist/design.h"

namespace puffer {

struct Percentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

struct QualityReport {
  // Wirelength.
  double hpwl = 0.0;
  Percentiles net_hpwl;   // per-net distribution
  std::size_t nets = 0;

  // Density over a uniform bin grid of 3 x 3 rows.
  Percentiles bin_utilization;  // movable area / free bin area
  double design_utilization = 0.0;

  // Congestion (set when a routed result is supplied).
  bool has_congestion = false;
  Percentiles cg_h;  // demand/capacity per direction
  Percentiles cg_v;
  double overflowed_gcell_frac = 0.0;

  std::string to_string() const;
};

QualityReport analyze_quality(const Design& design,
                              const RoutingMaps* routed = nullptr);

// Percentile helper over an arbitrary sample vector (sorted internally);
// exposed for reuse and testing.
Percentiles compute_percentiles(std::vector<double> values);

}  // namespace puffer
