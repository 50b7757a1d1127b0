// Routing-detour-imitation-based congestion estimation (paper SS III-A).
//
// Produces a 2D congestion map from the current (possibly overlapping)
// global-placement state in three steps:
//
//  1. Blockage-aware capacity assessment (grid/capacity.h, Eq. 8).
//  2. Topology-based probabilistic demand: each net is decomposed by the
//     RSMT builder into two-point segments; an "I"-shaped segment adds a
//     unit of demand along its covered Gcells in its direction, an
//     "L"-shaped segment spreads the average demand of the two possible
//     L routes over its bounding box, and a pin penalty captures local
//     nets whose pins share a Gcell.
//  3. Detour-imitating demand expansion: congested I-shaped segments
//     transfer their demand to a nearby parallel row/column with slack.
//     If the moved endpoint is a Steiner point the connecting
//     perpendicular demand is added (a true routing detour); if it is a
//     cell pin, no connector is added, imitating the spreading of the
//     clustered cells themselves.
//
// The estimator retains the per-net RSMT topologies so the feature
// extractor (padding/features.h) can compute the GNN-inspired pin
// congestion on the same trees.
#pragma once

#include <vector>

#include "grid/routing_maps.h"
#include "netlist/design.h"
#include "rsmt/rsmt.h"

namespace puffer {

struct CongestionConfig {
  // Gcell height in standard-cell rows (global-routing granularity).
  double rows_per_gcell = 3.0;
  // Demand (track-equivalents, added to both directions) per pin in a
  // Gcell; models local-net consumption (add_pin_demand in
  // grid/routing_maps.h, without the router's pin-crowding term).
  // Strategy parameter.
  double pin_penalty = 0.04;
  // Detour expansion: search radius in Gcells and on/off switch (the
  // estimation-accuracy ablation toggles this).
  int expand_radius = 4;
  bool enable_detour_expansion = true;
  // A segment is considered congested (triggering expansion) when some
  // Gcell on it exceeds this demand/capacity ratio. Strategy parameter.
  double congested_ratio = 1.0;
};

struct CongestionResult {
  RoutingMaps maps;
  // Tree for every net, index-aligned with Design::nets. Degree-0/1 nets
  // yield empty/singleton trees.
  std::vector<RsmtTree> trees;
  // Number of I-shaped segments whose demand was moved by the expansion.
  int expanded_segments = 0;
};

class CongestionEstimator {
 public:
  CongestionEstimator(const Design& design, CongestionConfig config);

  // Estimation from the design's current cell positions. Every call
  // builds the trees and demand maps from scratch; nothing carries over
  // between calls.
  CongestionResult estimate() const;

  const GcellGrid& grid() const { return grid_; }

 private:
  const Design& design_;
  CongestionConfig config_;
  GcellGrid grid_;
  CapacityMaps capacity_;  // capacity depends only on fixed blockages
};

}  // namespace puffer
