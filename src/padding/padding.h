// Multi-feature-based cell padding with recycling and utilization control
// (paper SS III-B2/B3, Algorithm 1).
//
// Each routability-optimization round:
//   1. features are combined linearly and squashed through a log
//      (Eq. 14):   Pad(c) = log(max(sum_i alpha_i f_i(c) + beta, 1)) * mu
//   2. positive padding accumulates incrementally on the cell; cells
//      with non-positive padding *recycle* part of their history padding
//      at the rate of Eq. 15:  r_i(c) = (i - pt(c)) / (i + zeta)
//   3. the total padding area is capped by the round's target
//      utilization (Eq. 16), linearly ramped from pu_low to pu_high over
//      the xi optimization rounds; excess padding is scaled down.
//
// The optimizer trigger (end of SS III-B3) is also implemented here:
// fire when density overflow < tau AND the previous round's padding
// utilization < eta AND fewer than xi rounds have run.
#pragma once

#include <vector>

#include "congestion/estimator.h"
#include "netlist/design.h"
#include "padding/features.h"

namespace puffer {

struct PaddingParams {
  // Feature weights alpha_i, matching FeatureVector order:
  // local_cg, local_pin, sur_cg, sur_pin, pin_cg. The pin-density weights
  // carry more of the load than the congestion-ratio ones because the
  // detour-imitating expansion has already smoothed away most of the
  // Cg overflow by the time features are extracted; these defaults are
  // the starting point strategy exploration tunes from.
  double alpha[FeatureVector::kCount] = {1.5, 0.6, 1.2, 0.5, 0.25};
  double beta = 0.9;   // formula offset
  double mu = 6.0;     // padding magnitude (DBU of extra width per unit log)
  double zeta = 4.0;   // recycling effort (Eq. 15)

  double pu_low = 0.01;   // Eq. 16 ramp ends (fractions of the free area)
  double pu_high = 0.08;
  int xi = 8;             // max optimization rounds
  double tau = 0.30;      // density-overflow trigger
  // Utilization threshold: the optimizer keeps firing while the previous
  // round's applied padding stayed below eta of the free area (the
  // padding process is converging); an explosive round stops it.
  double eta = 0.25;
  // GP iterations run between consecutive padding rounds so the density
  // system absorbs the new areas before congestion is re-estimated.
  int spacing_iters = 25;

  FeatureConfig feature;
};

class PaddingEngine {
 public:
  // `movable` fixes the ordinal indexing of all padding vectors (use the
  // placement engine's movable_cells()).
  PaddingEngine(const Design& design, std::vector<CellId> movable,
                PaddingParams params);

  // Runs one padding round (Algorithm 1) from a congestion estimate.
  // Returns the cumulative padding width per movable ordinal.
  const std::vector<double>& update(const CongestionResult& congestion);

  // Trigger predicate for the routability optimizer.
  bool should_trigger(double density_overflow) const;

  const std::vector<double>& padding() const { return pad_; }
  // Applied padding area after the last round, as a fraction of the free
  // placement area A (drives the eta trigger condition).
  double last_utilization() const { return last_util_; }
  // Rounds in which at least one cell received positive padding. Rounds
  // where the features stayed below the Eq. 14 threshold count as
  // attempts (for the xi cap and Eq. 15) but not as padding rounds.
  int rounds() const { return applied_rounds_; }
  // Update() calls so far (the Eq. 15 / Eq. 16 round index).
  int attempts() const { return round_; }
  // Maximum over all rounds so far of the total padding area (pad width
  // x cell height, post-scaling).
  double peak_applied_area() const { return peak_area_; }
  const PaddingParams& params() const { return params_; }
  // Feature-extraction calls and wall time (see PaddingStageMetrics).
  const PaddingStageMetrics& stage_metrics() const {
    return extractor_.stage_metrics();
  }

  // Target utilization for round i (1-based), Eq. 16.
  double target_utilization(int i) const;

 private:
  const Design& design_;
  std::vector<CellId> movable_;
  PaddingParams params_;
  FeatureExtractor extractor_;

  std::vector<double> pad_;  // cumulative extra width per ordinal
  std::vector<int> pt_;      // times padded, per ordinal (Eq. 15)
  int round_ = 0;            // update() calls (Eq. 15/16 index)
  int applied_rounds_ = 0;   // rounds with positive padding applied
  double last_util_ = 0.0;
  double peak_area_ = 0.0;
  double avail_area_ = 1.0;
};

}  // namespace puffer
