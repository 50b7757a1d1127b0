// CNN- and GNN-inspired feature extraction for cell padding
// (paper SS III-B1, Fig. 4).
//
// Three feature families per movable cell:
//
//  * Local features: the cell's own Gcell neighbourhood -- local
//    congestion LCg(c) (Eq. 9; signed, the negative part is kept to model
//    the deviation between estimate and router) and local pin density.
//  * CNN-inspired: mean congestion / pin density over the cell's bounding
//    box expanded by a kernel margin (a mean-filter convolution over a
//    larger spatial region).
//  * GNN-inspired: pin congestion PCg(c) (Eqs. 12-13) aggregated over the
//    routing topology -- for each pin, the minimum over all candidate L-
//    and Z-shaped paths of its two-point nets of the maximum Gcell
//    congestion along the path.
//
// Pipeline (fast path, the default): every extract() quantizes the
// combined-congestion and pin-density maps to int64 from its inputs and
// queries them through per-row/per-column sparse-table RMQs (Eq. 13 span
// maxima in O(1)) and summed-area tables (window means in O(1)). The
// per-net path search and the per-cell assembly fan out over
// common/parallel with serial in-order folds. A scalar oracle
// (FeatureConfig::use_legacy_extractor) computes the same quantized
// integer primitives serially and shares the final double formulas, so
// both paths -- and any thread count -- are bit-identical. See
// docs/architecture.md ("Padding feature pipeline").
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "congestion/estimator.h"
#include "netlist/design.h"
#include "padding/feature_query.h"

namespace puffer {

struct FeatureVector {
  double local_cg = 0.0;
  double local_pin = 0.0;
  double sur_cg = 0.0;
  double sur_pin = 0.0;
  double pin_cg = 0.0;

  static constexpr int kCount = 5;
  double operator[](int i) const;
};

// Feature-map quantum: every map value entering a feature (combined
// congestion Cg, pins-per-site density) is rounded to a multiple of
// 2^-32 and handled as int64 -- the exact-demand trick of
// grid/demand_quantum.h at a coarser quantum. Integer maxima and
// sums are associative and order-independent, so RMQ/SAT queries,
// parallel folds and the scalar oracle all produce identical bits.
// Headroom: |Cg| is bounded by the 8192 track-equivalents of exact
// demand (|q| < 2^45), and a window/prefix sum stays exact while
// mean |value| x covered Gcells < 2^31 -- orders of magnitude above any
// realistic grid.
constexpr double kFeatureScale = 4294967296.0;  // 2^32
constexpr double kFeatureQuantum = 1.0 / kFeatureScale;

inline std::int64_t quantize_feature(double v) {
  return std::llround(v * kFeatureScale);
}
inline double dequantize_feature(std::int64_t q) {
  return static_cast<double>(q) * kFeatureQuantum;
}

struct FeatureConfig {
  // CNN kernel margin, in Gcells, added around the cell's bounding box.
  int kernel_gcells = 2;
  // Cap on sampled intermediate positions for Z-shaped candidate paths
  // (the full enumeration is quadratic in span; sampling keeps the same
  // minimum-over-paths structure at bounded cost).
  int z_candidates = 8;
  // Oracle switch: the scalar extractor (bit-identical to the fast path
  // by construction; tests and benches compare against it).
  bool use_legacy_extractor = false;
};

// Feature-extraction stage metrics. Every extract() builds its maps from
// scratch, so the reuse figures stay zero; the member names are the ones
// the benchmark harness (perfbench/harness/trace.cpp) reads.
struct PaddingStageMetrics {
  double feature_time_s = 0.0;  // wall time inside extract()
  int extracts = 0;
  std::int64_t nets_reused = 0;
  std::int64_t nets_recomputed = 0;  // every net, every extract()

  double dirty_gcell_frac() const { return 0.0; }
  double incidence_hit_rate() const { return 0.0; }
};

class FeatureExtractor {
 public:
  FeatureExtractor(const Design& design, FeatureConfig config = {});

  // Extracts features for every cell in `cells` (typically the movable
  // ordinals of the placement engine) from the congestion estimate and
  // the design's current pin positions. Nothing but the stage metrics
  // carries over between calls.
  std::vector<FeatureVector> extract(const CongestionResult& congestion,
                                     const std::vector<CellId>& cells);

  const PaddingStageMetrics& stage_metrics() const { return metrics_; }
  const FeatureConfig& config() const { return config_; }

 private:
  std::vector<FeatureVector> extract_fast(
      const CongestionResult& congestion,
      const std::vector<CellId>& cells) const;
  std::vector<FeatureVector> extract_legacy(
      const CongestionResult& congestion,
      const std::vector<CellId>& cells) const;

  const Design& design_;
  FeatureConfig config_;
  PaddingStageMetrics metrics_;
};

}  // namespace puffer
