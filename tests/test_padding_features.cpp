// Tests for the parallel padding feature pipeline (padding/features.h,
// padding/feature_query.h): the sparse-table RMQ and summed-area table
// must match brute force, the fast path must be bit-identical to the
// scalar legacy oracle for any PUFFER_THREADS, and the full flow must
// place identically with either extractor and through a snapshot
// save/restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "congestion/estimator.h"
#include "core/flow.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"
#include "padding/feature_query.h"
#include "padding/features.h"

namespace puffer {
namespace {

Design small_synthetic(std::uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.num_cells = 260;
  spec.num_nets = 400;
  spec.num_macros = 2;
  spec.seed = seed;
  return generate_synthetic(spec);
}

// Moves ~frac of the movable cells by a whole-DBU offset and clamps them
// into the die.
void perturb_cells(Design& d, Rng& rng, double frac) {
  for (Cell& c : d.cells) {
    if (!c.movable() || !rng.chance(frac)) continue;
    c.x += static_cast<double>(rng.uniform_int(-30, 30));
    c.y += static_cast<double>(rng.uniform_int(-30, 30));
    c.x = clamp(c.x, d.die.xlo, d.die.xhi - c.width);
    c.y = clamp(c.y, d.die.ylo, d.die.yhi - c.height);
  }
}

std::vector<CellId> movable_cells(const Design& d) {
  std::vector<CellId> out;
  for (CellId c = 0; c < static_cast<CellId>(d.cells.size()); ++c) {
    if (d.cells[static_cast<std::size_t>(c)].movable()) out.push_back(c);
  }
  return out;
}

// Restores the global worker-pool setting after a test that changes it.
struct ThreadGuard {
  ~ThreadGuard() { par::set_num_threads(0); }
};

void expect_features_identical(const std::vector<FeatureVector>& got,
                               const std::vector<FeatureVector>& ref,
                               const char* what, int round) {
  ASSERT_EQ(got.size(), ref.size()) << what << " round " << round;
  for (std::size_t i = 0; i < got.size(); ++i) {
    for (int k = 0; k < FeatureVector::kCount; ++k) {
      ASSERT_EQ(got[i][k], ref[i][k])
          << what << " round " << round << " cell " << i << " feature " << k;
    }
  }
}

std::uint64_t placement_checksum(const Design& d) {
  BinaryWriter w;
  for (const Cell& c : d.cells) {
    w.put_f64(c.x);
    w.put_f64(c.y);
  }
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

SyntheticSpec flow_spec(std::uint64_t seed = 17) {
  SyntheticSpec spec;
  spec.name = "pf";
  spec.seed = seed;
  spec.num_cells = 300;
  spec.num_nets = 450;
  spec.num_macros = 2;
  spec.target_utilization = 0.78;
  spec.v_capacity_factor = 0.55;  // congested enough to trigger padding
  return spec;
}

PufferConfig flow_config() {
  PufferConfig cfg;
  cfg.gp.max_iters = 250;
  cfg.padding.xi = 3;
  return cfg;
}

TEST(FeatureQuery, RowColRmqMatchesBruteForce) {
  const int nx = 13, ny = 9;
  Rng rng(3);
  std::vector<std::int64_t> vals(static_cast<std::size_t>(nx) * ny);
  for (std::int64_t& v : vals) v = rng.uniform_int(-1000000, 1000000);

  RowColRmq rmq;
  rmq.build(vals, nx, ny);

  const auto check_all = [&](const char* phase) {
    for (int gy = 0; gy < ny; ++gy) {
      for (int x0 = 0; x0 < nx; ++x0) {
        std::int64_t m = std::numeric_limits<std::int64_t>::min();
        for (int x1 = x0; x1 < nx; ++x1) {
          m = std::max(m, vals[static_cast<std::size_t>(gy) * nx + x1]);
          ASSERT_EQ(rmq.row_max(gy, x0, x1), m)
              << phase << " row " << gy << " [" << x0 << "," << x1 << "]";
        }
      }
    }
    for (int gx = 0; gx < nx; ++gx) {
      for (int y0 = 0; y0 < ny; ++y0) {
        std::int64_t m = std::numeric_limits<std::int64_t>::min();
        for (int y1 = y0; y1 < ny; ++y1) {
          m = std::max(m, vals[static_cast<std::size_t>(y1) * nx + gx]);
          ASSERT_EQ(rmq.col_max(gx, y0, y1), m)
              << phase << " col " << gx << " [" << y0 << "," << y1 << "]";
        }
      }
    }
  };
  check_all("build");
}

TEST(FeatureQuery, SummedAreaTableMatchesBruteForce) {
  const int nx = 11, ny = 7;
  Rng rng(5);
  std::vector<std::int64_t> vals(static_cast<std::size_t>(nx) * ny);
  for (std::int64_t& v : vals) v = rng.uniform_int(-500000, 500000);

  SummedAreaTable sat;
  sat.build(vals, nx, ny);
  for (int x0 = 0; x0 < nx; ++x0) {
    for (int x1 = x0; x1 < nx; ++x1) {
      for (int y0 = 0; y0 < ny; ++y0) {
        for (int y1 = y0; y1 < ny; ++y1) {
          std::int64_t sum = 0;
          for (int y = y0; y <= y1; ++y) {
            for (int x = x0; x <= x1; ++x) {
              sum += vals[static_cast<std::size_t>(y) * nx + x];
            }
          }
          ASSERT_EQ(sat.window_sum(x0, x1, y0, y1), sum)
              << "[" << x0 << "," << x1 << "]x[" << y0 << "," << y1 << "]";
        }
      }
    }
  }
}

TEST(FeatureQuery, QuantizationRoundTripsMapValues) {
  // Ledger-scale congestion values and pin densities survive the 2^-32
  // quantum exactly enough for bitwise-stable features: the quantizer is
  // deterministic and monotone, and dequantize(quantize(v)) is within
  // half a quantum.
  for (const double v : {0.0, 1.0, -3.25, 0.1234567, 8191.99, -8192.0}) {
    const std::int64_t q = quantize_feature(v);
    EXPECT_NEAR(dequantize_feature(q), v, 0.5 * kFeatureQuantum);
    EXPECT_EQ(q, quantize_feature(dequantize_feature(q)));  // fixed point
  }
  EXPECT_LT(quantize_feature(1.0), quantize_feature(1.0 + kFeatureQuantum));
}

TEST(PaddingFeatures, LegacyVsFastBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  Design d = small_synthetic(11);
  const std::vector<CellId> movable = movable_cells(d);
  CongestionEstimator est(d, CongestionConfig{});

  FeatureConfig legacy_cfg;
  legacy_cfg.use_legacy_extractor = true;
  FeatureExtractor legacy(d, legacy_cfg);
  FeatureExtractor fast(d, FeatureConfig{});

  Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    if (round > 0) perturb_cells(d, rng, 0.2);
    const CongestionResult cr = est.estimate();
    const auto ref = legacy.extract(cr, movable);
    for (const int threads : {1, 2, 8}) {
      par::set_num_threads(threads);
      const auto got = fast.extract(cr, movable);
      expect_features_identical(got, ref, "fast-vs-legacy", round);
    }
  }
  EXPECT_EQ(fast.stage_metrics().extracts, 18);
}

TEST(PaddingFeatures, FlowPlacementIdenticalAcrossExtractorModes) {
  // Whole-flow identity: the placement produced with the fast pipeline
  // (the default) must equal the legacy-oracle one bit for bit.
  std::uint64_t sums[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    Design d = generate_synthetic(flow_spec());
    PufferConfig cfg = flow_config();
    cfg.padding.feature.use_legacy_extractor = (mode == 1);
    PufferFlow flow(d, cfg);
    const FlowMetrics metrics = flow.run();
    EXPECT_GT(metrics.padding_stage.extracts, 0);
    sums[mode] = placement_checksum(d);
  }
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(PaddingFeatures, SnapshotRunFromReproducesContinuation) {
  // The staged-flow contract with the feature extractor in the loop: a
  // fresh flow restoring the snapshot must reproduce the uninterrupted
  // continuation exactly.
  Design cont = generate_synthetic(flow_spec(29));
  PufferFlow flow(cont, flow_config());
  FlowSnapshot snap;
  flow.run_prefix(0.45, &snap);
  flow.run_from(snap);
  const std::uint64_t cont_sum = placement_checksum(cont);

  Design restored = generate_synthetic(flow_spec(29));
  PufferFlow flow2(restored, flow_config());
  flow2.run_from(snap);
  EXPECT_EQ(placement_checksum(restored), cont_sum);
}

}  // namespace
}  // namespace puffer
