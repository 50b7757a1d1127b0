// Tests for the routing-detour-imitation-based congestion estimator
// (paper SS III-A): probabilistic I/L demand, pin penalty, the
// detour-imitating expansion, and reuse of the RSMT topology cache across
// estimates and by the evaluation router.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "congestion/estimator.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

// Design with a 240x240 die, 10x10 Gcells at rows_per_gcell = 3 (24 DBU),
// no macros, and whatever cells/nets each test adds.
Design empty_design() {
  Design d;
  d.die = {0, 0, 240, 240};
  d.tech = Technology::make_default(1.0, 8.0, 8);
  for (int r = 0; r < 30; ++r) d.rows.push_back({r * 8.0, 0, 240, 1.0, 8.0});
  return d;
}

// Adds a 1x8 movable cell whose single pin sits at the cell origin.
CellId add_point_cell(Design& d, double x, double y) {
  Cell c;
  c.name = "c" + std::to_string(d.cells.size());
  c.width = 1;
  c.height = 8;
  c.x = x;
  c.y = y;
  return d.add_cell(std::move(c));
}

CongestionConfig no_penalty_config() {
  CongestionConfig cfg;
  cfg.pin_penalty = 0.0;
  cfg.enable_detour_expansion = false;
  return cfg;
}

TEST(Estimator, HorizontalIShapeUnitDemand) {
  Design d = empty_design();
  const CellId a = add_point_cell(d, 12, 112);   // Gcell (0, 4)
  const CellId b = add_point_cell(d, 108, 112);  // Gcell (4, 4)
  const NetId n = d.add_net("n");
  d.connect(a, n, 0, 0);
  d.connect(b, n, 0, 0);

  CongestionEstimator est(d, no_penalty_config());
  const CongestionResult r = est.estimate();
  ASSERT_EQ(r.maps.grid.nx(), 10);
  for (int gx = 0; gx <= 4; ++gx) {
    EXPECT_DOUBLE_EQ(r.maps.dmd_h.at(gx, 4), 1.0) << "gx=" << gx;
  }
  EXPECT_DOUBLE_EQ(r.maps.dmd_h.at(5, 4), 0.0);
  EXPECT_DOUBLE_EQ(r.maps.dmd_v.sum(), 0.0);
}

TEST(Estimator, VerticalIShapeUnitDemand) {
  Design d = empty_design();
  const CellId a = add_point_cell(d, 60, 12);
  const CellId b = add_point_cell(d, 60, 108);
  const NetId n = d.add_net("n");
  d.connect(a, n, 0, 0);
  d.connect(b, n, 0, 0);

  CongestionEstimator est(d, no_penalty_config());
  const CongestionResult r = est.estimate();
  for (int gy = 1; gy <= 4; ++gy) {
    EXPECT_DOUBLE_EQ(r.maps.dmd_v.at(2, gy), 1.0);
  }
  EXPECT_DOUBLE_EQ(r.maps.dmd_h.sum(), 0.0);
}

TEST(Estimator, LShapeSpreadsAverageDemand) {
  Design d = empty_design();
  const CellId a = add_point_cell(d, 12, 12);   // (0,0)
  const CellId b = add_point_cell(d, 84, 60);   // (3,2)
  const NetId n = d.add_net("n");
  d.connect(a, n, 0, 0);
  d.connect(b, n, 0, 0);

  CongestionEstimator est(d, no_penalty_config());
  const CongestionResult r = est.estimate();
  // Bounding box is 4x3 Gcells: each Gcell gets 1/3 horizontal (3 rows)
  // and 1/4 vertical (4 columns).
  for (int gy = 0; gy <= 2; ++gy) {
    for (int gx = 0; gx <= 3; ++gx) {
      EXPECT_NEAR(r.maps.dmd_h.at(gx, gy), 1.0 / 3.0, 1e-12);
      EXPECT_NEAR(r.maps.dmd_v.at(gx, gy), 1.0 / 4.0, 1e-12);
    }
  }
  // Total demand is conserved: one horizontal crossing of 4 cells and one
  // vertical crossing of 3 cells.
  EXPECT_NEAR(r.maps.dmd_h.sum(), 4.0, 1e-9);
  EXPECT_NEAR(r.maps.dmd_v.sum(), 3.0, 1e-9);
}

TEST(Estimator, SameGcellNetHasNoWireDemand) {
  Design d = empty_design();
  const CellId a = add_point_cell(d, 10, 10);
  const CellId b = add_point_cell(d, 15, 12);
  const NetId n = d.add_net("n");
  d.connect(a, n, 0, 0);
  d.connect(b, n, 0, 0);
  CongestionEstimator est(d, no_penalty_config());
  const CongestionResult r = est.estimate();
  EXPECT_DOUBLE_EQ(r.maps.dmd_h.sum() + r.maps.dmd_v.sum(), 0.0);
}

TEST(Estimator, PinPenaltyAccumulates) {
  Design d = empty_design();
  const CellId a = add_point_cell(d, 10, 10);
  const CellId b = add_point_cell(d, 15, 12);
  const NetId n = d.add_net("n");
  d.connect(a, n, 0, 0);
  d.connect(b, n, 0, 0);
  CongestionConfig cfg = no_penalty_config();
  cfg.pin_penalty = 0.5;
  CongestionEstimator est(d, cfg);
  const CongestionResult r = est.estimate();
  EXPECT_DOUBLE_EQ(r.maps.dmd_h.at(0, 0), 1.0);  // two pins x 0.5
  EXPECT_DOUBLE_EQ(r.maps.dmd_v.at(0, 0), 1.0);
}

TEST(Estimator, TreesAlignWithNets) {
  Design d = empty_design();
  const CellId a = add_point_cell(d, 10, 10);
  const CellId b = add_point_cell(d, 100, 10);
  const CellId c = add_point_cell(d, 10, 100);
  const NetId n0 = d.add_net("n0");
  d.connect(a, n0, 0, 0);
  d.connect(b, n0, 0, 0);
  const NetId n1 = d.add_net("n1");
  d.connect(a, n1, 0, 0);
  d.connect(b, n1, 0, 0);
  d.connect(c, n1, 0, 0);
  CongestionEstimator est(d, no_penalty_config());
  const CongestionResult r = est.estimate();
  ASSERT_EQ(r.trees.size(), 2u);
  EXPECT_EQ(r.trees[0].segments.size(), 1u);
  EXPECT_GE(r.trees[1].segments.size(), 2u);
}

// Build a congested corridor: many parallel I-shaped nets on one Gcell
// row, so expansion must move demand to neighbouring rows.
TEST(Estimator, DetourExpansionMovesOverflow) {
  Design d = empty_design();
  const int kNets = 200;  // far beyond one Gcell row's capacity
  for (int i = 0; i < kNets; ++i) {
    const CellId a = add_point_cell(d, 12, 112);
    const CellId b = add_point_cell(d, 204, 112);
    const NetId n = d.add_net("net" + std::to_string(i));
    d.connect(a, n, 0, 0);
    d.connect(b, n, 0, 0);
  }

  CongestionConfig off = no_penalty_config();
  CongestionConfig on = off;
  on.enable_detour_expansion = true;
  const CongestionResult r_off = CongestionEstimator(d, off).estimate();
  const CongestionResult r_on = CongestionEstimator(d, on).estimate();

  EXPECT_EQ(r_off.expanded_segments, 0);
  EXPECT_GT(r_on.expanded_segments, 0);
  // Expansion reduces the demand on the congested row and adds demand to
  // parallel rows.
  EXPECT_LT(r_on.maps.dmd_h.at(5, 4), r_off.maps.dmd_h.at(5, 4));
  const double neighbours_on =
      r_on.maps.dmd_h.at(5, 3) + r_on.maps.dmd_h.at(5, 5);
  const double neighbours_off =
      r_off.maps.dmd_h.at(5, 3) + r_off.maps.dmd_h.at(5, 5);
  EXPECT_GT(neighbours_on, neighbours_off);
  // Pin-ended segments model cell spreading: no perpendicular connector
  // demand is added.
  EXPECT_DOUBLE_EQ(r_on.maps.dmd_v.sum(), 0.0);
  // Overflow strictly improves.
  EXPECT_LT(compute_overflow(r_on.maps).total_overflow,
            compute_overflow(r_off.maps).total_overflow);
}

TEST(Estimator, SteinerEndpointsAddPerpendicularConnectors) {
  Design d = empty_design();
  // A 3-pin net whose RSMT has a Steiner point on a congested horizontal
  // trunk. The net comes FIRST so the expansion processes its segments
  // while the row (overloaded by the filler nets below) is congested.
  const CellId p1 = add_point_cell(d, 12, 112);
  const CellId p2 = add_point_cell(d, 204, 112);
  const CellId p3 = add_point_cell(d, 108, 200);
  const NetId n = d.add_net("steiner_net");
  d.connect(p1, n, 0, 0);
  d.connect(p2, n, 0, 0);
  d.connect(p3, n, 0, 0);
  for (int i = 0; i < 200; ++i) {
    const CellId a = add_point_cell(d, 12, 112);
    const CellId b = add_point_cell(d, 204, 112);
    const NetId load = d.add_net("load" + std::to_string(i));
    d.connect(a, load, 0, 0);
    d.connect(b, load, 0, 0);
  }

  CongestionConfig cfg = no_penalty_config();
  cfg.enable_detour_expansion = true;
  const CongestionResult r = CongestionEstimator(d, cfg).estimate();
  // Without expansion the only vertical demand is the 5-Gcell pin leg
  // (rows 4..8 at column 4). Moving the trunk segments must add
  // perpendicular connector demand at the Steiner column.
  EXPECT_GT(r.expanded_segments, 0);
  EXPECT_GT(r.maps.dmd_v.sum(), 5.0 + 0.9);
}

TEST(Estimator, GridGranularityFollowsConfig) {
  Design d = empty_design();
  CongestionConfig cfg;
  cfg.rows_per_gcell = 6.0;  // 48 DBU Gcells -> 5x5
  CongestionEstimator est(d, cfg);
  EXPECT_EQ(est.grid().nx(), 5);
  EXPECT_EQ(est.grid().ny(), 5);
}

TEST(Estimator, WorksOnSyntheticDesign) {
  SyntheticSpec spec;
  spec.num_cells = 300;
  spec.num_nets = 450;
  spec.num_macros = 2;
  const Design d = generate_synthetic(spec);
  CongestionEstimator est(d, CongestionConfig{});
  const CongestionResult r = est.estimate();
  EXPECT_EQ(r.trees.size(), d.nets.size());
  EXPECT_GT(r.maps.dmd_h.sum(), 0.0);
  EXPECT_GT(r.maps.dmd_v.sum(), 0.0);
}

// Restores the global worker-pool setting after a test that changes it.
struct ThreadGuard {
  ~ThreadGuard() { par::set_num_threads(0); }
};

// Repeated estimates on one estimator (cells moved between calls) are
// bit-identical for any worker count.
TEST(Incremental, ThreadCountInvariance) {
  ThreadGuard guard;
  std::vector<std::uint64_t> checksums[2];
  const int threads[2] = {1, 8};
  for (int t = 0; t < 2; ++t) {
    par::set_num_threads(threads[t]);
    SyntheticSpec spec;
    spec.num_cells = 260;
    spec.num_nets = 400;
    spec.num_macros = 2;
    spec.seed = 17;
    Design d = generate_synthetic(spec);
    CongestionEstimator est(d, CongestionConfig{});
    Rng rng(99);
    for (int round = 0; round < 6; ++round) {
      for (Cell& c : d.cells) {
        if (round == 0 || !c.movable() || !rng.chance(0.2)) continue;
        c.x = clamp(c.x + static_cast<double>(rng.uniform_int(-30, 30)),
                    d.die.xlo, d.die.xhi - c.width);
        c.y = clamp(c.y + static_cast<double>(rng.uniform_int(-30, 30)),
                    d.die.ylo, d.die.yhi - c.height);
      }
      checksums[t].push_back(demand_checksum(est.estimate().maps));
    }
  }
  EXPECT_EQ(checksums[0], checksums[1]);
}

}  // namespace
}  // namespace puffer
