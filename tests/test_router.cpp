// Tests for the evaluation global router: demand accounting, pattern
// routing, batched negotiated rip-up-and-reroute (bit-identical across
// thread counts), the bucket-queue maze kernel, config validation,
// metric reporting, and the pinned outputs of the router and the
// estimator on bench_router's design.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"
#include "congestion/estimator.h"
#include "grid/demand_quantum.h"
#include "io/synthetic.h"
#include "router/global_router.h"
#include "router/maze.h"
#include "router/path_use.h"

namespace puffer {
namespace {

Design base_design() {
  Design d;
  d.die = {0, 0, 240, 240};
  d.tech = Technology::make_default(1.0, 8.0, 8);
  for (int r = 0; r < 30; ++r) d.rows.push_back({r * 8.0, 0, 240, 1.0, 8.0});
  return d;
}

CellId add_cell_at(Design& d, double x, double y) {
  Cell c;
  c.name = "c" + std::to_string(d.cells.size());
  c.width = 1;
  c.height = 8;
  c.x = x;
  c.y = y;
  return d.add_cell(std::move(c));
}

void add_two_pin_net(Design& d, Point a, Point b) {
  const CellId ca = add_cell_at(d, a.x, a.y);
  const CellId cb = add_cell_at(d, b.x, b.y);
  const NetId n = d.add_net("n" + std::to_string(d.nets.size()));
  d.connect(ca, n, 0, 0);
  d.connect(cb, n, 0, 0);
}

RouterConfig quiet_config() {
  RouterConfig cfg;
  cfg.pin_penalty = 0.0;
  return cfg;
}

TEST(Router, StraightNetUsesStraightDemand) {
  Design d = base_design();
  add_two_pin_net(d, {12, 112}, {108, 112});
  GlobalRouter router(d, quiet_config());
  const RouteResult r = router.route();
  EXPECT_EQ(r.segments, 1);
  for (int gx = 0; gx <= 4; ++gx) {
    EXPECT_DOUBLE_EQ(r.maps.dmd_h.at(gx, 4), 1.0);
  }
  EXPECT_DOUBLE_EQ(r.maps.dmd_v.sum(), 0.0);
  // 4 horizontal steps of 24 DBU.
  EXPECT_NEAR(r.wirelength, 4 * 24.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.overflow.hof_pct, 0.0);
}

TEST(Router, DiagonalNetRoutesAsL) {
  Design d = base_design();
  add_two_pin_net(d, {12, 12}, {108, 108});
  GlobalRouter router(d, quiet_config());
  const RouteResult r = router.route();
  // L route: 4 horizontal + 4 vertical steps.
  EXPECT_NEAR(r.wirelength, 8 * 24.0, 1e-9);
  // The turning Gcell consumes both directions.
  double h = 0, v = 0;
  for (double x : r.maps.dmd_h.raw()) h += x;
  for (double x : r.maps.dmd_v.raw()) v += x;
  EXPECT_NEAR(h, 5.0, 1e-9);
  EXPECT_NEAR(v, 5.0, 1e-9);
}

TEST(Router, SameGcellNetNeedsNoRouting) {
  Design d = base_design();
  add_two_pin_net(d, {10, 10}, {14, 12});
  GlobalRouter router(d, quiet_config());
  const RouteResult r = router.route();
  EXPECT_EQ(r.segments, 0);
  EXPECT_DOUBLE_EQ(r.wirelength, 0.0);
}

TEST(Router, PinPenaltyAddsStaticDemand) {
  Design d = base_design();
  add_two_pin_net(d, {10, 10}, {14, 12});
  RouterConfig cfg;
  cfg.pin_penalty = 0.25;
  GlobalRouter router(d, cfg);
  const RouteResult r = router.route();
  EXPECT_DOUBLE_EQ(r.maps.dmd_h.at(0, 0), 0.5);
}

TEST(Router, RipUpRerouteReducesOverflow) {
  Design d = base_design();
  // Overload one row massively; there is vertical slack for detours.
  for (int i = 0; i < 150; ++i) {
    add_two_pin_net(d, {12, 112}, {228, 112});
  }
  RouterConfig no_rr = quiet_config();
  no_rr.rr_rounds = 0;
  RouterConfig rr = quiet_config();
  rr.rr_rounds = 6;
  const RouteResult before = GlobalRouter(d, no_rr).route();
  const RouteResult after = GlobalRouter(d, rr).route();
  EXPECT_GT(before.overflow.hof_pct, 0.0);
  EXPECT_GT(after.rerouted, 0);
  EXPECT_LT(after.overflow.hof_pct, before.overflow.hof_pct);
  // Detours trade wirelength for overflow.
  EXPECT_GE(after.wirelength, before.wirelength);
}

TEST(Router, MazeAvoidsZeroCapacityChannel) {
  Design d = base_design();
  // A macro wall across the middle leaves low capacity; the router should
  // still find a path and prefer going around where resources remain.
  Cell m;
  m.name = "wall";
  m.kind = CellKind::kMacro;
  m.x = 48;
  m.y = 0;
  m.width = 24;
  m.height = 216;  // leaves the top row of Gcells open
  d.add_cell(m);
  for (int i = 0; i < 60; ++i) {
    add_two_pin_net(d, {12, 12}, {228, 12});
  }
  RouterConfig cfg = quiet_config();
  cfg.rr_rounds = 6;
  cfg.bbox_margin = 12;
  const RouteResult r = GlobalRouter(d, cfg).route();
  // Demand crosses the wall column (2) mostly via rows with capacity;
  // total overflow should be moderate rather than the whole bundle deep.
  const RouteResult naive = [&] {
    RouterConfig c0 = quiet_config();
    c0.rr_rounds = 0;
    return GlobalRouter(d, c0).route();
  }();
  EXPECT_LE(r.overflow.total_overflow, naive.overflow.total_overflow);
}

TEST(Router, MultiPinNetsDecomposeViaRsmt) {
  Design d = base_design();
  const CellId a = add_cell_at(d, 12, 12);
  const CellId b = add_cell_at(d, 228, 12);
  const CellId c = add_cell_at(d, 120, 228);
  const NetId n = d.add_net("tri");
  d.connect(a, n, 0, 0);
  d.connect(b, n, 0, 0);
  d.connect(c, n, 0, 0);
  GlobalRouter router(d, quiet_config());
  const RouteResult r = router.route();
  EXPECT_GE(r.segments, 2);
  EXPECT_GT(r.wirelength, 0.0);
}

TEST(Router, DeterministicAcrossRuns) {
  SyntheticSpec spec;
  spec.num_cells = 300;
  spec.num_nets = 450;
  const Design d = generate_synthetic(spec);
  const RouteResult a = GlobalRouter(d, RouterConfig{}).route();
  const RouteResult b = GlobalRouter(d, RouterConfig{}).route();
  EXPECT_DOUBLE_EQ(a.wirelength, b.wirelength);
  EXPECT_DOUBLE_EQ(a.overflow.hof_pct, b.overflow.hof_pct);
  EXPECT_EQ(a.rerouted, b.rerouted);
}

// Restores the default worker count after each test so suites sharing
// the binary are unaffected.
class RouterParallelTest : public ::testing::Test {
 protected:
  ~RouterParallelTest() override { par::set_num_threads(0); }
};

// The batched rip-up-and-reroute contract: maze candidates are computed
// against the frozen round-start field with per-thread arenas and all
// demand mutations happen on the serial commit path, so RouteResult is
// bit-identical for any PUFFER_THREADS. This is also the regression
// test for the seed's shared gscore/visit_mark/parent maze scratch,
// which raced once the maze phase went parallel.
TEST_F(RouterParallelTest, BitIdenticalAcrossThreadCounts) {
  SyntheticSpec spec;
  spec.name = "router_threads";
  spec.num_cells = 360;
  spec.num_nets = 540;
  spec.num_macros = 2;
  spec.seed = 23;
  spec.h_capacity_factor = 0.55;  // starve the supply so RRR engages
  spec.v_capacity_factor = 0.55;
  const Design d = generate_synthetic(spec);
  RouterConfig cfg;
  cfg.rr_rounds = 4;

  par::set_num_threads(1);
  const RouteResult ref = GlobalRouter(d, cfg).route();
  EXPECT_GT(ref.rounds_used, 0) << "workload must exercise the RRR phase";
  EXPECT_GT(ref.rerouted, 0);
  for (const int threads : {2, 8}) {
    par::set_num_threads(threads);
    const RouteResult r = GlobalRouter(d, cfg).route();
    EXPECT_EQ(demand_checksum(r.maps), demand_checksum(ref.maps))
        << "threads=" << threads;
    EXPECT_EQ(r.wirelength, ref.wirelength) << "threads=" << threads;
    EXPECT_EQ(r.overflow.hof_pct, ref.overflow.hof_pct);
    EXPECT_EQ(r.overflow.vof_pct, ref.overflow.vof_pct);
    EXPECT_EQ(r.rerouted, ref.rerouted);
    EXPECT_EQ(r.rounds_used, ref.rounds_used);
    EXPECT_EQ(r.segments, ref.segments);
  }
}

// Pinned outputs of the router and the estimator on bench_router's
// design at PUFFER_SCALE=512 (1,250 cells), at 1 and 8 threads. The
// bit-identity tests compare two runs of the same build; these constants
// catch a change that moves both runs the same way. Like
// tests/test_golden.cpp they are tied to x86-64 with gcc/glibc.
TEST_F(RouterParallelTest, BenchDesignRouteAndEstimateArePinned) {
  SyntheticSpec spec;
  spec.name = "router_bench";
  spec.num_cells = 640000 / 512;
  spec.num_nets = 768000 / 512;
  spec.num_macros = 8;
  spec.seed = 31;
  spec.h_capacity_factor = 1.5;
  spec.v_capacity_factor = 1.5;
  const Design d = generate_synthetic(spec);
  RouterConfig cfg;
  cfg.rr_rounds = 8;

  for (const int threads : {1, 8}) {
    par::set_num_threads(threads);
    const RouteResult r = GlobalRouter(d, cfg).route();
    EXPECT_EQ(demand_checksum(r.maps), 13972677956103291584u)
        << "threads=" << threads;
    EXPECT_EQ(r.wirelength, 0x1.a6fbbc71c70eep+16) << "threads=" << threads;
    EXPECT_EQ(r.rerouted, 209) << "threads=" << threads;
    EXPECT_EQ(r.reroute_attempts, 1946) << "threads=" << threads;
    EXPECT_EQ(r.rounds_used, 5) << "threads=" << threads;

    const CongestionResult e = CongestionEstimator(d, {}).estimate();
    EXPECT_EQ(demand_checksum(e.maps), 7227062247548212533u)
        << "threads=" << threads;
  }
}

// Demand accounting round trip: every contribution is +/-1.0 on a
// quantized base (multiples of kDemandQuantum), which is exact IEEE
// integer arithmetic -- so apply followed by rip restores the maps
// bit-identically, in any interleaving. This is the invariant the
// batched commit's rip/re-apply arithmetic rests on.
TEST(Router, ApplyPathDemandRoundTripIsExact) {
  const int nx = 24, ny = 20;
  RoutingMaps maps;
  maps.dmd_h = Map2D<double>(nx, ny);
  maps.dmd_v = Map2D<double>(nx, ny);
  Rng rng(99);
  for (double& v : maps.dmd_h.raw()) v = quantize_demand(rng.uniform(0.0, 6.0));
  for (double& v : maps.dmd_v.raw()) v = quantize_demand(rng.uniform(0.0, 6.0));
  const std::uint64_t before = demand_checksum(maps);

  // Random 4-connected walks (revisits allowed -- apply_path_demand
  // counts every visit).
  std::vector<std::vector<GcellIndex>> paths;
  for (int p = 0; p < 60; ++p) {
    std::vector<GcellIndex> path;
    GcellIndex g{static_cast<int>(rng.uniform_int(0, nx - 1)),
                 static_cast<int>(rng.uniform_int(0, ny - 1))};
    path.push_back(g);
    const int steps = static_cast<int>(rng.uniform_int(1, 30));
    for (int s = 0; s < steps; ++s) {
      GcellIndex n = path.back();
      switch (rng.uniform_int(0, 3)) {
        case 0: n.gx = std::min(nx - 1, n.gx + 1); break;
        case 1: n.gx = std::max(0, n.gx - 1); break;
        case 2: n.gy = std::min(ny - 1, n.gy + 1); break;
        default: n.gy = std::max(0, n.gy - 1); break;
      }
      if (n.gx != path.back().gx || n.gy != path.back().gy) path.push_back(n);
    }
    paths.push_back(std::move(path));
  }
  for (const auto& p : paths) {
    apply_path_demand(p, maps.dmd_h, maps.dmd_v, +1.0);
  }
  EXPECT_NE(demand_checksum(maps), before);
  // Rip in a different order than the apply.
  for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
    apply_path_demand(*it, maps.dmd_h, maps.dmd_v, -1.0);
  }
  EXPECT_EQ(demand_checksum(maps), before);
}

TEST(Maze, PathIsFourConnectedWithinWindow) {
  MazeWindow w{3, 5, 14, 11};
  MazeArena arena;
  const auto uniform = [](int, int, std::int32_t& qch, std::int32_t& qcv) {
    qch = kQCostScale;
    qcv = kQCostScale;
  };
  const GcellIndex a{4, 6}, b{15, 14};
  const auto path = maze_route(w, a, b, 13, arena, uniform);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front().gx, a.gx);
  EXPECT_EQ(path.front().gy, a.gy);
  EXPECT_EQ(path.back().gx, b.gx);
  EXPECT_EQ(path.back().gy, b.gy);
  for (const GcellIndex& g : path) {
    EXPECT_TRUE(w.contains(g.gx, g.gy))
        << "(" << g.gx << "," << g.gy << ") outside window";
  }
  for (std::size_t i = 1; i < path.size(); ++i) {
    const int dx = std::abs(path[i].gx - path[i - 1].gx);
    const int dy = std::abs(path[i].gy - path[i - 1].gy);
    EXPECT_EQ(dx + dy, 1) << "step " << i << " is not a unit move";
  }
  // Uniform costs: the shortest path has exactly the Manhattan length.
  EXPECT_EQ(static_cast<int>(path.size()) - 1,
            std::abs(b.gx - a.gx) + std::abs(b.gy - a.gy));
}

TEST(Maze, AvoidsExpensiveWallAndReusesArena) {
  MazeWindow w{0, 0, 15, 9};
  MazeArena arena;
  // A vertical wall at gx=7 except the top row.
  const auto walled = [](int gx, int gy, std::int32_t& qch, std::int32_t& qcv) {
    const bool wall = gx == 7 && gy < 8;
    qch = wall ? kQCostMax : kQCostScale;
    qcv = wall ? kQCostMax : kQCostScale;
  };
  const GcellIndex a{1, 1}, b{13, 1};
  for (int rep = 0; rep < 3; ++rep) {  // arena reuse across searches
    const auto path = maze_route(w, a, b, 13, arena, walled);
    ASSERT_GE(path.size(), 2u);
    for (const GcellIndex& g : path) {
      EXPECT_FALSE(g.gx == 7 && g.gy < 8) << "path crosses the wall";
    }
    EXPECT_EQ(path.back().gx, b.gx);
    EXPECT_EQ(path.back().gy, b.gy);
  }
}

TEST(Maze, UnreachableGoalReturnsEmpty) {
  MazeWindow w{0, 0, 5, 5};
  MazeArena arena;
  const auto uniform = [](int, int, std::int32_t& qch, std::int32_t& qcv) {
    qch = kQCostScale;
    qcv = kQCostScale;
  };
  // Goal outside the window.
  EXPECT_TRUE(maze_route(w, {0, 0}, {9, 9}, 0, arena, uniform).empty());
  // Degenerate start == goal.
  const auto self = maze_route(w, {2, 2}, {2, 2}, 0, arena, uniform);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self.front().gx, 2);
}

TEST(Router, ConfigValidationClampsAndRejects) {
  RouterConfig cfg;
  cfg.rr_rounds = -3;
  cfg.bbox_margin = -2;
  const RouterConfig v = validate_router_config(cfg);
  EXPECT_EQ(v.rr_rounds, 0);
  EXPECT_EQ(v.bbox_margin, 0);

  RouterConfig bad;
  bad.rows_per_gcell = 0.0;
  EXPECT_THROW(validate_router_config(bad), std::invalid_argument);
  bad.rows_per_gcell = -2.0;
  EXPECT_THROW(validate_router_config(bad), std::invalid_argument);

  // The constructor validates too: clamped knobs route fine...
  Design d = base_design();
  add_two_pin_net(d, {12, 112}, {108, 112});
  RouterConfig neg = quiet_config();
  neg.rr_rounds = -5;
  neg.bbox_margin = -1;
  const RouteResult r = GlobalRouter(d, neg).route();
  EXPECT_EQ(r.segments, 1);
  EXPECT_EQ(r.rounds_used, 0);
  // ...and irreparable ones throw.
  RouterConfig bad2 = quiet_config();
  bad2.rows_per_gcell = -1.0;
  EXPECT_THROW(GlobalRouter(d, bad2), std::invalid_argument);
}

TEST(Router, ReportsStageMetrics) {
  Design d = base_design();
  for (int i = 0; i < 150; ++i) {
    add_two_pin_net(d, {12, 112}, {228, 112});
  }
  RouterConfig cfg = quiet_config();
  cfg.rr_rounds = 6;
  const RouteResult r = GlobalRouter(d, cfg).route();
  EXPECT_GT(r.rounds_used, 0);
  EXPECT_LE(r.rounds_used, cfg.rr_rounds);
  EXPECT_GT(r.route_time_s, 0.0);
  EXPECT_GT(r.rrr_time_s, 0.0);
  EXPECT_LE(r.rrr_time_s, r.route_time_s);
}

TEST(Router, WirelengthLowerBoundedByHpwl) {
  SyntheticSpec spec;
  spec.num_cells = 200;
  spec.num_nets = 300;
  const Design d = generate_synthetic(spec);
  const RouteResult r = GlobalRouter(d, RouterConfig{}).route();
  // Each segment is at least as long as its Gcell-grid Manhattan span, so
  // the routed WL in Gcell units is bounded below by roughly the HPWL on
  // the Gcell grid; sanity-check that the routed WL is positive and not
  // absurdly below HPWL.
  EXPECT_GT(r.wirelength, 0.2 * d.total_hpwl());
}

}  // namespace
}  // namespace puffer
