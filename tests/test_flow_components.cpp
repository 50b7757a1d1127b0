// Additional flow-level and engine-option tests: placement persistence
// through Bookshelf, engine configuration variants, estimator determinism
// and stage accounting.
#include <gtest/gtest.h>

#include <filesystem>

#include "congestion/estimator.h"
#include "core/flow.h"
#include "io/bookshelf.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

SyntheticSpec small_spec(std::uint64_t seed = 31) {
  SyntheticSpec spec;
  spec.name = "fc";
  spec.seed = seed;
  spec.num_cells = 600;
  spec.num_nets = 900;
  spec.num_macros = 4;
  spec.target_utilization = 0.75;
  return spec;
}

TEST(FlowComponents, PlacementSurvivesBookshelfRoundTrip) {
  Design placed = generate_synthetic(small_spec());
  PufferConfig cfg;
  cfg.gp.max_iters = 300;
  cfg.padding.xi = 2;
  PufferFlow flow(placed, cfg);
  flow.run();

  const auto dir = std::filesystem::temp_directory_path() / "puffer_fc";
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / "fc").string();
  write_bookshelf(placed, prefix);
  const Design loaded = read_bookshelf(prefix + ".aux");
  EXPECT_NEAR(loaded.total_hpwl(), placed.total_hpwl(),
              placed.total_hpwl() * 1e-9);
  std::filesystem::remove_all(dir);
}

TEST(FlowComponents, StageTimesCoverAllPhases) {
  Design d = generate_synthetic(small_spec());
  PufferConfig cfg;
  cfg.gp.max_iters = 250;
  cfg.padding.xi = 2;
  PufferFlow flow(d, cfg);
  const FlowMetrics m = flow.run();
  EXPECT_GT(m.stages.get("initial_place"), 0.0);
  EXPECT_GT(m.stages.get("global_place"), 0.0);
  EXPECT_GT(m.stages.get("legalize"), 0.0);
  if (m.padding_rounds > 0) {
    EXPECT_GT(m.stages.get("routability_opt"), 0.0);
    EXPECT_GT(m.padding_area, 0.0);
  }
  EXPECT_GE(m.runtime_s, m.stages.get("global_place"));
}

TEST(FlowComponents, ExplicitBinDimHonored) {
  Design d = generate_synthetic(small_spec());
  GpConfig cfg;
  cfg.bin_dim = 16;
  EPlaceEngine engine(d, cfg);
  EXPECT_EQ(engine.bin_dim(), 16);
  EXPECT_NEAR(engine.bin_w() * 16, d.die.width(), 1e-9);
}

TEST(FlowComponents, RunToOverflowStopsAtTarget) {
  Design d = generate_synthetic(small_spec());
  initial_place(d);
  GpConfig cfg;
  EPlaceEngine engine(d, cfg);
  const double reached = engine.run_to_overflow(0.4);
  // Either the target was reached or the engine hit its caps.
  if (!engine.converged() && engine.iteration() < cfg.max_iters) {
    EXPECT_LE(reached, 0.4);
  }
  // One more call makes further progress or returns immediately.
  const double again = engine.run_to_overflow(0.4);
  EXPECT_LE(again, std::max(reached, 0.4) + 1e-9);
}

TEST(FlowComponents, EstimatorDeterministic) {
  const Design d = generate_synthetic(small_spec());
  CongestionEstimator a(d, CongestionConfig{});
  CongestionEstimator b(d, CongestionConfig{});
  const CongestionResult ra = a.estimate();
  const CongestionResult rb = b.estimate();
  ASSERT_EQ(ra.maps.dmd_h.size(), rb.maps.dmd_h.size());
  for (std::size_t i = 0; i < ra.maps.dmd_h.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.maps.dmd_h.raw()[i], rb.maps.dmd_h.raw()[i]);
  }
  EXPECT_EQ(ra.expanded_segments, rb.expanded_segments);
}

TEST(FlowComponents, PaddingAreaReflectsDiscretization) {
  Design d = generate_synthetic(small_spec(77));
  PufferConfig cfg;
  cfg.gp.max_iters = 350;
  cfg.padding.xi = 4;
  cfg.discrete.max_pad_area_frac = 0.05;
  PufferFlow flow(d, cfg);
  const FlowMetrics m = flow.run();
  EXPECT_LE(m.padding_area, 0.05 * d.movable_area() + 1e-6);
}

TEST(FlowComponents, EvaluateRoutabilityUsesCurrentPositions) {
  Design d = generate_synthetic(small_spec());
  const RouteResult before = evaluate_routability(d);
  // Collapse every movable cell to the center: congestion must explode.
  const Point c = d.die.center();
  for (Cell& cell : d.cells) {
    if (cell.movable()) {
      cell.x = c.x;
      cell.y = c.y;
    }
  }
  const RouteResult after = evaluate_routability(d);
  EXPECT_GT(after.overflow.total_pct(), before.overflow.total_pct());
}

}  // namespace
}  // namespace puffer
