// Tests for the global-placement engine: WA wirelength model and analytic
// gradient (checked against finite differences), initial placement, the
// Nesterov engine's spreading behaviour, and GpConfig validation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/flow.h"
#include "gp/engine.h"
#include "gp/initial_place.h"
#include "gp/wirelength.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

Design two_cell_design() {
  Design d;
  d.die = {0, 0, 100, 100};
  d.tech = Technology::make_default(1.0, 8.0);
  for (int r = 0; r < 12; ++r) d.rows.push_back({r * 8.0, 0, 100, 1.0, 8.0});
  Cell a;
  a.name = "a";
  a.width = 2;
  a.height = 8;
  a.x = 10;
  a.y = 10;
  Cell b = a;
  b.name = "b";
  b.x = 60;
  b.y = 40;
  const CellId ca = d.add_cell(a);
  const CellId cb = d.add_cell(b);
  const NetId n = d.add_net("n");
  d.connect(ca, n, 1, 4);
  d.connect(cb, n, 1, 4);
  return d;
}

TEST(WaWirelength, ApproachesHpwlForSmallGamma) {
  const Design d = two_cell_design();
  WaWirelength wl(d);
  std::vector<double> x{11, 61}, y{14, 44};  // cell centers
  std::vector<double> gx, gy;
  const double hpwl = wl.hpwl(x, y);
  EXPECT_DOUBLE_EQ(hpwl, 50.0 + 30.0);
  const double wa_tight = wl.evaluate(x, y, 0.01, gx, gy);
  EXPECT_NEAR(wa_tight, hpwl, 0.1);
  // WA underestimates HPWL (log-sum-exp smoothing from below).
  const double wa_loose = wl.evaluate(x, y, 50.0, gx, gy);
  EXPECT_LT(wa_loose, hpwl);
}

TEST(WaWirelength, GradientMatchesFiniteDifference) {
  SyntheticSpec spec;
  spec.num_cells = 60;
  spec.num_nets = 90;
  spec.num_macros = 1;
  spec.num_terminals = 8;
  const Design d = generate_synthetic(spec);
  WaWirelength wl(d);
  const std::size_t n = wl.movable_cells().size();
  Rng rng(3);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(10, 90);
    y[i] = rng.uniform(10, 90);
  }
  const double gamma = 5.0;
  std::vector<double> gx, gy;
  wl.evaluate(x, y, gamma, gx, gy);

  const double h = 1e-5;
  std::vector<double> tmp_gx, tmp_gy;
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 12); ++i) {
    auto xp = x;
    xp[i] += h;
    auto xm = x;
    xm[i] -= h;
    const double fp = wl.evaluate(xp, y, gamma, tmp_gx, tmp_gy);
    const double fm = wl.evaluate(xm, y, gamma, tmp_gx, tmp_gy);
    const double fd = (fp - fm) / (2 * h);
    EXPECT_NEAR(gx[i], fd, 1e-4 * std::max(1.0, std::abs(fd)))
        << "cell " << i << " x-gradient";

    auto yp = y;
    yp[i] += h;
    auto ym = y;
    ym[i] -= h;
    const double fyp = wl.evaluate(x, yp, gamma, tmp_gx, tmp_gy);
    const double fym = wl.evaluate(x, ym, gamma, tmp_gx, tmp_gy);
    const double fdy = (fyp - fym) / (2 * h);
    EXPECT_NEAR(gy[i], fdy, 1e-4 * std::max(1.0, std::abs(fdy)))
        << "cell " << i << " y-gradient";
  }
}

TEST(WaWirelength, GradientPullsPinsTogether) {
  const Design d = two_cell_design();
  WaWirelength wl(d);
  std::vector<double> x{11, 61}, y{14, 44};
  std::vector<double> gx, gy;
  wl.evaluate(x, y, 2.0, gx, gy);
  // Left cell is pulled right (negative gradient means moving +x lowers
  // W... the gradient of W w.r.t. left cell x must be negative).
  EXPECT_LT(gx[0], 0.0);
  EXPECT_GT(gx[1], 0.0);
  EXPECT_LT(gy[0], 0.0);
  EXPECT_GT(gy[1], 0.0);
}

TEST(WaWirelength, RespectsNetWeight) {
  Design d = two_cell_design();
  d.nets[0].weight = 3.0;
  WaWirelength wl(d);
  std::vector<double> x{11, 61}, y{14, 44}, gx, gy;
  const double w3 = wl.evaluate(x, y, 2.0, gx, gy);
  const double g3 = gx[0];
  d.nets[0].weight = 1.0;
  WaWirelength wl1(d);
  const double w1 = wl1.evaluate(x, y, 2.0, gx, gy);
  EXPECT_NEAR(w3, 3.0 * w1, 1e-9);
  EXPECT_NEAR(g3, 3.0 * gx[0], 1e-9);
}

TEST(WaWirelength, PinCountsForPreconditioner) {
  const Design d = two_cell_design();
  WaWirelength wl(d);
  ASSERT_EQ(wl.pin_counts().size(), 2u);
  EXPECT_DOUBLE_EQ(wl.pin_counts()[0], 1.0);
}

TEST(InitialPlace, PullsTowardFixedAnchors) {
  Design d = two_cell_design();
  // Add a terminal at the far corner on the same net.
  Cell t;
  t.name = "t";
  t.kind = CellKind::kTerminal;
  t.x = 100;
  t.y = 100;
  const CellId ct = d.add_cell(t);
  d.connect(ct, 0, 0, 0);

  InitialPlaceConfig cfg;
  cfg.sweeps = 30;
  initial_place(d, cfg);
  // Cells end up pulled toward the anchor, away from the center.
  EXPECT_GT(d.cells[0].x, 50.0);
  EXPECT_GT(d.cells[0].y, 50.0);
}

TEST(InitialPlace, KeepExistingRefines) {
  Design d = two_cell_design();
  const double x0 = d.cells[0].x;
  InitialPlaceConfig cfg;
  cfg.keep_existing = true;
  cfg.sweeps = 0;
  initial_place(d, cfg);
  EXPECT_DOUBLE_EQ(d.cells[0].x, x0);
}

SyntheticSpec engine_spec() {
  SyntheticSpec spec;
  spec.num_cells = 500;
  spec.num_nets = 750;
  spec.num_macros = 3;
  spec.target_utilization = 0.75;
  return spec;
}

TEST(Engine, SpreadsClusteredPlacement) {
  Design d = generate_synthetic(engine_spec());
  initial_place(d);
  GpConfig cfg;
  cfg.max_iters = 400;
  EPlaceEngine engine(d, cfg);
  const double of0 = [&] {
    EPlaceEngine probe(d, cfg);
    probe.step();
    return probe.density_overflow();
  }();
  engine.run_to_overflow(0.15);
  EXPECT_LT(engine.density_overflow(), 0.16);
  EXPECT_LT(engine.density_overflow(), of0 * 0.5);
}

TEST(Engine, SyncWritesLegalBoundsPositions) {
  Design d = generate_synthetic(engine_spec());
  initial_place(d);
  GpConfig cfg;
  cfg.max_iters = 60;
  EPlaceEngine engine(d, cfg);
  for (int i = 0; i < 50; ++i) engine.step();
  engine.sync_to_design();
  for (const Cell& c : d.cells) {
    if (!c.movable()) continue;
    EXPECT_GE(c.x, d.die.xlo - 1e-6);
    EXPECT_LE(c.x + c.width, d.die.xhi + 1e-6);
    EXPECT_GE(c.y, d.die.ylo - 1e-6);
    EXPECT_LE(c.y + c.height, d.die.yhi + 1e-6);
  }
}

TEST(Engine, StepReportsIterationCap) {
  Design d = generate_synthetic(engine_spec());
  GpConfig cfg;
  cfg.max_iters = 5;
  EPlaceEngine engine(d, cfg);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(engine.iteration(), 5);
}

TEST(Engine, PaddingIncreasesLocalSpreading) {
  // Two identical engines; one pads the cells of one cluster heavily.
  Design d1 = generate_synthetic(engine_spec());
  Design d2 = d1;
  GpConfig cfg;
  cfg.max_iters = 250;
  EPlaceEngine e1(d1, cfg);
  EPlaceEngine e2(d2, cfg);
  e1.run_to_overflow(0.2);
  e2.run_to_overflow(0.2);
  // Pad every movable in e2 by 50% of its width: total area grows, so
  // the padded run must end with cells occupying more bins (higher final
  // HPWL) -- padding consumes whitespace.
  std::vector<double> pad(e2.movable_cells().size());
  for (std::size_t i = 0; i < pad.size(); ++i) {
    pad[i] = d2.cells[static_cast<std::size_t>(e2.movable_cells()[i])].width * 0.5;
  }
  e2.set_padding(pad);
  e1.run_to_overflow(0.12);
  e2.run_to_overflow(0.12);
  EXPECT_GT(e2.last_hpwl(), e1.last_hpwl() * 1.01);
}

// set_padding() changes the objective, so the next step starts from a
// fresh momentum at v, re-evaluates the dropped gradient there, and
// stays bit-identical across thread counts like every other step.
TEST(Engine, StepAfterSetPaddingRestartsMomentum) {
  std::vector<double> ref_x, ref_y;
  for (const int threads : {1, 8}) {
    par::set_num_threads(threads);
    Design d = generate_synthetic(engine_spec());
    initial_place(d);
    GpConfig cfg;
    cfg.max_iters = 100;
    EPlaceEngine engine(d, cfg);
    for (int i = 0; i < 40; ++i) ASSERT_TRUE(engine.step());
    EXPECT_GT(engine.momentum(), 10.0);
    const std::vector<double> u_before = engine.solver_x();
    std::vector<double> pad(engine.movable_cells().size(), 1.0);
    engine.set_padding(pad);
    EXPECT_EQ(engine.momentum(), 1.0);
    // u jumps to the extrapolated point v.
    EXPECT_NE(engine.solver_x(), u_before);
    const int evals = engine.kernel_times().gradient_evals;
    ASSERT_TRUE(engine.step());
    EXPECT_DOUBLE_EQ(engine.momentum(), (1.0 + std::sqrt(5.0)) / 2.0);
    EXPECT_GE(engine.kernel_times().gradient_evals - evals, 2);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(engine.step());
    if (ref_x.empty()) {
      ref_x = engine.solver_x();
      ref_y = engine.solver_y();
    } else {
      EXPECT_EQ(engine.solver_x(), ref_x);
      EXPECT_EQ(engine.solver_y(), ref_y);
    }
  }
  par::set_num_threads(0);
}

TEST(Engine, BinDimIsPowerOfTwo) {
  Design d = generate_synthetic(engine_spec());
  GpConfig cfg;
  cfg.bin_dim = 48;  // rounded up to 64
  EPlaceEngine engine(d, cfg);
  EXPECT_EQ(engine.bin_dim(), 64);
}

TEST(Engine, ConvergedLatchClearsOnPadding) {
  Design d = generate_synthetic(engine_spec());
  GpConfig cfg;
  cfg.max_iters = 2000;
  EPlaceEngine engine(d, cfg);
  engine.run_to_overflow(0.0);  // unreachable: runs until plateau latch
  EXPECT_TRUE(engine.converged());
  EXPECT_FALSE(engine.step());
  std::vector<double> pad(engine.movable_cells().size(), 1.0);
  engine.set_padding(pad);
  EXPECT_FALSE(engine.converged());
  EXPECT_TRUE(engine.step());
}

TEST(Engine, ValidateGpConfigRejectsUnusableValues) {
  const auto rejects = [](const char* what, auto edit) {
    GpConfig c;
    edit(c);
    EXPECT_THROW(validate_gp_config(c), std::invalid_argument) << what;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  rejects("density 0", [](GpConfig& c) { c.target_density = 0.0; });
  rejects("density -1", [](GpConfig& c) { c.target_density = -1.0; });
  rejects("density 1.5", [](GpConfig& c) { c.target_density = 1.5; });
  rejects("density nan", [&](GpConfig& c) { c.target_density = nan; });
  rejects("bins -1", [](GpConfig& c) { c.bin_dim = -1; });
  rejects("bins 1025", [](GpConfig& c) { c.bin_dim = kMaxBinDim + 1; });
  rejects("bins 8192", [](GpConfig& c) { c.bin_dim = 8192; });
  rejects("freeze nan", [&](GpConfig& c) { c.lambda_freeze_overflow = nan; });
  rejects("freeze inf", [&](GpConfig& c) { c.lambda_freeze_overflow = inf; });
  rejects("freeze -1", [](GpConfig& c) { c.lambda_freeze_overflow = -1.0; });
  rejects("iters -1", [](GpConfig& c) { c.max_iters = -1; });

  GpConfig ok;
  EXPECT_NO_THROW(validate_gp_config(ok));
  ok.bin_dim = kMaxBinDim;
  ok.target_density = 1.0;
  ok.max_iters = 0;
  EXPECT_EQ(validate_gp_config(ok).bin_dim, kMaxBinDim);
}

TEST(Engine, ConstructorsValidateGpConfig) {
  Design d = generate_synthetic(engine_spec());
  GpConfig cfg;
  cfg.target_density = 0.0;
  EXPECT_THROW({ EPlaceEngine engine(d, cfg); }, std::invalid_argument);
  PufferConfig flow_cfg;
  flow_cfg.gp.target_density = -1.0;
  EXPECT_THROW({ PufferFlow flow(d, flow_cfg); }, std::invalid_argument);
}

}  // namespace
}  // namespace puffer
