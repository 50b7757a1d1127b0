// SoA global-placement core tests: mirror<->Design sync at every commit
// point (engine commit, legalization/DP commits, snapshot restores),
// bit-identity of the SoA WA gradient and bucketed rasterization against
// the retired scalar kernels across PUFFER_THREADS 1/2/8 and SIMD
// on/off, flow-level placement checksums across the same matrix, and
// exact equality of the preplanned DctPlan2D transforms (the batched
// field pair included) with the dct.h free functions, and of the
// fields-only Poisson solve's on-request potential and energy with the
// legacy pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/flow.h"
#include "fft/dct.h"
#include "fft/dct_plan.h"
#include "gp/electrostatics.h"
#include "gp/engine.h"
#include "gp/soa.h"
#include "gp/wirelength.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

// Restores the global worker count and the SIMD switch after each test.
class GpSoaTest : public ::testing::Test {
 protected:
  ~GpSoaTest() override {
    par::set_num_threads(0);
    simd::set_enabled(true);
  }
};

SyntheticSpec small_spec(std::uint64_t seed = 17) {
  SyntheticSpec spec;
  spec.name = "soa";
  spec.seed = seed;
  spec.num_cells = 300;
  spec.num_nets = 450;
  spec.num_macros = 2;
  spec.target_utilization = 0.78;
  spec.v_capacity_factor = 0.55;
  return spec;
}

PufferConfig small_flow_config() {
  PufferConfig cfg;
  cfg.gp.max_iters = 250;
  cfg.padding.xi = 3;
  return cfg;
}

std::uint64_t placement_checksum(const Design& d) {
  BinaryWriter w;
  for (const Cell& c : d.cells) {
    w.f64(c.x);
    w.f64(c.y);
  }
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

TEST_F(GpSoaTest, BuildMirrorsDesignExactly) {
  Design d = generate_synthetic(small_spec());
  GpSoA soa;
  soa.build(d);

  ASSERT_GT(soa.num_movable(), 0u);
  ASSERT_GT(soa.num_nets(), 0u);
  EXPECT_TRUE(soa.matches(d));

  // Every movable ordinal round-trips through ordinal_of_cell, and the
  // mirrored center is the exact expression x + width*0.5.
  for (std::size_t i = 0; i < soa.num_movable(); ++i) {
    const CellId id = soa.cell_ids[i];
    const Cell& c = d.cells[static_cast<std::size_t>(id)];
    EXPECT_TRUE(c.movable());
    EXPECT_EQ(soa.ordinal_of_cell[static_cast<std::size_t>(id)],
              static_cast<std::int32_t>(i));
    EXPECT_EQ(soa.cx[i], c.x + c.width * 0.5);
    EXPECT_EQ(soa.cy[i], c.y + c.height * 0.5);
    EXPECT_EQ(soa.cw[i], c.width);
  }
  // CSR sanity: slot counts agree between the net-major and the
  // transposed cell-major views (fixed-pin slots appear only net-major).
  EXPECT_EQ(soa.net_start.back(),
            static_cast<std::int64_t>(soa.num_slots()));
  std::int64_t movable_slots = 0;
  for (std::size_t s = 0; s < soa.num_slots(); ++s) {
    if (soa.pin_ord[s] >= 0) ++movable_slots;
  }
  EXPECT_EQ(soa.cell_start.back(), movable_slots);
}

TEST_F(GpSoaTest, PullPushSyncAfterExternalCommits) {
  Design d = generate_synthetic(small_spec());
  GpSoA soa;
  soa.build(d);
  EXPECT_TRUE(soa.matches(d));

  // A full flow commits GP results, discretized padding, legalization,
  // and detailed placement into the Design behind the mirror's back.
  PufferConfig cfg = small_flow_config();
  cfg.run_dp = true;
  PufferFlow flow(d, cfg);
  flow.run();
  EXPECT_FALSE(soa.matches(d));  // mirror is stale at this commit point

  soa.pull_positions(d);
  EXPECT_TRUE(soa.matches(d));

  // push_positions writes centers back as lower-left corners, bitwise.
  const std::uint64_t before = placement_checksum(d);
  soa.cx[0] += 3.5;
  soa.cy[0] -= 1.25;
  soa.push_positions(d);
  EXPECT_TRUE(soa.matches(d));
  EXPECT_NE(placement_checksum(d), before);
  const Cell& moved = d.cells[static_cast<std::size_t>(soa.cell_ids[0])];
  EXPECT_EQ(moved.x, soa.cx[0] - moved.width * 0.5);
  EXPECT_EQ(moved.y, soa.cy[0] - moved.height * 0.5);
}

TEST_F(GpSoaTest, EngineCommitAndSnapshotRestoreKeepMirrorInSync) {
  // Engine commit: sync_to_design() must leave the engine's own mirror
  // matching the Design.
  Design d = generate_synthetic(small_spec());
  GpConfig gp;
  gp.max_iters = 40;
  EPlaceEngine eng(d, gp);
  for (int i = 0; i < 10; ++i) eng.step();
  eng.sync_to_design();
  EXPECT_TRUE(eng.soa().matches(d));

  // Snapshot restore: run_from() on a fresh Design is an external commit
  // like any other -- a mirror built before it goes stale and re-syncs.
  Design d2 = generate_synthetic(small_spec());
  PufferFlow flow(d2, small_flow_config());
  FlowSnapshot snap;
  flow.run_prefix(0.45, &snap);
  GpSoA mirror;
  mirror.build(d2);
  EXPECT_TRUE(mirror.matches(d2));
  flow.run_from(snap);
  EXPECT_FALSE(mirror.matches(d2));
  mirror.pull_positions(d2);
  EXPECT_TRUE(mirror.matches(d2));
  EXPECT_EQ(mirror.position_checksum(), [&] {
    GpSoA fresh;
    fresh.build(d2);
    return fresh.position_checksum();
  }());
}

// Centers of the movable cells of `d`, in ordinal order.
void cell_centers(const Design& d, const WaWirelength& wl,
                  std::vector<double>& xc, std::vector<double>& yc) {
  xc.clear();
  yc.clear();
  for (CellId c : wl.movable_cells()) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    xc.push_back(cell.x + cell.width * 0.5);
    yc.push_back(cell.y + cell.height * 0.5);
  }
}

TEST_F(GpSoaTest, GradientBitIdenticalToLegacyAcrossThreadsAndSimd) {
  Design d = generate_synthetic(small_spec());
  // Move every pin of a few all-movable nets to its cell's center, so
  // that stacking those cells on one point below puts all of a net's
  // pins on one coordinate: every WA argument of the net is then 0.
  std::vector<CellId> stacked;
  int stacked_nets = 0;
  for (const Net& net : d.nets) {
    if (stacked_nets == 3) break;
    bool movable = net.pins.size() >= 2;
    for (PinId pid : net.pins) {
      const Cell& c = d.cells[static_cast<std::size_t>(
          d.pins[static_cast<std::size_t>(pid)].cell)];
      movable = movable && c.movable();
    }
    if (!movable) continue;
    for (PinId pid : net.pins) {
      Pin& pin = d.pins[static_cast<std::size_t>(pid)];
      const Cell& c = d.cells[static_cast<std::size_t>(pin.cell)];
      pin.dx = c.width * 0.5;
      pin.dy = c.height * 0.5;
      stacked.push_back(pin.cell);
    }
    ++stacked_nets;
  }
  ASSERT_EQ(stacked_nets, 3);
  WaWirelength wl(d);

  // Position sets: the generated placement, the engine's after some
  // Nesterov steps, and the latter with the stacked nets collapsed.
  std::vector<std::vector<double>> xs(3), ys(3);
  cell_centers(d, wl, xs[0], ys[0]);
  {
    Design moved = d;
    GpConfig gp;
    EPlaceEngine eng(moved, gp);
    for (int i = 0; i < 30; ++i) eng.step();
    eng.sync_to_design();
    cell_centers(moved, wl, xs[1], ys[1]);
  }
  ASSERT_NE(xs[1], xs[0]);
  xs[2] = xs[1];
  ys[2] = ys[1];
  for (CellId c : stacked) {
    const std::size_t ord =
        static_cast<std::size_t>(wl.ordinal_of()[static_cast<std::size_t>(c)]);
    xs[2][ord] = 101.25;
    ys[2][ord] = 57.5;
  }
  int coincident = 0;  // nets with every pin on (101.25, 57.5)
  const GpSoA& soa = wl.soa();
  for (std::size_t n = 0; n < soa.num_nets(); ++n) {
    bool on_point = true;
    for (std::int64_t k = soa.net_start[n]; k < soa.net_start[n + 1]; ++k) {
      const std::size_t us = static_cast<std::size_t>(k);
      const std::int32_t o = soa.pin_ord[us];
      on_point = on_point && o >= 0 &&
                 xs[2][static_cast<std::size_t>(o)] + soa.pin_ox[us] == 101.25 &&
                 ys[2][static_cast<std::size_t>(o)] + soa.pin_oy[us] == 57.5;
    }
    coincident += on_point ? 1 : 0;
  }
  ASSERT_GE(coincident, 3);

  for (std::size_t p = 0; p < xs.size(); ++p) {
    const std::vector<double>& xc = xs[p];
    const std::vector<double>& yc = ys[p];
    for (const double gamma : {0.05, 4.0, 60.0}) {
      // Reference bits: the retired scalar kernel, serial.
      par::set_num_threads(1);
      wl.use_legacy_kernels(true);
      std::vector<double> rgx, rgy;
      const double ref_total = wl.evaluate(xc, yc, gamma, rgx, rgy);
      const double ref_hpwl = wl.hpwl(xc, yc);

      for (const int threads : {1, 2, 8}) {
        par::set_num_threads(threads);
        for (const bool legacy : {true, false}) {
          wl.use_legacy_kernels(legacy);
          for (const bool simd_on : {true, false}) {
            simd::set_enabled(simd_on);
            std::vector<double> gx, gy;
            const std::string where =
                "positions=" + std::to_string(p) + " gamma=" +
                std::to_string(gamma) + " threads=" + std::to_string(threads) +
                " legacy=" + std::to_string(legacy) +
                " simd=" + std::to_string(simd_on);
            EXPECT_EQ(wl.evaluate(xc, yc, gamma, gx, gy), ref_total) << where;
            EXPECT_EQ(gx, rgx) << where;
            EXPECT_EQ(gy, rgy) << where;
            if (!legacy) {
              EXPECT_EQ(wl.last_hpwl(), ref_hpwl) << where;
            }
            EXPECT_EQ(wl.hpwl(xc, yc), ref_hpwl) << where;
          }
        }
      }
    }
  }
}

TEST_F(GpSoaTest, RasterizeBitIdenticalToLegacyAcrossThreads) {
  // 300 cells fit one element chunk of the parallel bucket pass; 3000
  // cells span several, so per-chunk offsets must line up too.
  for (const int cells : {300, 3000}) {
    SyntheticSpec spec = small_spec();
    spec.num_cells = cells;
    spec.num_nets = cells * 3 / 2;
    GpConfig legacy_cfg;
    legacy_cfg.legacy_kernels = true;
    Design d1 = generate_synthetic(spec);
    EPlaceEngine legacy_eng(d1, legacy_cfg);
    Design d2 = generate_synthetic(spec);
    EPlaceEngine soa_eng(d2, GpConfig{});
    ASSERT_EQ(legacy_eng.solver_x(), soa_eng.solver_x());  // same elements
    if (cells == 3000) {
      ASSERT_GT(soa_eng.num_elements(), 3000u);
    }

    // The initial (clustered) positions, and spread ones after some steps.
    std::vector<std::vector<double>> xs{soa_eng.solver_x()};
    std::vector<std::vector<double>> ys{soa_eng.solver_y()};
    for (int i = 0; i < 25; ++i) soa_eng.step();
    xs.push_back(soa_eng.solver_x());
    ys.push_back(soa_eng.solver_y());

    for (std::size_t p = 0; p < xs.size(); ++p) {
      par::set_num_threads(1);
      const std::vector<double> ref =
          legacy_eng.rasterize_probe(xs[p], ys[p]).raw();
      for (const int threads : {1, 2, 8}) {
        par::set_num_threads(threads);
        for (const bool simd_on : {true, false}) {
          simd::set_enabled(simd_on);
          EXPECT_EQ(legacy_eng.rasterize_probe(xs[p], ys[p]).raw(), ref)
              << "legacy cells=" << cells << " positions=" << p
              << " threads=" << threads << " simd=" << simd_on;
          EXPECT_EQ(soa_eng.rasterize_probe(xs[p], ys[p]).raw(), ref)
              << "soa cells=" << cells << " positions=" << p
              << " threads=" << threads << " simd=" << simd_on;
        }
      }
    }
  }
}

TEST_F(GpSoaTest, FlowChecksumInvariantAcrossThreadsSimdAndKernelPath) {
  std::uint64_t ref = 0;
  bool have_ref = false;
  for (const int threads : {1, 2, 8}) {
    par::set_num_threads(threads);
    for (const bool simd_on : {true, false}) {
      simd::set_enabled(simd_on);
      Design d = generate_synthetic(small_spec());
      PufferFlow flow(d, small_flow_config());
      flow.run();
      const std::uint64_t sum = placement_checksum(d);
      if (!have_ref) {
        ref = sum;
        have_ref = true;
      }
      EXPECT_EQ(sum, ref) << "threads=" << threads << " simd=" << simd_on;
    }
  }
  // The retired scalar path reproduces the same final placement.
  simd::set_enabled(true);
  par::set_num_threads(1);
  Design d = generate_synthetic(small_spec());
  PufferConfig cfg = small_flow_config();
  cfg.gp.legacy_kernels = true;
  PufferFlow flow(d, cfg);
  flow.run();
  EXPECT_EQ(placement_checksum(d), ref);
}

TEST_F(GpSoaTest, DctPlanMatchesFreeFunctionsBitwise) {
  Rng rng(123);
  // Non-square on purpose; the small grids leave odd line counts per
  // chunk and column blocks narrower than the plan's block width.
  const std::vector<std::pair<std::size_t, std::size_t>> sizes = {
      {32, 16}, {4, 2}, {1, 8}, {2, 1}};
  for (const auto& [nx, ny] : sizes) {
    std::vector<double> data(nx * ny), data_y(nx * ny);
    for (double& v : data) v = rng.uniform(-2.0, 2.0);
    for (double& v : data_y) v = rng.uniform(-2.0, 2.0);

    DctPlan2D plan(nx, ny);
    std::vector<double> out, fx, fy;
    for (const int threads : {1, 2, 8}) {
      par::set_num_threads(threads);
      for (const bool simd_on : {true, false}) {
        simd::set_enabled(simd_on);
        const std::string where =
            std::to_string(nx) + "x" + std::to_string(ny) +
            " threads=" + std::to_string(threads) +
            " simd=" + std::to_string(simd_on);
        plan.dct2_2d(data, out);
        EXPECT_EQ(out, dct2_2d(data, nx, ny)) << where;
        plan.dct3_raw_2d(data, out);
        EXPECT_EQ(out, dct3_raw_2d(data, nx, ny)) << where;
        plan.idxst_dct3_2d(data, out);
        EXPECT_EQ(out, idxst_dct3_2d(data, nx, ny)) << where;
        plan.dct3_idxst_2d(data, out);
        EXPECT_EQ(out, dct3_idxst_2d(data, nx, ny)) << where;
        // The batched field pair equals the two separate transforms.
        plan.fields_2d(data, data_y, fx, fy);
        EXPECT_EQ(fx, idxst_dct3_2d(data, nx, ny)) << where;
        EXPECT_EQ(fy, dct3_idxst_2d(data_y, nx, ny)) << where;
      }
    }

    // Aliased in/out is allowed.
    std::vector<double> inplace = data;
    plan.dct2_2d(inplace, inplace);
    EXPECT_EQ(inplace, dct2_2d(data, nx, ny));
    fx = data;
    fy = data_y;
    plan.fields_2d(fx, fy, fx, fy);
    EXPECT_EQ(fx, idxst_dct3_2d(data, nx, ny));
    EXPECT_EQ(fy, dct3_idxst_2d(data_y, nx, ny));
  }
  simd::set_enabled(true);

  EXPECT_THROW(DctPlan2D(24, 16), std::invalid_argument);

  // The solver computes only the fields eagerly; the potential and the
  // energy it derives on request equal the legacy (free-function)
  // pipeline bitwise, and follow the latest solve.
  const int enx = 32, eny = 16;
  ElectrostaticSystem es(enx, eny, 300.0, 140.0);
  ElectrostaticSystem legacy(enx, eny, 300.0, 140.0);
  legacy.use_legacy_pipeline(true);
  for (const int round : {0, 1}) {
    Map2D<double> rho(enx, eny);
    for (double& v : rho.raw()) v = rng.uniform(0.0, 3.0);
    for (const int threads : {1, 2, 8}) {
      par::set_num_threads(threads);
      es.solve(rho);
      legacy.solve(rho);
      const std::string where = "round=" + std::to_string(round) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(es.field_x().raw(), legacy.field_x().raw()) << where;
      EXPECT_EQ(es.field_y().raw(), legacy.field_y().raw()) << where;
      EXPECT_EQ(es.potential().raw(), legacy.potential().raw()) << where;
      EXPECT_EQ(es.energy(), legacy.energy()) << where;
      ElectrostaticSystem fresh(enx, eny, 300.0, 140.0);
      fresh.solve(rho);
      EXPECT_EQ(es.potential().raw(), fresh.potential().raw()) << where;
    }
  }
}

TEST_F(GpSoaTest, SimdHelpersMatchScalarBitwise) {
  // The vector helpers must agree with their scalar fallbacks bit-for-bit
  // on every lane, including the tail and signed zeros.
  Rng rng(99);
  const std::size_t n = 257;  // odd: exercises the scalar tail
  std::vector<double> a(n), b(n), lo(n), hi(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-10.0, 10.0);
    b[i] = rng.uniform(-10.0, 10.0);
    lo[i] = -5.0;
    hi[i] = 5.0;
  }
  a[0] = -0.0;
  b[0] = 0.0;

  std::vector<double> v1(n), v2(n);
  auto expect_lanes_equal = [&](const char* op) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(v1[i], v2[i]) << op << " lane " << i;
      ASSERT_EQ(std::signbit(v1[i]), std::signbit(v2[i]))
          << op << " lane " << i;
    }
  };

  simd::set_enabled(true);
  simd::sub_scaled(a.data(), b.data(), 0.37, v1.data(), n);
  simd::set_enabled(false);
  simd::sub_scaled(a.data(), b.data(), 0.37, v2.data(), n);
  expect_lanes_equal("sub_scaled");

  simd::set_enabled(true);
  simd::extrapolate(a.data(), b.data(), 1.62, v1.data(), n);
  simd::set_enabled(false);
  simd::extrapolate(a.data(), b.data(), 1.62, v2.data(), n);
  expect_lanes_equal("extrapolate");

  simd::set_enabled(true);
  simd::add(a.data(), b.data(), v1.data(), n);
  simd::set_enabled(false);
  simd::add(a.data(), b.data(), v2.data(), n);
  expect_lanes_equal("add");

  simd::set_enabled(true);
  v1 = a;
  simd::clamp_to(v1.data(), lo.data(), hi.data(), n);
  simd::set_enabled(false);
  v2 = a;
  simd::clamp_to(v2.data(), lo.data(), hi.data(), n);
  expect_lanes_equal("clamp_to");

  simd::set_enabled(true);
}

}  // namespace
}  // namespace puffer
