#include "core/baselines.h"

#include <algorithm>
#include <cmath>

#include "common/logger.h"

namespace puffer {

namespace {
constexpr const char* kTag = "baseline";

// RePlAce-RC's optimizer: it fires above the lambda latch, runs at most
// kRcMaxRounds inflation rounds, and converges to kRcFinalOverflow.
constexpr double kRcTriggerOverflow = 0.28;
constexpr int kRcMaxRounds = 6;
constexpr double kRcInflateExponent = 2.0;  // ratio^k inflation
constexpr double kRcMaxInflate = 1.8;       // width multiplier cap
// Per-round cap on the added inflation area vs movable area (RePlAce's
// inflation-budget control); excess is scaled down.
constexpr double kRcRoundAreaCap = 0.05;
constexpr double kRcFinalOverflow = 0.10;

// The commercial proxy converges the placement further.
constexpr double kProxyFinalOverflow = 0.09;
}  // namespace

FlowMetrics run_replace_rc(Design& design) {
  FlowMetrics metrics;
  Timer total;

  {
    ScopedStageTimer t(metrics.stages, "initial_place");
    initial_place(design);
  }

  // RePlAce runs a fixed fine density grid regardless of design size (vs.
  // our engine's adaptive choice), one source of its longer runtimes on
  // small and mid-size designs. The finer grid raises the measurable
  // overflow floor, so the lambda latch must engage earlier or congested
  // designs never freeze and wirelength diverges.
  GpConfig gp;
  gp.bin_dim = 128;
  gp.max_iters = 1600;
  gp.lambda_freeze_overflow = 0.25;
  EPlaceEngine engine(design, gp);
  CongestionEstimator estimator(design, CongestionConfig{});
  const auto& movable = engine.movable_cells();
  std::vector<double> pad(movable.size(), 0.0);

  {
    ScopedStageTimer t(metrics.stages, "global_place");
    int rounds = 0;
    while (true) {
      engine.run_to_overflow(kRcTriggerOverflow);
      if (engine.density_overflow() >= kRcTriggerOverflow ||
          rounds >= kRcMaxRounds) {
        break;
      }
      ScopedStageTimer t2(metrics.stages, "routability_opt");
      const CongestionResult congestion = estimator.estimate();
      const Map2D<double> cg = congestion.maps.cg_map();
      // Local-ratio inflation: width multiplier = ratio^k for overflowed
      // cells, monotone across rounds (RePlAce-style), with a per-round
      // budget on the added area.
      std::vector<double> want(movable.size(), 0.0);
      double added = 0.0;
      for (std::size_t i = 0; i < movable.size(); ++i) {
        const Cell& c = design.cells[static_cast<std::size_t>(movable[i])];
        GcellIndex lo, hi;
        congestion.maps.grid.range_of(c.rect(), lo, hi);
        double worst = 0.0;
        for (int gy = lo.gy; gy <= hi.gy; ++gy) {
          for (int gx = lo.gx; gx <= hi.gx; ++gx) {
            worst = std::max(worst, cg.at(gx, gy));
          }
        }
        if (worst <= 0.0) continue;
        const double ratio = 1.0 + worst;  // demand/capacity
        const double mult =
            std::min(std::pow(ratio, kRcInflateExponent), kRcMaxInflate);
        const double target_pad = (mult - 1.0) * c.width;
        if (target_pad > pad[i]) {
          want[i] = target_pad - pad[i];
          added += want[i] * c.height;
        }
      }
      const double budget = kRcRoundAreaCap * design.movable_area();
      const double scale = added > budget ? budget / added : 1.0;
      for (std::size_t i = 0; i < movable.size(); ++i) {
        pad[i] += want[i] * scale;
      }
      engine.set_padding(pad);
      ++rounds;
      metrics.padding_rounds = rounds;
      PUFFER_LOG_INFO(kTag, "replace_rc inflation round %d at iter %d "
                      "(added %.3g area, scale %.2f)",
                      rounds, engine.iteration(), added * scale, scale);
      // RePlAce's routability mode fully re-converges the placement after
      // every inflation round (place -> estimate -> inflate -> re-place),
      // the main source of its longer runtimes.
      engine.run_to_overflow(kRcFinalOverflow);
    }
    engine.run_to_overflow(kRcFinalOverflow);
  }
  metrics.hpwl_gp = design.total_hpwl();
  metrics.gp_kernels.add(engine.kernel_times());

  {
    ScopedStageTimer t(metrics.stages, "legalize");
    metrics.legalize = legalize(design);
  }
  metrics.hpwl_legal = design.total_hpwl();
  metrics.legality = check_legality(design);
  metrics.runtime_s = total.elapsed_seconds();
  return metrics;
}

FlowMetrics run_commercial_proxy(Design& design) {
  FlowMetrics metrics;
  Timer total;

  {
    ScopedStageTimer t(metrics.stages, "initial_place");
    initial_place(design);
  }

  // Conservative, accuracy-first settings: the optimizer fires late (on a
  // nearly-spread placement, where routed maps are meaningful), runs more
  // rounds with a slower ramp, and the in-loop router works harder.
  GpConfig gp;
  gp.max_iters = 1600;
  PaddingParams padding;
  padding.xi = 12;
  padding.tau = 0.25;
  padding.pu_low = 0.01;
  padding.pu_high = 0.06;
  padding.mu = 4.0;
  padding.spacing_iters = 45;
  RouterConfig router_config;
  router_config.rr_rounds = 8;
  router_config.bbox_margin = 10;

  EPlaceEngine engine(design, gp);
  PaddingEngine padder(design, engine.movable_cells(), padding);
  // Still used for the net topologies and features.
  CongestionEstimator estimator(design, CongestionConfig{});

  {
    ScopedStageTimer t(metrics.stages, "global_place");
    while (true) {
      engine.run_to_overflow(padding.tau);
      if (!padder.should_trigger(engine.density_overflow())) break;
      ScopedStageTimer t2(metrics.stages, "routability_opt");
      // Estimator supplies the topologies; the in-loop global router
      // replaces the probabilistic demand with actual routed demand.
      CongestionResult congestion = estimator.estimate();
      GlobalRouter router(design, router_config);
      const RouteResult routed = router.route();
      if (routed.maps.grid.nx() == congestion.maps.grid.nx() &&
          routed.maps.grid.ny() == congestion.maps.grid.ny()) {
        congestion.maps.dmd_h = routed.maps.dmd_h;
        congestion.maps.dmd_v = routed.maps.dmd_v;
        congestion.maps.cap_h = routed.maps.cap_h;
        congestion.maps.cap_v = routed.maps.cap_v;
      }
      const std::vector<double>& pad = padder.update(congestion);
      engine.set_padding(pad);
      PUFFER_LOG_INFO(kTag, "proxy padding round %d at iter %d (router OF %.3f%%)",
                      padder.attempts(), engine.iteration(),
                      routed.overflow.total_pct());
      for (int k = 0; k < padding.spacing_iters; ++k) {
        if (!engine.step()) break;
      }
      engine.sync_to_design();
    }
    engine.run_to_overflow(kProxyFinalOverflow);
  }
  metrics.hpwl_gp = design.total_hpwl();
  metrics.gp_kernels.add(engine.kernel_times());
  metrics.padding_rounds = padder.rounds();

  {
    ScopedStageTimer t(metrics.stages, "legalize");
    std::vector<double> pad_by_cell(design.cells.size(), 0.0);
    const auto& movable = engine.movable_cells();
    for (std::size_t i = 0; i < movable.size(); ++i) {
      pad_by_cell[static_cast<std::size_t>(movable[i])] = padder.padding()[i];
    }
    const std::vector<int> levels = discretize_padding(design, pad_by_cell);
    metrics.legalize = legalize(design, levels);
  }
  metrics.hpwl_legal = design.total_hpwl();
  metrics.legality = check_legality(design);
  metrics.runtime_s = total.elapsed_seconds();
  return metrics;
}

}  // namespace puffer
