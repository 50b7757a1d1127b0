#include "core/flow.h"

#include <algorithm>

#include "common/logger.h"
#include "common/parallel.h"

namespace puffer {

namespace {
constexpr const char* kTag = "flow";
}

PufferFlow::PufferFlow(Design& design, PufferConfig config)
    : design_(design), config_(config) {
  validate_gp_config(config_.gp);
  validate_legalize_config(config_.legal);
}

FlowMetrics PufferFlow::run() { return run_internal(nullptr); }

std::uint64_t PufferFlow::prefix_key(double fork_overflow) const {
  BinaryWriter w;
  w.u32(kGpRevision);
  w.i32(config_.gp.bin_dim);
  w.f64(config_.gp.target_density);
  w.i32(config_.gp.max_iters);
  w.f64(config_.gp.lambda_freeze_overflow);
  w.f64(fork_overflow);
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

FlowMetrics PufferFlow::run_prefix(double fork_overflow, FlowSnapshot* out) {
  FlowMetrics metrics;
  Timer total;

  {
    ScopedStageTimer t(metrics.stages, "initial_place");
    initial_place(design_);
  }
  EPlaceEngine engine(design_, config_.gp);
  {
    ScopedStageTimer t(metrics.stages, "global_place");
    engine.run_to_overflow(fork_overflow);
  }
  metrics.hpwl_gp = design_.total_hpwl();
  metrics.gp_kernels.add(engine.kernel_times());
  metrics.runtime_s = total.elapsed_seconds();
  PUFFER_LOG_INFO(kTag,
                  "prefix done in %.1fs at overflow %.3f (iter %d), hpwl %.4g",
                  metrics.runtime_s, engine.density_overflow(),
                  engine.iteration(), metrics.hpwl_gp);

  if (out) {
    out->design_key = design_structure_key(design_);
    out->prefix_key = prefix_key(fork_overflow);
    const std::size_t n = design_.cells.size();
    out->x.resize(n);
    out->y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out->x[i] = design_.cells[i].x;
      out->y[i] = design_.cells[i].y;
    }
  }
  return metrics;
}

FlowMetrics PufferFlow::run_from(const FlowSnapshot& snapshot) {
  return run_internal(&snapshot);
}

FlowMetrics PufferFlow::run_internal(const FlowSnapshot* snapshot) {
  FlowMetrics metrics;
  Timer total;

  if (snapshot == nullptr) {
    ScopedStageTimer t(metrics.stages, "initial_place");
    initial_place(design_);
  } else {
    ScopedStageTimer t(metrics.stages, "restore");
    if (snapshot->design_key != design_structure_key(design_)) {
      throw CheckpointError("flow: snapshot was taken from a different design");
    }
    if (snapshot->x.size() != design_.cells.size()) {
      throw CheckpointError("flow: snapshot cell count disagrees with design");
    }
    for (std::size_t i = 0; i < design_.cells.size(); ++i) {
      design_.cells[i].x = snapshot->x[i];
      design_.cells[i].y = snapshot->y[i];
    }
  }

  // The placement engine reads the design's (restored) positions at
  // construction, so the Nesterov state restarts at the fork boundary —
  // identically for an in-memory and an on-disk snapshot.
  EPlaceEngine engine(design_, config_.gp);
  PaddingEngine padder(design_, engine.movable_cells(), config_.padding);
  estimator_ = std::make_unique<CongestionEstimator>(design_, config_.congestion);

  // Global placement with interleaved routability optimization.
  int round = 0;
  {
    ScopedStageTimer t(metrics.stages, "global_place");
    while (true) {
      engine.run_to_overflow(config_.padding.tau);
      if (!padder.should_trigger(engine.density_overflow())) break;
      ScopedStageTimer t2(metrics.stages, "routability_opt");
      const Timer est_timer;
      const CongestionResult congestion = estimator_->estimate();
      const double est_s = est_timer.elapsed_seconds();
      ++metrics.estimation.calls;
      ++metrics.estimation.full_rebuilds;
      metrics.estimation.full_time_s += est_s;
      const OverflowStats est_of = compute_overflow(congestion.maps);
      metrics.round_est_overflow.push_back(est_of.total_pct());
      if (progress_hook_) {
        FlowProgress progress;
        progress.round = round;
        progress.est = est_of;
        progress.hpwl = design_.total_hpwl();
        progress.maps = &congestion.maps;
        if (!progress_hook_(progress)) {
          metrics.aborted_early = true;
          break;
        }
      }
      ++round;
      const std::vector<double>& pad = padder.update(congestion);
      engine.set_padding(pad);
      PUFFER_LOG_INFO(kTag,
                      "padding round %d at iter %d (overflow %.3f, est "
                      "expanded %d segs; est %.3fs)",
                      padder.attempts(), engine.iteration(),
                      engine.density_overflow(), congestion.expanded_segments,
                      est_s);
      // Let the density system absorb the new areas before re-estimating,
      // with the pool kept warm as in run_to_overflow().
      {
        par::KeepWarmScope warm;
        for (int k = 0; k < config_.padding.spacing_iters; ++k) {
          if (!engine.step()) break;
        }
      }
      engine.sync_to_design();
    }
    if (!metrics.aborted_early) {
      engine.run_to_overflow(config_.final_overflow);
    }
  }
  metrics.hpwl_gp = design_.total_hpwl();
  metrics.padding_rounds = padder.rounds();
  metrics.gp_kernels.add(engine.kernel_times());
  {
    const GpKernelTimes& k = metrics.gp_kernels;
    PUFFER_LOG_INFO(kTag,
                    "gp kernels: wl %.2fs density %.2fs poisson %.2fs "
                    "assemble %.2fs nesterov %.2fs (%d evals, %d iters)",
                    k.wirelength_s, k.density_s, k.poisson_s, k.assemble_s,
                    k.nesterov_s, k.gradient_evals, k.iterations);
  }

  if (metrics.aborted_early) {
    // Pruned session: no final convergence, no legalization. The design
    // holds the mid-flow positions; the orchestrator only reads the
    // per-round overflow trail and the deterministic penalty loss.
    metrics.runtime_s = total.elapsed_seconds();
    metrics.padding_stage = padder.stage_metrics();
    PUFFER_LOG_INFO(kTag, "flow stopped by progress hook at round %d",
                    round);
    return metrics;
  }

  // White-space-assisted legalization: inherit the GP padding.
  {
    ScopedStageTimer t(metrics.stages, "legalize");
    std::vector<double> pad_by_cell(design_.cells.size(), 0.0);
    const auto& movable = engine.movable_cells();
    for (std::size_t i = 0; i < movable.size(); ++i) {
      pad_by_cell[static_cast<std::size_t>(movable[i])] = padder.padding()[i];
    }
    const std::vector<int> levels =
        discretize_padding(design_, pad_by_cell, config_.discrete);
    double pad_area = 0.0;
    const double site_area = design_.tech.site_width * design_.tech.row_height;
    for (int lv : levels) pad_area += lv * site_area;
    metrics.padding_area = pad_area;
    if (metrics.padding_area <= 0.0 && metrics.padding_rounds > 0) {
      // Padding was applied during GP but quantization dropped every
      // discrete level; report the continuous applied area (capped by the
      // discrete budget so the two paths stay comparable).
      double movable_area = 0.0;
      for (CellId cid : movable) {
        movable_area += design_.cells[static_cast<std::size_t>(cid)].area();
      }
      metrics.padding_area =
          std::min(padder.peak_applied_area(),
                   config_.discrete.max_pad_area_frac * movable_area);
    }
    metrics.legalize = legalize(design_, levels, config_.legal);
  }
  if (config_.run_dp) {
    ScopedStageTimer t(metrics.stages, "detailed_place");
    metrics.dp = detailed_place(design_);
  }
  metrics.hpwl_legal = design_.total_hpwl();
  metrics.legality = check_legality(design_);
  metrics.runtime_s = total.elapsed_seconds();
  metrics.padding_stage = padder.stage_metrics();
  PUFFER_LOG_INFO(kTag, "flow done in %.1fs: hpwl %.4g -> %.4g, %s",
                  metrics.runtime_s, metrics.hpwl_gp, metrics.hpwl_legal,
                  metrics.legality.summary().c_str());
  PUFFER_LOG_INFO(kTag,
                  "legalize: %.3fs, %d placed (%d failed), avg/max disp "
                  "%.3g/%.3g",
                  metrics.legalize.time_s, metrics.legalize.placed,
                  metrics.legalize.failed_cells,
                  metrics.legalize.avg_displacement(),
                  metrics.legalize.max_displacement);
  if (config_.run_dp) {
    PUFFER_LOG_INFO(kTag,
                    "dp: %.3fs, %d/%d moves accepted in %d passes, hpwl "
                    "%.4g -> %.4g (%.2f%%)",
                    metrics.dp.time_s, metrics.dp.accepted_moves,
                    metrics.dp.evaluated_moves, metrics.dp.passes,
                    metrics.dp.hpwl_before, metrics.dp.hpwl_after,
                    metrics.dp.improvement_pct());
  }
  return metrics;
}

RouteResult evaluate_routability(const Design& design,
                                 const RouterConfig& config,
                                 CongestionEstimator* /*unused*/) {
  return GlobalRouter(design, config).route();
}

}  // namespace puffer
