#include "core/experiment.h"

#include "common/logger.h"

namespace puffer {

const char* placer_name(PlacerKind kind) {
  switch (kind) {
    case PlacerKind::kCommercialProxy:
      return "Commercial_Proxy";
    case PlacerKind::kReplaceRc:
      return "RePlAce_RC";
    case PlacerKind::kPuffer:
      return "PUFFER";
  }
  return "?";
}

ExperimentResult run_experiment(Design& design, PlacerKind kind,
                                const ExperimentConfig& config) {
  ExperimentResult result;
  result.benchmark = design.name;
  result.placer = kind;
  switch (kind) {
    case PlacerKind::kPuffer: {
      PufferFlow flow(design, config.puffer);
      result.flow = flow.run();
      result.route = evaluate_routability(design, config.eval_router);
      break;
    }
    case PlacerKind::kReplaceRc:
      result.flow = run_replace_rc(design);
      result.route = evaluate_routability(design, config.eval_router);
      break;
    case PlacerKind::kCommercialProxy:
      result.flow = run_commercial_proxy(design);
      result.route = evaluate_routability(design, config.eval_router);
      break;
  }
  result.flow.stages.add("evaluate_route", result.route.route_time_s);
  PUFFER_LOG_INFO("experiment",
                  "%s / %s: HOF %.2f%% VOF %.2f%% WL %.4g RT %.1fs (route "
                  "%.2fs, %d segs, %d rerouted over %d rounds)",
                  result.benchmark.c_str(), placer_name(kind),
                  result.hof_pct(), result.vof_pct(), result.routed_wl(),
                  result.runtime_s(), result.route.route_time_s,
                  result.route.segments, result.route.rerouted,
                  result.route.rounds_used);
  log_flow_stage_metrics(result.benchmark, placer_name(kind), result.flow);
  return result;
}

void log_flow_stage_metrics(const std::string& benchmark,
                            const char* placer_label,
                            const FlowMetrics& flow) {
  const LegalizeResult& lg = flow.legalize;
  if (lg.placed > 0 || lg.failed_cells > 0) {
    if (flow.dp.passes > 0) {
      PUFFER_LOG_INFO("experiment",
                      "%s / %s: legalize %.3fs (%d placed, %d failed, avg "
                      "disp %.3g), dp %.3fs (%d moves, %.2f%% hpwl)",
                      benchmark.c_str(), placer_label, lg.time_s, lg.placed,
                      lg.failed_cells, lg.avg_displacement(), flow.dp.time_s,
                      flow.dp.accepted_moves, flow.dp.improvement_pct());
    } else {
      PUFFER_LOG_INFO("experiment",
                      "%s / %s: legalize %.3fs (%d placed, %d failed, avg "
                      "disp %.3g), dp off",
                      benchmark.c_str(), placer_label, lg.time_s, lg.placed,
                      lg.failed_cells, lg.avg_displacement());
    }
  }
}

ExperimentResult run_benchmark(const SyntheticSpec& spec, PlacerKind kind,
                               const ExperimentConfig& config) {
  Design design = generate_synthetic(spec);
  return run_experiment(design, kind, config);
}

}  // namespace puffer
