// Experiment harness: runs one benchmark through one placer and the
// neutral evaluation router, producing the Table II row quantities
// (HOF %, VOF %, routed WL, runtime seconds).
#pragma once

#include <string>

#include "core/baselines.h"
#include "core/flow.h"
#include "io/synthetic.h"

namespace puffer {

enum class PlacerKind { kCommercialProxy, kReplaceRc, kPuffer };

const char* placer_name(PlacerKind kind);

struct ExperimentResult {
  std::string benchmark;
  PlacerKind placer = PlacerKind::kPuffer;
  FlowMetrics flow;
  RouteResult route;

  double hof_pct() const { return route.overflow.hof_pct; }
  double vof_pct() const { return route.overflow.vof_pct; }
  double routed_wl() const { return route.wirelength; }
  double runtime_s() const { return flow.runtime_s; }
  // The paper's 1% pass criterion, per direction.
  bool pass_h() const { return hof_pct() <= 1.0; }
  bool pass_v() const { return vof_pct() <= 1.0; }
};

// The baselines are fixed replicas (core/baselines.h); only PUFFER's
// strategy and the neutral evaluator are configurable.
struct ExperimentConfig {
  PufferConfig puffer;       // used by kPuffer
  RouterConfig eval_router;  // identical neutral evaluator
};

// Logs the per-stage observability lines (legalization, detailed
// placement) for a finished flow. run_experiment calls it; the trial
// orchestrator calls it on the best trial's FlowMetrics so orchestrated
// runs report stage metrics through the same channel.
void log_flow_stage_metrics(const std::string& benchmark,
                            const char* placer_label, const FlowMetrics& flow);

// Places `design` in-place with the chosen placer and evaluates it.
ExperimentResult run_experiment(Design& design, PlacerKind kind,
                                const ExperimentConfig& config = {});

// Convenience: generate the synthetic benchmark, place, evaluate.
ExperimentResult run_benchmark(const SyntheticSpec& spec, PlacerKind kind,
                               const ExperimentConfig& config = {});

}  // namespace puffer
