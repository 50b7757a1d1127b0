// The PUFFER routability-driven placement flow (paper Fig. 2):
//
//   initial placement
//   -> global placement (electrostatic engine)
//        ... whenever the trigger conditions hold (density overflow < tau,
//            previous padding utilization < eta, round < xi):
//        -> routability optimizer: congestion estimation -> multi-feature
//           cell padding (with recycling + utilization control) -> the
//           padded areas feed back into the density engine
//   -> final wirelength-driven convergence
//   -> white-space-assisted legalization (discretized inherited padding
//      + Abacus)
//
// Evaluation (HOF/VOF/WL, Table II) is deliberately *outside* the flow:
// evaluate_routability() runs the independent global router on the final
// legal placement, mirroring the paper's use of the commercial router as
// a neutral evaluator.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/timer.h"
#include "congestion/estimator.h"
#include "dp/detailed_place.h"
#include "gp/engine.h"
#include "gp/initial_place.h"
#include "io/checkpoint.h"
#include "legal/abacus.h"
#include "legal/discrete_padding.h"
#include "legal/legality.h"
#include "netlist/design.h"
#include "padding/padding.h"
#include "router/global_router.h"

namespace puffer {

struct PufferConfig {
  GpConfig gp;
  CongestionConfig congestion;
  PaddingParams padding;
  LegalizeConfig legal;
  DiscretePaddingConfig discrete;
  InitialPlaceConfig init;
  DetailedPlaceConfig dp;
  // Run wirelength-driven detailed placement after legalization (off by
  // default: the paper's flow evaluates directly after legalization).
  bool run_dp = false;
  double final_overflow = 0.10;  // GP convergence target after padding
};

// Congestion-estimation stage metrics, accumulated by the flow over its
// padding rounds. Every estimate is built from scratch, so each call
// counts as a full build and the reuse figures stay zero; the member
// names are the ones the benchmark harness (perfbench/harness/trace.cpp)
// reads.
struct IncrementalStats {
  int calls = 0;
  int full_rebuilds = 0;
  double incremental_time_s = 0.0;
  double full_time_s = 0.0;

  double dirty_net_frac() const { return 0.0; }
};

struct FlowMetrics {
  double hpwl_gp = 0.0;      // after global placement
  double hpwl_legal = 0.0;   // after legalization
  int padding_rounds = 0;
  double padding_area = 0.0;
  double runtime_s = 0.0;
  StageTimes stages;
  LegalityReport legality;
  // Congestion-estimation calls and wall time over the padding rounds.
  IncrementalStats estimation;
  // Always 0: the flow keeps no RSMT topology cache. The member stays
  // because the benchmark harness (perfbench/harness/trace.cpp) reads it.
  double rsmt_cache_hit_rate = 0.0;
  // Padding feature-extraction calls and wall time (see
  // padding/features.h).
  PaddingStageMetrics padding_stage;
  // Legalization / detailed-placement stage observability (wall time,
  // displacement — see LegalizeResult / DetailedPlaceResult). dp is
  // all-zero unless run_dp is set.
  LegalizeResult legalize;
  DetailedPlaceResult dp;
  // Estimated total overflow (%) after each padding-round congestion
  // estimate, in round order — the rung metrics the early-stop pruner
  // reads.
  std::vector<double> round_est_overflow;
  // True when the progress hook stopped the flow before final
  // convergence (the session was pruned or cancelled; legalization was
  // skipped).
  bool aborted_early = false;
  // Per-kernel wall-time breakdown of the global-placement Nesterov loop
  // (wirelength gradient, density rasterization, Poisson solve, gradient
  // assembly, step updates).
  GpKernelTimes gp_kernels;
};

// Per-padding-round progress record, passed to the progress hook after
// each round's congestion estimate: the round index (0-based), the
// round's estimated overflow, the current HPWL, and a read-only view of
// the round's congestion maps (valid only for the duration of the hook
// call). Observers (the serve daemon's streaming telemetry, the trial
// pruner) must not mutate the design — the hook is called mid-flow and
// anything it changes would break the determinism contract.
struct FlowProgress {
  int round = 0;
  OverflowStats est;
  double hpwl = 0.0;
  const RoutingMaps* maps = nullptr;
};

// Returning false stops the flow at the round boundary, before final
// convergence and legalization, with aborted_early set: how a session is
// cancelled or a trial pruned. Only padding-round boundaries observe it
// (a flow that never triggers padding runs to completion).
using ProgressHook = std::function<bool(const FlowProgress&)>;

class PufferFlow {
 public:
  PufferFlow(Design& design, PufferConfig config);

  // Runs the full flow; the design's cell positions are the result.
  FlowMetrics run();

  // --- staged flow (trial orchestration; see docs/architecture.md) ----
  //
  // run_prefix() executes the trial-invariant part of the flow — initial
  // placement plus global placement down to `fork_overflow` — and
  // captures the fork state (the cell positions) into *out.
  // `fork_overflow` must be >= the largest padding trigger tau any
  // continuation will use, so no padding round ever lands in the prefix.
  //
  // run_from() restores the fork state and runs the rest of the flow:
  // a fresh placement engine (the Nesterov state restarts from the
  // restored positions at the boundary — the staged contract), the
  // padding loop, final convergence and legalization.
  //
  // Bit-identity contract: run_from(s) produces identical results
  // whether `s` came from run_prefix() in the same process or through
  // save_snapshot()/load_snapshot() on disk — the codec is bit-exact and
  // the restore path is the same either way. Identical across
  // PUFFER_THREADS like every other kernel.
  FlowMetrics run_prefix(double fork_overflow, FlowSnapshot* out);
  FlowMetrics run_from(const FlowSnapshot& snapshot);

  // Hash of the prefix-relevant configuration (initial placement, GP,
  // fork point) and of the engine revision kGpRevision. Trials may only
  // fork from a snapshot whose prefix_key matches their own flow config
  // and engine.
  std::uint64_t prefix_key(double fork_overflow) const;

  // The flow's congestion estimator (valid after run() or run_from();
  // null before). It keeps no state between estimate() calls.
  CongestionEstimator* estimator() { return estimator_.get(); }

  // Installs a per-round observer, invoked at every padding-round
  // boundary of run() and run_from(). Read-only: a hook that returns true
  // never changes the flow's results.
  void set_progress_hook(ProgressHook hook) {
    progress_hook_ = std::move(hook);
  }

 private:
  // Shared body of run() / run_from(): `snapshot` non-null restores the
  // fork state instead of running initial placement.
  FlowMetrics run_internal(const FlowSnapshot* snapshot);

  Design& design_;
  PufferConfig config_;
  ProgressHook progress_hook_;
  std::unique_ptr<CongestionEstimator> estimator_;
};

// Runs the evaluation router on the design's current placement. The
// estimator argument is ignored: the router builds every net's tree
// itself. It stays because the benchmark harness
// (perfbench/harness/place.cpp) passes flow.estimator().
RouteResult evaluate_routability(const Design& design,
                                 const RouterConfig& config = {},
                                 CongestionEstimator* unused = nullptr);

}  // namespace puffer
