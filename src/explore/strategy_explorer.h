// SMBO-based parameter and strategy exploration
// (paper SS III-C, Algorithms 2 and 3).
//
// Algorithm 2 (parameter exploration): a TPE-driven SMBO loop over a
// parameter list within given ranges, stopping when the best result has
// not improved for EC consecutive evaluations or after TC evaluations;
// afterwards the ranges are tightened around the elite observations.
//
// Algorithm 3 (strategy exploration): one global exploration over all
// parameters to get rough ranges, then parameters are split into groups
// by relevance and each group is explored with the others pinned to the
// middle of their current ranges, repeating until every group stops
// early (or the outer budget runs out). The final configuration takes
// the median of the resulting ranges.
//
// The evaluator is a black box (for PUFFER: run placement + global
// routing and return the total overflow ratio), so this module is usable
// for any expensive derivative-free tuning problem.
#pragma once

#include <cstdint>
#include <functional>

#include "explore/tpe.h"

namespace puffer {

using EvalFn = std::function<double(const Assignment&)>;

struct ExploreConfig {
  int time_limit = 40;  // TC: max evaluations per parameter exploration
  int early_stop = 10;  // EC: stop after this many non-improving evals
  int outer_rounds = 3; // outer TC of Algorithm 3
  // Candidates suggested (sequentially, so the sampler stream is
  // deterministic) and evaluated (concurrently via the parallel runtime)
  // per SMBO round. 1 = the exact serial Algorithm-2 loop. Larger batches
  // trade some sample efficiency (candidates within a batch cannot see
  // each other's losses) for wall-clock when evaluations dominate.
  // Observations are folded in candidate order, so best/best_loss and the
  // early-stop point are identical for any PUFFER_THREADS value.
  // Concurrent evaluators must be thread-safe and must not mutate global
  // state (e.g. call par::set_num_threads, which resizes the shared
  // worker pool mid-batch).
  int batch_size = 1;
  TpeConfig tpe;
  std::uint64_t seed = 1234;
};

// Validate-and-clamp, matching validate_router_config /
// validate_legalize_config: throws std::invalid_argument on nonsensical
// values (non-positive trial counts, batch_size < 1, a good-set quantile
// outside (0, 1), bad candidate counts). Called by explore_parameters()
// and at StrategyExplorer construction.
ExploreConfig validate_explore_config(ExploreConfig config);

struct ParamExplorationOutcome {
  bool early_stopped = false;  // Algorithm 2's return (npc > EC)
  std::vector<Observation> observations;
  Assignment best;
  double best_loss = 0.0;
  std::vector<ParamSpec> ranges;  // updated ranges (Line 14)
};

// Algorithm 2 over the full spec vector.
ParamExplorationOutcome explore_parameters(const std::vector<ParamSpec>& specs,
                                           const EvalFn& eval,
                                           const ExploreConfig& config);

class StrategyExplorer {
 public:
  // `groups` partitions spec indices by relevance; ungrouped indices form
  // implicit singleton groups.
  StrategyExplorer(std::vector<ParamSpec> specs,
                   std::vector<std::vector<int>> groups, EvalFn eval,
                   ExploreConfig config);

  // Runs Algorithm 3; returns the final configuration.
  Assignment run();

  // All evaluations performed, in order (for convergence plots).
  const std::vector<Observation>& history() const { return history_; }
  // Best evaluation seen.
  const Observation& best() const { return best_; }
  const std::vector<ParamSpec>& final_ranges() const { return specs_; }

 private:
  std::vector<ParamSpec> specs_;
  std::vector<std::vector<int>> groups_;
  EvalFn eval_;
  ExploreConfig config_;
  std::vector<Observation> history_;
  Observation best_;
};

}  // namespace puffer
