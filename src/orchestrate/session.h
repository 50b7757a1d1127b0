// One exploration trial as a first-class session.
//
// A session owns a private copy of the design, forks the flow from the
// shared post-GP checkpoint (core/flow.h run_from), applies its
// candidate strategy, and evaluates routability — all on the worker
// lease its runner thread holds, so K concurrent sessions never
// oversubscribe the process thread budget. Sessions share NO mutable
// state; results are bit-identical for any scheduling order, concurrency
// and PUFFER_THREADS.
#pragma once

#include <cstdint>

#include "core/experiment.h"
#include "core/strategy_params.h"
#include "orchestrate/pruner.h"

namespace puffer {

struct TrialTask {
  int trial_id = -1;
  Assignment assignment;
  // The exploration benchmark (sessions copy it; never mutated).
  const Design* design = nullptr;
  // Base experiment config the assignment is applied onto.
  const ExperimentConfig* base = nullptr;
  // Shared fork checkpoint (never mutated by sessions).
  const FlowSnapshot* snapshot = nullptr;
  // Batch-frozen prune thresholds; null = no pruning.
  const PruneThresholds* pruner = nullptr;
  // Workers this session's lease requests (>= 1).
  int lease_want = 1;
};

struct TrialResult {
  int trial_id = -1;
  double loss = 0.0;
  bool pruned = false;
  int prune_round = -1;
  // FNV-1a over the final cell positions' bit patterns; 0 for pruned
  // sessions (they never reach legalization).
  std::uint64_t checksum = 0;
  // Per-padding-round estimated overflow (the pruner's rung metrics).
  std::vector<double> rounds;
  double wall_s = 0.0;
  // True when flow/route below were filled by an evaluation in this
  // process; false for results replayed from the journal or reported by
  // a remote worker (only the deterministic fields above cross the wire).
  bool metrics_valid = false;
  FlowMetrics flow;
  RouteResult route;
};

// Stable hash of an assignment (bit patterns of every value) — the
// journal's candidate identity check on resume.
std::uint64_t assignment_key(const Assignment& a);

// position_checksum (FNV-1a over all cells' (x, y) bit patterns) moved
// to io/checkpoint.h so the serve daemon shares the same fingerprint.

// Runs one trial: copy `base_design`, fork from the snapshot with the
// candidate strategy applied, evaluate routability. Thread-safe: call
// from any runner thread.
TrialResult run_trial_session(const Design& base_design,
                              const TrialTask& task);

}  // namespace puffer
