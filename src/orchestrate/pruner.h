// Successive-halving-style early-stop pruning for exploration trials.
//
// Every trial emits one estimated-overflow value per padding round (the
// rung metrics in FlowMetrics::round_est_overflow). The pruner keeps, per
// rung, the values of all trials folded so far and stops a running trial
// whose value at some rung is worse than the configured quantile of the
// history at that rung (quantile = 0.5 is the classic median rule).
//
// Determinism contract: the orchestrator freezes a copy of the pruner at
// each statistical-batch boundary, so every trial of a batch -- however
// it is scheduled -- sees exactly the thresholds derived from the trials
// folded *before* the batch. A pruned trial's loss is the deterministic
// penalty_loss() of its prune-rung value, so the TPE observation set is a
// pure function of the candidate sequence.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace puffer {

struct PruneConfig {
  bool enabled = false;
  // Rounds (0-based rung indices) never pruned, so every trial produces
  // at least this much of a trail.
  int grace_rounds = 2;
  // Minimum number of folded trails reaching a rung before its threshold
  // exists; below this every trial passes.
  int min_history = 4;
  // A trial is pruned when its rung value exceeds this quantile of the
  // rung history (0.5 = median rule).
  double quantile = 0.5;
  // Pruned-trial loss = penalty + the overflow at the prune rung: far
  // worse than any completed trial, but still ordered so TPE learns
  // which pruned strategies were least bad.
  double penalty = 1000.0;
};

// Throws std::invalid_argument on a quantile outside (0, 1), negative
// grace_rounds, min_history < 2, or a non-finite/negative penalty.
PruneConfig validate_prune_config(PruneConfig config);

class PruneThresholds {
 public:
  explicit PruneThresholds(PruneConfig config);

  // Folds one finished trial's per-rung trail (complete or partial --
  // pruned trials contribute the rungs they reached).
  void observe(const std::vector<double>& trail);

  // Frozen decision: should a trial whose estimated overflow at `round`
  // is `value` stop? Thread-safe on a const instance.
  bool should_prune(int round, double value) const;

  // Deterministic folded loss for a trial pruned at `value`.
  double penalty_loss(double value) const { return config_.penalty + value; }

  int trails_observed() const { return trails_; }
  const PruneConfig& config() const { return config_; }

 private:
  friend std::string encode_prune_thresholds(const PruneThresholds& t);
  friend PruneThresholds decode_prune_thresholds(const std::string& blob);
  // The wire layout (io/checkpoint.h field walk), in pruner.cpp.
  template <class IO, class T>
  static void fields(IO& io, T& t);

  PruneConfig config_;
  std::vector<std::vector<double>> rungs_;  // per round: folded values
  int trails_ = 0;
};

// Wire codec for a frozen thresholds instance (config + rung history +
// trail count, doubles bit-exact), so a remote worker prunes against
// exactly the batch-frozen state the coordinator froze. decode throws
// CheckpointError on malformed input.
std::string encode_prune_thresholds(const PruneThresholds& t);
PruneThresholds decode_prune_thresholds(const std::string& blob);

}  // namespace puffer
