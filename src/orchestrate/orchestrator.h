// Trial orchestrator: concurrent strategy-exploration sessions over a
// shared post-GP checkpoint.
//
// The orchestrator runs the trial-invariant flow prefix once (initial
// placement + global placement down to the fork overflow), checkpoints
// it, then drives the TPE/SMBO loop with K concurrent sessions, each
// forking from the shared snapshot under a worker lease so the process
// thread budget is never oversubscribed. The statistical batch size B
// (how many candidates TPE suggests before seeing their losses) is a
// *separate* knob from the execution concurrency K: candidates are
// suggested sequentially, evaluated by up to K sessions, and folded in
// candidate order -- so best/best_loss/early-stop are bit-identical for
// any (K, PUFFER_THREADS).
//
// Early-stop pruning (orchestrate/pruner.h) thresholds are frozen per
// batch; a crash-safe JSONL journal (orchestrate/trial_journal.h) lets a
// killed exploration resume without repeating completed trials: the
// sampler re-suggests the identical candidate sequence and journaled
// losses (verified by assignment hash) substitute for re-evaluation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/strategy_params.h"
#include "explore/tpe.h"
#include "orchestrate/pruner.h"
#include "orchestrate/session.h"
#include "orchestrate/trial_journal.h"

namespace puffer {

struct OrchestratorConfig {
  int trials = 16;       // total trial budget (folded evaluations)
  int concurrency = 2;   // K: sessions running at once
  int batch_size = 4;    // B: TPE statistical batch (fold granularity)
  int early_stop = 1 << 20;  // non-improving streak that stops the loop
  // Fork point of the shared prefix: GP runs until density overflow
  // drops below this. Must be >= the largest padding trigger tau in the
  // explored space, so no padding round can land inside the prefix.
  double fork_overflow = 0.45;
  std::string checkpoint_dir;  // "" = keep the snapshot in memory only
  std::string journal_path;    // "" = no journal (no resume)
  // Replay the journal and reuse the on-disk checkpoint when their keys
  // match the current design/space/seed; otherwise start fresh.
  bool resume = false;
  PruneConfig prune;
  TpeConfig tpe;
  std::uint64_t seed = 1234;
};

// Throws std::invalid_argument on non-positive trials / concurrency /
// batch_size / early_stop, a fork_overflow outside (0, 1], or invalid
// prune/TPE sub-configs (validated via validate_prune_config and
// validate_explore_config).
OrchestratorConfig validate_orchestrator_config(OrchestratorConfig config);

// Orchestration-stage metrics of one exploration.
struct OrchestratorStageMetrics {
  int trials_run = 0;      // sessions evaluated to completion
  int trials_pruned = 0;   // sessions stopped by the early-stop rule
  int trials_resumed = 0;  // completed trials replayed from the journal
  double checkpoint_save_s = 0.0;     // snapshot encode+write wall time
  double checkpoint_restore_s = 0.0;  // snapshot read+decode (summed)
  // Busy-worker fraction of the trial phase: sum of session wall times /
  // (elapsed wall time x concurrency).
  double scheduler_utilization = 0.0;
  double prefix_s = 0.0;  // shared-prefix wall time (or restore time)
  double trials_s = 0.0;  // wall time of the concurrent trial phase
};

struct OrchestrationResult {
  Assignment best;
  double best_loss = 0.0;
  int best_trial = -1;
  // Final-position checksum of the best trial (0 when the best trial was
  // pruned -- possible only when every trial was pruned).
  std::uint64_t best_checksum = 0;
  int trials_evaluated = 0;  // folded into the TPE observation set
  bool early_stopped = false;
  std::vector<Observation> observations;
  OrchestratorStageMetrics stats;
  // Flow/route metrics of the best trial -- only when it executed in
  // this process (false when the best loss was replayed from the
  // journal).
  bool best_metrics_valid = false;
  FlowMetrics best_flow;
  RouteResult best_route;
};

// Everything a batch executor needs once per exploration, published
// after the shared prefix is ready and before the first batch.
struct TrialRunContext {
  const ExperimentConfig* base = nullptr;
  // The shared prefix; it carries its design and prefix keys.
  const FlowSnapshot* snapshot = nullptr;
};

// Where a batch of trials executes. The orchestrator owns *what* is
// evaluated (candidate sequence, journal, fold order); an executor owns
// only *where* -- runner threads in this process (LocalTrialExecutor) or
// worker processes over sockets (CoordinatorExecutor). Every executor
// must fill results[i] for each i in to_run with values following the
// session contract (bit-identical to run_trial_session on the same
// task), so exploration output never depends on the executor.
class TrialExecutor {
 public:
  virtual ~TrialExecutor() = default;

  // Called once, after the shared prefix snapshot exists.
  virtual void prepare(const TrialRunContext& ctx) { (void)ctx; }

  // Evaluates tasks[i] for every i in to_run into (*results)[i]. May
  // throw; the orchestrator does not catch (a lost executor aborts the
  // exploration -- the journal already holds the completed trials).
  virtual void run_batch(const std::vector<TrialTask>& tasks,
                         const std::vector<int>& to_run,
                         std::vector<TrialResult>* results) = 0;

  // Concurrent evaluation slots (sessions or workers): the denominator
  // of scheduler_utilization.
  virtual int slots() const = 0;
};

// The in-process executor: up to `concurrency` runner threads pull
// candidate indices from a shared counter, each evaluating under a
// worker lease so the process thread budget is never oversubscribed.
class LocalTrialExecutor : public TrialExecutor {
 public:
  explicit LocalTrialExecutor(int concurrency);
  void run_batch(const std::vector<TrialTask>& tasks,
                 const std::vector<int>& to_run,
                 std::vector<TrialResult>* results) override;
  int slots() const override { return concurrency_; }

 private:
  int concurrency_;
};

class TrialOrchestrator {
 public:
  // `design` is the exploration benchmark. The orchestrator runs the
  // shared prefix on it (sessions then work on private copies); its
  // final positions are NOT the best placement -- re-run the flow with
  // the best assignment to materialize one.
  TrialOrchestrator(Design& design, std::vector<ParamSpec> specs,
                    ExperimentConfig base, OrchestratorConfig config);

  // Runs with the in-process LocalTrialExecutor (config.concurrency).
  OrchestrationResult run();
  // Runs with a caller-provided executor (e.g. the socket coordinator).
  // The candidate sequence, journal and fold are identical to run() --
  // results depend only on (trials, batch_size, seed, space), never on
  // the executor.
  OrchestrationResult run(TrialExecutor& executor);

  // Stable identity of the explored problem (specs + seed + batch/trial
  // budget + prune + TPE + fork point): a journal written under a
  // different space_key is never replayed.
  std::uint64_t space_key() const;

 private:
  Design& design_;
  std::vector<ParamSpec> specs_;
  ExperimentConfig base_;
  OrchestratorConfig config_;
};

}  // namespace puffer
