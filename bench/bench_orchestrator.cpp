// Trial orchestration vs serial staged exploration (the PR's tentpole).
//
// Both sides run the identical SMBO loop (same TPE seed, same batch
// fold) over the same pinned-trigger strategy subspace; the only
// difference is HOW trials execute:
//
//   baseline  every candidate re-runs the full staged pipeline from
//             scratch (initial place + GP prefix + padded continuation),
//             one after another -- T x (prefix + suffix).
//   orchestr. the prefix runs ONCE, is checkpointed, and K concurrent
//             sessions fork from it under worker leases --
//             prefix + T x suffix.
//
// Because the staged contract is bit-exact, the two sides must agree on
// the best strategy, its loss bits and its final-position checksum --
// that identity is the point, and `bit_identical` records it. A third
// variant adds median-rule pruning (results legitimately differ; its
// numbers are reported separately).
//
// Output: bench_results/BENCH_orchestrator.json.
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "explore/strategy_explorer.h"
#include "io/synthetic.h"
#include "orchestrate/orchestrator.h"

namespace {

using namespace puffer;

SyntheticSpec bench_spec(int scale) {
  SyntheticSpec spec;
  spec.name = "orch_bench";
  spec.num_cells = 256000 / scale;
  spec.num_nets = 320000 / scale;
  spec.num_macros = 4;
  spec.seed = 42;
  spec.target_utilization = 0.78;
  spec.v_capacity_factor = 0.7;  // keep losses non-trivial
  return spec;
}

// The explored subspace: the padding triggers (tau, xi) are pinned so
// every trial forks at the same overflow -- the orchestrator requires
// fork_overflow >= max tau anyway, and pinning keeps the shared prefix
// (GP from ~0.9 down to tau) the dominant cost the orchestrator
// amortizes, which is exactly the workload it exists for.
constexpr double kTau = 0.15;
constexpr double kXi = 4.0;
constexpr double kForkOverflow = 0.15;

std::vector<ParamSpec> bench_specs() {
  std::vector<ParamSpec> specs = puffer_param_specs();
  specs[10].lo = specs[10].hi = kXi;   // xi
  specs[11].lo = specs[11].hi = kTau;  // tau
  return specs;
}

}  // namespace

int main() {
  const int scale = bench::scale_divisor();
  const int kTrials = 8;
  const int kBatch = 4;
  const int kConcurrency = 2;
  const std::uint64_t kSeed = 1234;

  const SyntheticSpec spec = bench_spec(scale);
  Design base_design = generate_synthetic(spec);
  std::printf("orchestrator bench: %zu cells, %zu nets, %d trials, "
              "batch %d, K=%d, threads %d\n",
              base_design.num_movable(), base_design.nets.size(), kTrials,
              kBatch, kConcurrency, par::num_threads());

  ExperimentConfig base;

  // --- serial staged baseline -------------------------------------------
  // explore_parameters() with batch_size=kBatch is the exact fold the
  // orchestrator mirrors, so the candidate sequence is identical; each
  // evaluation re-runs the full staged pipeline privately.
  std::mutex sums_mutex;
  std::map<std::vector<double>, std::uint64_t> checksums;
  const auto staged_eval = [&](const Assignment& a) {
    Design d = base_design;
    ExperimentConfig cfg = base;
    cfg.puffer = apply_assignment(base.puffer, a);
    PufferFlow flow(d, cfg.puffer);
    FlowSnapshot snap;
    flow.run_prefix(kForkOverflow, &snap);
    flow.run_from(snap);
    const RouteResult route = evaluate_routability(d, cfg.eval_router);
    {
      const std::lock_guard<std::mutex> lock(sums_mutex);
      checksums[a] = position_checksum(d);
    }
    return route.overflow.hof_pct + route.overflow.vof_pct;
  };

  ExploreConfig serial_cfg;
  serial_cfg.time_limit = kTrials;
  serial_cfg.early_stop = kTrials;
  serial_cfg.batch_size = kBatch;
  serial_cfg.seed = kSeed;

  Timer serial_timer;
  const ParamExplorationOutcome serial =
      explore_parameters(bench_specs(), staged_eval, serial_cfg);
  const double serial_s = serial_timer.elapsed_seconds();
  const std::uint64_t serial_checksum = checksums[serial.best];
  std::printf("serial staged : %.2f s, best loss %.6g, checksum %016llx\n",
              serial_s, serial.best_loss,
              static_cast<unsigned long long>(serial_checksum));

  // --- orchestrated ------------------------------------------------------
  OrchestratorConfig orch_cfg;
  orch_cfg.trials = kTrials;
  orch_cfg.batch_size = kBatch;
  orch_cfg.early_stop = kTrials;
  orch_cfg.concurrency = kConcurrency;
  orch_cfg.fork_overflow = kForkOverflow;
  orch_cfg.seed = kSeed;

  Timer orch_timer;
  Design orch_design = generate_synthetic(spec);
  TrialOrchestrator orchestrator(orch_design, bench_specs(), base, orch_cfg);
  const OrchestrationResult orch = orchestrator.run();
  const double orch_s = orch_timer.elapsed_seconds();
  std::printf("orchestrated  : %.2f s (prefix %.2f s, utilization %.0f%%), "
              "best loss %.6g, checksum %016llx\n",
              orch_s, orch.stats.prefix_s,
              100.0 * orch.stats.scheduler_utilization, orch.best_loss,
              static_cast<unsigned long long>(orch.best_checksum));

  const bool identical = orch.best_loss == serial.best_loss &&
                         orch.best == serial.best &&
                         orch.best_checksum == serial_checksum;
  std::printf("speedup       : %.2fx, bit-identical best strategy: %s\n",
              serial_s / orch_s, identical ? "yes" : "NO");

  // --- orchestrated + pruning -------------------------------------------
  OrchestratorConfig prune_cfg = orch_cfg;
  prune_cfg.prune.enabled = true;
  prune_cfg.prune.grace_rounds = 1;
  prune_cfg.prune.min_history = 3;

  Timer prune_timer;
  Design prune_design = generate_synthetic(spec);
  TrialOrchestrator pruner(prune_design, bench_specs(), base, prune_cfg);
  const OrchestrationResult pruned = pruner.run();
  const double prune_s = prune_timer.elapsed_seconds();
  std::printf("with pruning  : %.2f s, %d trials pruned, best loss %.6g\n",
              prune_s, pruned.stats.trials_pruned, pruned.best_loss);

  bench::BenchReport report("orchestrator");
  report.config("scale", scale);
  report.config("cells", static_cast<int>(base_design.num_movable()));
  report.config("nets", static_cast<int>(base_design.nets.size()));
  report.config("trials", kTrials);
  report.config("batch_size", kBatch);
  report.config("concurrency", kConcurrency);
  report.config("threads", par::num_threads());
  report.config("fork_overflow", kForkOverflow);
  report.baseline("serial_staged_s", serial_s);
  report.baseline("best_loss", serial.best_loss);
  report.result("orchestrated_s", orch_s);
  report.result("prefix_s", orch.stats.prefix_s);
  report.result("trials_s", orch.stats.trials_s);
  report.result("scheduler_utilization", orch.stats.scheduler_utilization);
  report.result("best_loss", orch.best_loss);
  report.result("pruned_s", prune_s);
  report.result("pruned_trials_pruned", pruned.stats.trials_pruned);
  report.result("pruned_best_loss", pruned.best_loss);
  report.speedup("orchestrated", serial_s / orch_s);
  report.speedup("pruned", serial_s / prune_s);
  report.checksum("serial_best", serial_checksum);
  report.checksum("orchestrated_best", orch.best_checksum);
  report.bit_identical(identical);
  const std::string path = report.write();
  std::printf("wrote %s\n", path.c_str());
  return identical ? 0 : 1;
}
