// Distributed trial orchestration vs the in-process scheduler (the
// PR's tentpole).
//
// Both sides run the identical deterministic exploration loop -- same
// TPE seed, same statistical batches, same candidate-order fold. The
// only difference is WHERE trials evaluate:
//
//   in-process   K concurrent sessions fork from the shared prefix
//                under worker leases inside this process.
//   distributed  the same batches are farmed to 2 worker PROCESSES over
//                the binary wire protocol (Unix-domain socket); each
//                worker holds its own copy of the design (structure
//                verified in the handshake) plus the shipped prefix
//                snapshot, and leases the full local thread budget.
//
// Because the executor seam only moves evaluation, the two runs must
// agree on the best strategy, its loss bits and its final-position
// checksum -- `bit_identical` records that identity. The distributed
// numbers also gate on scheduler utilization >= 0.9: the coordinator's
// serial suggest/fold must not starve the workers.
//
// The workers are forked before any threads exist in this process and
// retry their connect until the coordinator binds, so the in-process
// reference can run first.
//
// Output: bench_results/BENCH_orchestrator_distributed.json.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logger.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "io/synthetic.h"
#include "orchestrate/coordinator.h"
#include "orchestrate/orchestrator.h"
#include "orchestrate/worker.h"

namespace {

using namespace puffer;

constexpr int kWorkers = 2;

SyntheticSpec bench_spec(int scale) {
  SyntheticSpec spec;
  spec.name = "orch_dist_bench";
  spec.num_cells = 256000 / scale;
  spec.num_nets = 320000 / scale;
  spec.num_macros = 4;
  spec.seed = 42;
  spec.target_utilization = 0.78;
  spec.v_capacity_factor = 0.7;  // keep losses non-trivial
  return spec;
}

// Pinned padding triggers, exactly as in bench_orchestrator: every trial
// forks at the same overflow, so the shared prefix dominates and the
// wire protocol's job is to keep both workers busy on suffixes.
constexpr double kTau = 0.15;
constexpr double kXi = 4.0;
constexpr double kForkOverflow = 0.15;

std::vector<ParamSpec> bench_specs() {
  std::vector<ParamSpec> specs = puffer_param_specs();
  specs[10].lo = specs[10].hi = kXi;   // xi
  specs[11].lo = specs[11].hi = kTau;  // tau
  return specs;
}

// Worker child: own design copy, attach with a generous retry window
// (the coordinator binds only after the in-process reference finishes).
int worker_main(const SyntheticSpec& spec, const std::string& address,
                int index) {
  Logger::instance().set_level(LogLevel::kWarn);
  Design design = generate_synthetic(spec);
  ExperimentConfig base;
  WorkerConfig cfg;
  cfg.connect = address;
  cfg.name = "bench-worker-" + std::to_string(index);
  cfg.connect_timeout_s = 600.0;
  return run_worker(design, base, cfg);
}

}  // namespace

int main() {
  const int scale = bench::scale_divisor();
  const int kTrials = 8;
  const int kBatch = 4;
  const int kConcurrency = 2;
  const std::uint64_t kSeed = 1234;

  const SyntheticSpec spec = bench_spec(scale);
  const std::string address =
      "/tmp/puffer_bench_dist." + std::to_string(::getpid()) + ".sock";

  // Fork the worker processes before this process creates any threads.
  std::vector<pid_t> children;
  for (int w = 0; w < kWorkers; ++w) {
    const pid_t pid = ::fork();
    if (pid == 0) ::_exit(worker_main(spec, address, w));
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    children.push_back(pid);
  }

  Design base_design = generate_synthetic(spec);
  std::printf("distributed orchestrator bench: %zu cells, %zu nets, "
              "%d trials, batch %d, %d workers, threads %d\n",
              base_design.num_movable(), base_design.nets.size(), kTrials,
              kBatch, kWorkers, par::num_threads());

  ExperimentConfig base;

  OrchestratorConfig orch_cfg;
  orch_cfg.trials = kTrials;
  orch_cfg.batch_size = kBatch;
  orch_cfg.early_stop = kTrials;
  orch_cfg.concurrency = kConcurrency;
  orch_cfg.fork_overflow = kForkOverflow;
  orch_cfg.seed = kSeed;

  // --- in-process reference ---------------------------------------------
  Timer inproc_timer;
  Design inproc_design = generate_synthetic(spec);
  TrialOrchestrator inproc(inproc_design, bench_specs(), base, orch_cfg);
  const OrchestrationResult ref = inproc.run();
  const double inproc_s = inproc_timer.elapsed_seconds();
  std::printf("in-process    : %.2f s (trials %.2f s, utilization %.0f%%), "
              "best loss %.6g, checksum %016llx\n",
              inproc_s, ref.stats.trials_s,
              100.0 * ref.stats.scheduler_utilization, ref.best_loss,
              static_cast<unsigned long long>(ref.best_checksum));

  // --- distributed -------------------------------------------------------
  CoordinatorConfig coord;
  coord.listen = address;
  coord.min_workers = kWorkers;
  coord.attach_timeout_s = 120.0;

  Timer dist_timer;
  Design dist_design = generate_synthetic(spec);
  const OrchestrationResult dist = run_distributed_orchestration(
      dist_design, bench_specs(), base, orch_cfg, coord);
  const double dist_s = dist_timer.elapsed_seconds();
  std::printf("distributed   : %.2f s (trials %.2f s, utilization %.0f%%), "
              "best loss %.6g, checksum %016llx\n",
              dist_s, dist.stats.trials_s,
              100.0 * dist.stats.scheduler_utilization, dist.best_loss,
              static_cast<unsigned long long>(dist.best_checksum));

  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  ::unlink(address.c_str());

  const bool identical = dist.best_loss == ref.best_loss &&
                         dist.best == ref.best &&
                         dist.best_checksum == ref.best_checksum;
  const double inproc_tps = kTrials / ref.stats.trials_s;
  const double dist_tps = kTrials / dist.stats.trials_s;
  const bool utilization_ok = dist.stats.scheduler_utilization >= 0.9;
  std::printf("trials/sec    : %.4f in-process -> %.4f distributed "
              "(%.2fx); bit-identical: %s; utilization >= 0.9: %s\n",
              inproc_tps, dist_tps, dist_tps / inproc_tps,
              identical ? "yes" : "NO", utilization_ok ? "yes" : "NO");

  bench::BenchReport report("orchestrator_distributed");
  report.config("scale", scale);
  report.config("cells", static_cast<int>(base_design.num_movable()));
  report.config("nets", static_cast<int>(base_design.nets.size()));
  report.config("trials", kTrials);
  report.config("batch_size", kBatch);
  report.config("concurrency", kConcurrency);
  report.config("workers", kWorkers);
  report.config("threads", par::num_threads());
  report.config("fork_overflow", kForkOverflow);
  report.baseline("inprocess_s", inproc_s);
  report.baseline("trials_s", ref.stats.trials_s);
  report.baseline("trials_per_s", inproc_tps);
  report.baseline("scheduler_utilization", ref.stats.scheduler_utilization);
  report.baseline("best_loss", ref.best_loss);
  report.result("distributed_s", dist_s);
  report.result("trials_s", dist.stats.trials_s);
  report.result("trials_per_s", dist_tps);
  report.result("scheduler_utilization", dist.stats.scheduler_utilization);
  report.result("coordinator_overhead_s", dist_s - dist.stats.trials_s -
                                              dist.stats.prefix_s);
  report.result("best_loss", dist.best_loss);
  report.speedup("distributed_trials", dist_tps / inproc_tps);
  report.checksum("inprocess_best", ref.best_checksum);
  report.checksum("distributed_best", dist.best_checksum);
  report.bit_identical(identical);
  const std::string path = report.write();
  std::printf("wrote %s\n", path.c_str());
  return identical && utilization_ok ? 0 : 1;
}
