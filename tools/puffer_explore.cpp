// puffer_explore: concurrent, resumable strategy exploration.
//
// Runs the trial orchestrator (src/orchestrate/) on a benchmark: one
// shared global-placement prefix is checkpointed, then K concurrent
// sessions fork from it to evaluate TPE-suggested strategies, with
// optional median-rule early-stop pruning and a crash-safe trial
// journal. Re-running with --resume replays completed trials from the
// journal instead of re-evaluating them; the final best strategy is
// bit-identical to an uninterrupted run.
//
// Usage:
//   puffer_explore --bench OR1200 [--scale 64] [options]
//   puffer_explore --aux design.aux [options]
//
// Options:
//   --trials N           trial budget (default 16)
//   --concurrency K      concurrent sessions (default 2)
//   --batch B            TPE statistical batch size (default 4); the
//                        result depends on B but never on K
//   --early-stop N       stop after N non-improving trials
//   --fork-overflow F    prefix fork point (default 0.45)
//   --prune              enable median-rule early-stop pruning
//   --checkpoint-dir DIR where the prefix checkpoint lives
//   --journal FILE       crash-safe trial journal (JSONL)
//   --resume             replay the journal / reuse the checkpoint
//   --seed N             exploration seed (default 1234)
//   --save-config FILE   write the best strategy as a config file
//   --csv FILE           write per-trial observations as CSV
//   --quiet              warnings and errors only
//
// Distributed mode (coordinator/worker over the binary wire protocol;
// bit-identical to the in-process scheduler for any worker count):
//   --listen ADDR        run as coordinator; ADDR is a Unix-socket path
//                        (contains '/') or host:port / :port for TCP
//   --min-workers N      wait for N workers before the first batch (1)
//   --attach-timeout S   worker-attach window before the in-process
//                        fallback kicks in (120)
//   --workers N          convenience: spawn N local puffer_worker
//                        children on a private Unix socket
#include <libgen.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logger.h"
#include "core/config_io.h"
#include "common/cli.h"
#include "io/bookshelf.h"
#include "orchestrate/coordinator.h"
#include "orchestrate/orchestrator.h"

namespace {

const std::string kUsage =
    "usage: puffer_explore (--aux design.aux | --bench NAME [--scale N])\n"
    "       [--trials N] [--concurrency K] [--batch B] [--early-stop N]\n"
    "       [--fork-overflow F] [--prune] [--checkpoint-dir DIR]\n"
    "       [--journal FILE] [--resume] [--seed N]\n"
    "       [--save-config FILE] [--csv FILE] [--quiet]\n"
    "       [--listen ADDR [--min-workers N] [--attach-timeout S]]\n"
    "       [--workers N] [--help] [--version]\n";

// Path of the puffer_worker binary, assumed to sit next to this one.
std::string sibling_worker_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "puffer_worker";
  buf[n] = '\0';
  return std::string(::dirname(buf)) + "/puffer_worker";
}

// Spawn a local puffer_worker child attached to `address`, loading the
// same benchmark. Returns the child pid (or -1 on fork failure).
pid_t spawn_worker(const std::string& address, const std::string& aux,
                   const std::string& bench, int scale,
                   std::uint64_t gen_seed, int index) {
  const std::string exe = sibling_worker_path();
  const std::string scale_s = std::to_string(scale);
  const std::string seed_s = std::to_string(gen_seed);
  const std::string name = "local-worker-" + std::to_string(index);
  std::vector<const char*> args = {exe.c_str(), "--connect", address.c_str(),
                                   "--name", name.c_str()};
  if (!aux.empty()) {
    args.insert(args.end(), {"--aux", aux.c_str()});
  } else {
    args.insert(args.end(), {"--bench", bench.c_str(), "--scale",
                             scale_s.c_str()});
    if (gen_seed != 0) args.insert(args.end(), {"--gen-seed", seed_s.c_str()});
  }
  args.push_back("--quiet");
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(exe.c_str(), const_cast<char* const*>(args.data()));
    std::fprintf(stderr, "exec %s failed: %s\n", exe.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace puffer;
  handle_help_version(argc, argv, "puffer_explore", kUsage);

  std::string aux, bench, save_config_path, csv_path;
  int scale = 64;
  std::uint64_t gen_seed = 0;
  OrchestratorConfig orch;
  CoordinatorConfig coord;
  int spawn_workers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(kUsage, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--aux") aux = next();
    else if (arg == "--bench") bench = next();
    else if (arg == "--scale") scale = std::atoi(next());
    else if (arg == "--trials") orch.trials = std::atoi(next());
    else if (arg == "--concurrency") orch.concurrency = std::atoi(next());
    else if (arg == "--batch") orch.batch_size = std::atoi(next());
    else if (arg == "--early-stop") orch.early_stop = std::atoi(next());
    else if (arg == "--fork-overflow") orch.fork_overflow = std::atof(next());
    else if (arg == "--prune") orch.prune.enabled = true;
    else if (arg == "--checkpoint-dir") orch.checkpoint_dir = next();
    else if (arg == "--journal") orch.journal_path = next();
    else if (arg == "--resume") orch.resume = true;
    else if (arg == "--seed") orch.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--gen-seed") gen_seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--save-config") save_config_path = next();
    else if (arg == "--csv") csv_path = next();
    else if (arg == "--listen") coord.listen = next();
    else if (arg == "--min-workers") coord.min_workers = std::atoi(next());
    else if (arg == "--attach-timeout") coord.attach_timeout_s = std::atof(next());
    else if (arg == "--workers") spawn_workers = std::atoi(next());
    else if (arg == "--quiet") Logger::instance().set_level(LogLevel::kWarn);
    else {
      usage_error(kUsage, "unknown option " + arg);
    }
  }
  if (aux.empty() == bench.empty()) {  // exactly one input source
    usage_error(kUsage, "need exactly one of --aux / --bench");
  }

  Design design;
  try {
    if (!aux.empty()) {
      design = read_bookshelf(aux);
    } else {
      SyntheticSpec spec = table1_spec(bench, scale);
      if (gen_seed != 0) spec.seed = gen_seed;
      design = generate_synthetic(spec);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load design: %s\n", e.what());
    return 1;
  }
  std::printf("design %s: %zu cells, %zu nets, %zu macros\n",
              design.name.c_str(), design.num_movable(), design.nets.size(),
              design.num_macros());

  // --workers N spawns local worker children on a private Unix socket
  // (unless an explicit --listen address was given).
  std::vector<pid_t> children;
  if (spawn_workers > 0) {
    if (coord.listen.empty()) {
      coord.listen = "/tmp/puffer_explore." + std::to_string(::getpid()) +
                     ".sock";
    }
    coord.min_workers = spawn_workers;
    for (int w = 0; w < spawn_workers; ++w) {
      const pid_t pid =
          spawn_worker(coord.listen, aux, bench, scale, gen_seed, w);
      if (pid < 0) {
        std::fprintf(stderr, "fork failed: %s\n", std::strerror(errno));
        return 1;
      }
      children.push_back(pid);
    }
  }
  const auto reap_children = [&children]() {
    for (const pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  };

  try {
    ExperimentConfig base;
    const bool distributed = !coord.listen.empty();
    OrchestrationResult result;
    if (distributed) {
      result = run_distributed_orchestration(design, puffer_param_specs(),
                                             base, orch, coord);
    } else {
      TrialOrchestrator orchestrator(design, puffer_param_specs(), base, orch);
      result = orchestrator.run();
    }
    reap_children();

    std::printf("trials        : %d evaluated (%d run, %d pruned, %d "
                "resumed)%s\n",
                result.trials_evaluated, result.stats.trials_run,
                result.stats.trials_pruned, result.stats.trials_resumed,
                result.early_stopped ? ", early-stopped" : "");
    std::printf("prefix        : %.2f s (checkpoint save %.3f s, restore "
                "%.3f s)\n",
                result.stats.prefix_s, result.stats.checkpoint_save_s,
                result.stats.checkpoint_restore_s);
    std::printf("trial phase   : %.2f s, scheduler utilization %.0f %%\n",
                result.stats.trials_s,
                100.0 * result.stats.scheduler_utilization);
    std::printf("best trial    : #%d, loss %.6g (HOF+VOF %%)\n",
                result.best_trial, result.best_loss);
    // Deterministic line the kill-and-resume smoke test compares.
    std::printf("best_checksum: %016" PRIx64 "\n", result.best_checksum);

    if (!save_config_path.empty()) {
      const PufferConfig best_cfg =
          apply_assignment(base.puffer, result.best);
      save_config(best_cfg, save_config_path);
      std::printf("wrote best strategy to %s\n", save_config_path.c_str());
    }
    if (!csv_path.empty()) {
      std::FILE* f = std::fopen(csv_path.c_str(), "w");
      if (!f) {
        std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
        return 1;
      }
      // Per-trial losses plus the orchestrator and padding-feature stage
      // metrics (constant per run, repeated per row to keep the CSV
      // rectangular), matching the router/legalization stage columns of
      // the experiment tables. The padding column comes from the best
      // trial's flow and is zero when that trial was replayed from the
      // journal (best_metrics_valid false).
      std::fprintf(f,
                   "trial,loss,trials_run,trials_pruned,trials_resumed,"
                   "checkpoint_save_ms,checkpoint_restore_ms,"
                   "scheduler_utilization,padding_feature_time_s\n");
      const OrchestratorStageMetrics& st = result.stats;
      const PaddingStageMetrics pf = result.best_metrics_valid
                                         ? result.best_flow.padding_stage
                                         : PaddingStageMetrics{};
      for (std::size_t i = 0; i < result.observations.size(); ++i) {
        std::fprintf(f, "%zu,%.17g,%d,%d,%d,%.3f,%.3f,%.4f,%.4f\n", i,
                     result.observations[i].loss, st.trials_run,
                     st.trials_pruned, st.trials_resumed,
                     1000.0 * st.checkpoint_save_s,
                     1000.0 * st.checkpoint_restore_s,
                     st.scheduler_utilization, pf.feature_time_s);
      }
      std::fclose(f);
      std::printf("wrote %s\n", csv_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "exploration failed: %s\n", e.what());
    reap_children();
    return 1;
  }
  return 0;
}
