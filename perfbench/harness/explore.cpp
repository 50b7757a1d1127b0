// explore_trials: the paper's strategy-exploration workflow, as
// puffer_explore runs it in process. Every trial forks from one shared
// global-placement prefix checkpointed on disk, with a trial journal.
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "core/strategy_params.h"
#include "io/bookshelf.h"
#include "orchestrate/orchestrator.h"

namespace perfbench {
namespace {

constexpr int kTrials = 16;
constexpr int kBatch = 4;
// Extra set-up (Bookshelf parse) samples taken before each job, so the
// set-up median spans the whole run; a parse takes milliseconds here.
constexpr int kParsesPerJob = 6;

std::string aux_path(const RunOptions& opt, int design) {
  return opt.inputs + "/" + design_base(design % kExploreDesigns) + ".aux";
}

// The orchestrator's own in-process executor, timed from outside: each
// batch becomes a span, and the first batch's end is when the caller
// first sees trial losses.
class TimedExecutor : public puffer::TrialExecutor {
 public:
  TimedExecutor(int concurrency, Tracer& tracer, std::uint64_t parent,
                std::int64_t job, Clock::time_point start)
      : inner_(concurrency),
        tracer_(tracer),
        parent_(parent),
        job_(job),
        start_(start) {}

  void prepare(const puffer::TrialRunContext& ctx) override {
    tracer_.record("orchestrate.prefix", start_, Clock::now(), parent_, job_);
    inner_.prepare(ctx);
  }
  void run_batch(const std::vector<puffer::TrialTask>& tasks,
                 const std::vector<int>& to_run,
                 std::vector<puffer::TrialResult>* results) override {
    const auto t0 = Clock::now();
    inner_.run_batch(tasks, to_run, results);
    const auto t1 = Clock::now();
    if (!first_batch_end_) first_batch_end_ = t1;
    tracer_.record("orchestrate.batch", t0, t1, parent_, job_);
  }
  int slots() const override { return inner_.slots(); }

  std::optional<Clock::time_point> first_batch_end() const {
    return first_batch_end_;
  }

 private:
  puffer::LocalTrialExecutor inner_;
  Tracer& tracer_;
  std::uint64_t parent_;
  std::int64_t job_;
  Clock::time_point start_;
  std::optional<Clock::time_point> first_batch_end_;
};

}  // namespace

void run_explore(const RunOptions& opt, Tracer& tracer, RawResult& raw) {
  const int concurrency = concurrent_sessions();
  raw.info["explore_concurrency"] = std::to_string(concurrency);

  const auto loop_start = Clock::now();
  double last_job_s = 0.0;
  // Start another job only while it should end within --seconds.
  for (int job = 0;
       job == 0 || seconds_since(loop_start) + last_job_s <= opt.seconds;
       ++job) {
    for (int i = 0; i < kParsesPerJob; ++i) {
      Span span(tracer, "io.read_bookshelf");
      const auto t0 = Clock::now();
      const puffer::Design design = puffer::read_bookshelf(aux_path(opt, i));
      raw.setup_s.push_back(seconds_since(t0));
    }
    ++raw.attempted;
    const std::string dir = opt.work + "/explore" + std::to_string(job);
    std::filesystem::create_directories(dir);
    const std::uint64_t job_span = tracer.open();
    const auto t0 = Clock::now();
    puffer::Design design;
    {
      Span span(tracer, "io.read_bookshelf", job_span, job);
      design = puffer::read_bookshelf(aux_path(opt, job));
    }
    const auto t1 = Clock::now();

    puffer::OrchestratorConfig config;
    config.trials = kTrials;
    config.batch_size = kBatch;
    config.concurrency = concurrency;
    config.checkpoint_dir = dir;
    config.journal_path = dir + "/journal.jsonl";
    puffer::TrialOrchestrator orchestrator(design, puffer::puffer_param_specs(),
                                           puffer::ExperimentConfig{}, config);
    const std::uint64_t run_span = tracer.open();
    TimedExecutor executor(concurrency, tracer, run_span, job, t1);
    puffer::OrchestrationResult result = orchestrator.run(executor);
    const auto t2 = Clock::now();
    tracer.close(run_span, "orchestrate.run", t1, t2, job_span, job);
    tracer.close(job_span, "explore.job", t0, t2, 0, job);

    const double explore_s = seconds_between(t1, t2);
    last_job_s = seconds_between(t0, t2);
    raw.setup_s.push_back(seconds_between(t0, t1));
    raw.latency_s.push_back(explore_s);
    raw.first_feedback_s.push_back(
        executor.first_batch_end()
            ? seconds_between(t1, *executor.first_batch_end())
            : explore_s);
    raw.sample("io.read_bookshelf_s", seconds_between(t0, t1));

    const puffer::OrchestratorStageMetrics& st = result.stats;
    raw.sample("orchestrate.prefix_s", st.prefix_s);
    raw.sample("orchestrate.trials_s", st.trials_s);
    raw.sample("orchestrate.utilization", st.scheduler_utilization);
    raw.sample("orchestrate.checkpoint_save_s", st.checkpoint_save_s);
    raw.sample("orchestrate.checkpoint_restore_s", st.checkpoint_restore_s);
    raw.sample("orchestrate.trials_run", st.trials_run);
    raw.sample("orchestrate.trials_pruned", st.trials_pruned);
    raw.sample("orchestrate.best_loss", result.best_loss);
    if (result.best_metrics_valid) {
      raw.add_flow(result.best_flow);
      raw.add_route(result.best_route);
    }

    if (opt.inject_fault && job == 0) result.best_checksum = 0;
    const std::string tag = "explore job " + std::to_string(job) + ": ";
    if (result.trials_evaluated != kTrials) {
      raw.fail(tag + "folded " + std::to_string(result.trials_evaluated) +
               " of " + std::to_string(kTrials) + " trials");
    } else if (result.best_checksum == 0) {
      raw.fail(tag + "best trial has no placement checksum");
    } else if (!result.best_metrics_valid ||
               !result.best_flow.legality.legal ||
               result.best_flow.legalize.failed_cells > 0) {
      raw.fail(tag + "best trial's placement is not legal");
    } else {
      raw.placements += result.trials_evaluated;
      raw.busy_s += explore_s;
      raw.routed_wl.push_back(result.best_route.wirelength);
    }
    std::filesystem::remove_all(dir);
  }
  raw.peak_rss_mb = peak_rss_mb(static_cast<int>(::getpid()));
}

}  // namespace perfbench
