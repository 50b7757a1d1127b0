#include "orchestrate/orchestrator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logger.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "io/checkpoint.h"

namespace puffer {

namespace {

constexpr const char* kTag = "orchestrate";

}  // namespace

OrchestratorConfig validate_orchestrator_config(OrchestratorConfig config) {
  if (config.trials < 1) {
    throw std::invalid_argument("OrchestratorConfig.trials must be positive");
  }
  if (config.concurrency < 1) {
    throw std::invalid_argument(
        "OrchestratorConfig.concurrency must be positive");
  }
  if (!(config.fork_overflow > 0.0) || !(config.fork_overflow <= 1.0)) {
    throw std::invalid_argument(
        "OrchestratorConfig.fork_overflow must lie in (0, 1]");
  }
  if (config.resume && config.journal_path.empty()) {
    throw std::invalid_argument(
        "OrchestratorConfig.resume requires a journal_path");
  }
  config.prune = validate_prune_config(config.prune);
  // The loop mirrors explore_parameters(), so reuse its validation for
  // the shared knobs (trials/early_stop/batch_size/TPE).
  ExploreConfig ec;
  ec.time_limit = config.trials;
  ec.early_stop = config.early_stop;
  ec.batch_size = config.batch_size;
  ec.tpe = config.tpe;
  ec.seed = config.seed;
  validate_explore_config(ec);
  return config;
}

TrialOrchestrator::TrialOrchestrator(Design& design,
                                     std::vector<ParamSpec> specs,
                                     ExperimentConfig base,
                                     OrchestratorConfig config)
    : design_(design),
      specs_(std::move(specs)),
      base_(std::move(base)),
      config_(validate_orchestrator_config(std::move(config))) {}

std::uint64_t TrialOrchestrator::space_key() const {
  BinaryWriter w;
  w.u64(static_cast<std::uint64_t>(specs_.size()));
  for (const ParamSpec& s : specs_) {
    w.str(s.name);
    w.i32(static_cast<std::int32_t>(s.kind));
    w.f64(s.lo);
    w.f64(s.hi);
  }
  w.u64(config_.seed);
  w.i32(config_.trials);
  w.i32(config_.batch_size);
  w.i32(config_.early_stop);
  w.f64(config_.fork_overflow);
  w.i32(config_.tpe.n_startup);
  w.u8(config_.prune.enabled ? 1 : 0);
  w.i32(config_.prune.grace_rounds);
  w.i32(config_.prune.min_history);
  w.f64(config_.prune.quantile);
  w.f64(config_.prune.penalty);
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

LocalTrialExecutor::LocalTrialExecutor(int concurrency)
    : concurrency_(concurrency) {}

void LocalTrialExecutor::run_batch(const std::vector<TrialTask>& tasks,
                                   const std::vector<int>& to_run,
                                   std::vector<TrialResult>* results) {
  if (to_run.empty()) return;
  const auto run_one = [&](int i) {
    (*results)[static_cast<std::size_t>(i)] =
        run_trial_session(*tasks[static_cast<std::size_t>(i)].design,
                          tasks[static_cast<std::size_t>(i)]);
  };
  if (to_run.size() == 1 || concurrency_ == 1) {
    for (const int i : to_run) run_one(i);
    return;
  }
  // K runner threads pull candidate indices from a shared counter; the
  // schedule is timing-dependent but only moves *where* a session runs,
  // never what it computes.
  std::atomic<std::size_t> next{0};
  std::mutex err_mutex;
  std::exception_ptr err;
  const int workers =
      std::min(concurrency_, static_cast<int>(to_run.size()));
  std::vector<std::thread> runners;
  runners.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    runners.emplace_back([&] {
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= to_run.size()) return;
        try {
          run_one(to_run[k]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(err_mutex);
          if (!err) err = std::current_exception();
          return;
        }
      }
    });
  }
  for (std::thread& t : runners) t.join();
  if (err) std::rethrow_exception(err);
}

OrchestrationResult TrialOrchestrator::run() {
  LocalTrialExecutor executor(config_.concurrency);
  return run(executor);
}

OrchestrationResult TrialOrchestrator::run(TrialExecutor& executor) {
  OrchestrationResult result;
  result.best_loss = std::numeric_limits<double>::max();

  // One flow instance serves the whole orchestration: it computes the
  // prefix key and runs the shared prefix. Sessions never touch it (each
  // builds its own flow on a private design copy).
  PufferFlow prefix_flow(design_, base_.puffer);
  const std::uint64_t dkey = design_structure_key(design_);
  const std::uint64_t pkey = prefix_flow.prefix_key(config_.fork_overflow);
  const std::uint64_t skey = space_key();

  // --- journal replay ----------------------------------------------------
  std::unordered_map<int, JournalRecord> completed;
  std::unique_ptr<TrialJournal> journal;
  if (!config_.journal_path.empty()) {
    bool have_header = false;
    if (config_.resume) {
      const std::vector<JournalRecord> records =
          TrialJournal::load(config_.journal_path);
      if (!records.empty()) {
        const JournalRecord& h = records.front();
        if (h.type != JournalRecord::Type::kHeader || h.design_key != dkey ||
            h.prefix_key != pkey || h.space_key != skey ||
            h.seed != config_.seed) {
          throw CheckpointError(
              "journal: header mismatch (different design, parameter space "
              "or seed) -- refusing to resume from " + config_.journal_path);
        }
        have_header = true;
        for (const JournalRecord& rec : records) {
          if (rec.type == JournalRecord::Type::kTrialComplete) {
            completed[rec.trial] = rec;
          }
        }
        PUFFER_LOG_INFO(kTag, "resuming: %zu completed trials in journal %s",
                        completed.size(), config_.journal_path.c_str());
      }
    } else {
      // Fresh run: a stale journal would poison a later resume.
      std::remove(config_.journal_path.c_str());
    }
    journal = std::make_unique<TrialJournal>(config_.journal_path);
    if (!have_header) {
      JournalRecord h;
      h.type = JournalRecord::Type::kHeader;
      h.design_key = dkey;
      h.prefix_key = pkey;
      h.space_key = skey;
      h.seed = config_.seed;
      h.trials = config_.trials;
      h.batch_size = config_.batch_size;
      journal->append(h);
    }
  }

  // --- shared prefix: restore the checkpoint or run and save it ----------
  FlowSnapshot snap;
  Timer prefix_timer;
  bool restored = false;
  const std::string ckpt_path =
      config_.checkpoint_dir.empty() ? std::string()
                                     : config_.checkpoint_dir + "/prefix.ckpt";
  if (config_.resume && !ckpt_path.empty()) {
    try {
      Timer t;
      FlowSnapshot loaded = load_snapshot(ckpt_path);
      if (loaded.design_key == dkey && loaded.prefix_key == pkey) {
        snap = std::move(loaded);
        restored = true;
        result.stats.checkpoint_restore_s += t.elapsed_seconds();
        PUFFER_LOG_INFO(kTag, "restored prefix checkpoint %s (%.3f s)",
                        ckpt_path.c_str(), result.stats.checkpoint_restore_s);
      }
    } catch (const CheckpointError&) {
      // Missing or corrupt checkpoint: rebuild it below.
    }
  }
  if (!restored) {
    prefix_flow.run_prefix(config_.fork_overflow, &snap);
    if (!ckpt_path.empty()) {
      ensure_dir(config_.checkpoint_dir);
      Timer t;
      save_snapshot(ckpt_path, snap);
      result.stats.checkpoint_save_s += t.elapsed_seconds();
      if (journal) {
        JournalRecord c;
        c.type = JournalRecord::Type::kCheckpoint;
        c.path = ckpt_path;
        c.prefix_key = pkey;
        journal->append(c);
      }
    }
  }
  result.stats.prefix_s = prefix_timer.elapsed_seconds();

  TrialRunContext ctx;
  ctx.base = &base_;
  ctx.snapshot = &snap;
  executor.prepare(ctx);

  // --- concurrent TPE loop ------------------------------------------------
  // Each local session leases an equal share of the worker budget; the
  // owning runner thread always counts as one worker, so K sessions on an
  // N-thread budget never exceed N workers in total. (Remote workers
  // size their own leases.)
  const int lease_want =
      std::max(1, par::num_threads() / config_.concurrency);

  TpeSampler sampler(specs_, config_.tpe, config_.seed);
  PruneThresholds accum(config_.prune);
  int tc = 0;   // folded evaluations
  int npc = 0;  // non-improving streak
  Timer trials_timer;
  double busy_s = 0.0;

  while (tc < config_.trials && npc < config_.early_stop) {
    // Suggest the statistical batch sequentially: the sampler's RNG
    // advances on this thread only, so the candidate sequence -- and
    // with it the resume replay -- is deterministic for any (K,
    // PUFFER_THREADS).
    const int want = std::min(config_.batch_size, config_.trials - tc);
    std::vector<Assignment> xs(static_cast<std::size_t>(want));
    for (int i = 0; i < want; ++i) {
      xs[static_cast<std::size_t>(i)] = sampler.suggest(result.observations);
    }
    // Every session of this batch prunes against the thresholds frozen
    // here, regardless of scheduling order.
    const PruneThresholds frozen = accum;
    const PruneThresholds* pruner =
        frozen.config().enabled ? &frozen : nullptr;

    std::vector<TrialTask> tasks(static_cast<std::size_t>(want));
    std::vector<TrialResult> results(static_cast<std::size_t>(want));
    std::vector<int> to_run;
    for (int i = 0; i < want; ++i) {
      const int tid = tc + i;
      const std::uint64_t akey = assignment_key(xs[static_cast<std::size_t>(i)]);
      TrialTask& task = tasks[static_cast<std::size_t>(i)];
      task.trial_id = tid;
      task.assignment = xs[static_cast<std::size_t>(i)];
      task.design = &design_;
      task.base = &base_;
      task.snapshot = &snap;
      task.pruner = pruner;
      task.lease_want = lease_want;
      const auto it = completed.find(tid);
      if (it != completed.end() && it->second.akey == akey) {
        TrialResult& r = results[static_cast<std::size_t>(i)];
        r.trial_id = tid;
        r.loss = it->second.loss;
        r.pruned = it->second.pruned;
        r.prune_round = it->second.prune_round;
        r.checksum = it->second.checksum;
        r.rounds = it->second.rounds;
        ++result.stats.trials_resumed;
      } else {
        to_run.push_back(i);
      }
    }

    if (journal) {
      for (const int i : to_run) {
        JournalRecord s;
        s.type = JournalRecord::Type::kTrialStart;
        s.trial = tc + i;
        s.akey = assignment_key(xs[static_cast<std::size_t>(i)]);
        journal->append(s);
      }
    }

    if (!to_run.empty()) executor.run_batch(tasks, to_run, &results);

    if (journal) {
      // Completion records in candidate order, so the journal content is
      // deterministic too (not just its replay).
      for (const int i : to_run) {
        const TrialResult& r = results[static_cast<std::size_t>(i)];
        JournalRecord c;
        c.type = JournalRecord::Type::kTrialComplete;
        c.trial = r.trial_id;
        c.akey = assignment_key(xs[static_cast<std::size_t>(i)]);
        c.loss = r.loss;
        c.pruned = r.pruned;
        c.prune_round = r.prune_round;
        c.checksum = r.checksum;
        c.rounds = r.rounds;
        journal->append(c);
      }
    }

    // Fold in candidate order, mirroring explore_parameters() exactly:
    // the loop state (best, npc, tc) updates as if the candidates had
    // been evaluated one by one.
    for (int i = 0; i < want && npc < config_.early_stop; ++i) {
      const TrialResult& r = results[static_cast<std::size_t>(i)];
      Observation o;
      o.x = xs[static_cast<std::size_t>(i)];
      o.loss = r.loss;
      result.observations.push_back(std::move(o));
      accum.observe(r.rounds);
      busy_s += r.wall_s;
      if (r.pruned) {
        ++result.stats.trials_pruned;
      } else {
        ++result.stats.trials_run;
      }
      if (r.loss < result.best_loss) {
        result.best_loss = r.loss;
        result.best = xs[static_cast<std::size_t>(i)];
        result.best_trial = r.trial_id;
        result.best_checksum = r.checksum;
        if (r.metrics_valid) {
          result.best_metrics_valid = true;
          result.best_flow = r.flow;
          result.best_route = r.route;
        } else {
          result.best_metrics_valid = false;
        }
        npc = 0;
      }
      ++tc;
      ++npc;
    }
    PUFFER_LOG_INFO(kTag,
                    "batch done: %d/%d trials folded, best loss %.5g "
                    "(trial %d), %d pruned, %d resumed",
                    tc, config_.trials, result.best_loss, result.best_trial,
                    result.stats.trials_pruned, result.stats.trials_resumed);
  }

  result.trials_evaluated = tc;
  result.early_stopped = npc >= config_.early_stop;
  result.stats.trials_s = trials_timer.elapsed_seconds();
  const double denom = result.stats.trials_s *
                       static_cast<double>(std::max(1, executor.slots()));
  result.stats.scheduler_utilization =
      denom > 0.0 ? std::min(1.0, busy_s / denom) : 0.0;

  if (journal) {
    JournalRecord e;
    e.type = JournalRecord::Type::kExploreComplete;
    e.best_trial = result.best_trial;
    e.best_loss = result.best_loss;
    e.best_checksum = result.best_checksum;
    journal->append(e);
  }
  log_flow_stage_metrics(design_.name, "orchestrated", result.best_flow);
  const OrchestratorStageMetrics& st = result.stats;
  PUFFER_LOG_INFO(kTag,
                  "%s: %d run / %d pruned / %d resumed, prefix %.2fs, "
                  "trials %.2fs, ckpt save %.0fms restore %.0fms, "
                  "utilization %.0f%%",
                  design_.name.c_str(), st.trials_run, st.trials_pruned,
                  st.trials_resumed, st.prefix_s, st.trials_s,
                  1000.0 * st.checkpoint_save_s,
                  1000.0 * st.checkpoint_restore_s,
                  100.0 * st.scheduler_utilization);
  return result;
}

}  // namespace puffer
