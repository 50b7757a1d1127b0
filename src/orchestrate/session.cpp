#include "orchestrate/session.h"

#include <cstring>

#include "common/parallel.h"
#include "common/timer.h"
#include "io/checkpoint.h"

namespace puffer {

std::uint64_t assignment_key(const Assignment& a) {
  std::uint64_t h = fnv1a_bytes(nullptr, 0);
  const std::uint64_t n = a.size();
  h = fnv1a_bytes(&n, sizeof(n), h);
  for (double v : a) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = fnv1a_bytes(&bits, sizeof(bits), h);
  }
  return h;
}

TrialResult run_trial_session(const Design& base_design,
                              const TrialTask& task) {
  TrialResult result;
  result.trial_id = task.trial_id;
  Timer timer;

  // The session's whole compute runs under its runner thread's lease
  // (parallel_for dispatches to the lease's private pool), so K sessions
  // split the global budget instead of stacking K full pools.
  par::WorkerLease lease(task.lease_want);

  Design design = base_design;  // private copy: sessions share nothing
  ExperimentConfig cfg = *task.base;
  cfg.puffer = apply_assignment(task.base->puffer, task.assignment);

  PufferFlow flow(design, cfg.puffer);
  int prune_round = -1;
  double prune_value = 0.0;
  const PruneThresholds* pruner = task.pruner;
  if (pruner) {
    flow.set_progress_hook([&](const FlowProgress& p) {
      if (!pruner->should_prune(p.round, p.est.total_pct())) return true;
      prune_round = p.round;
      prune_value = p.est.total_pct();
      return false;
    });
  }
  result.flow = flow.run_from(*task.snapshot);
  result.rounds = result.flow.round_est_overflow;

  if (result.flow.aborted_early) {
    result.pruned = true;
    result.prune_round = prune_round;
    result.loss = pruner->penalty_loss(prune_value);
    result.checksum = 0;
  } else {
    result.route = evaluate_routability(design, cfg.eval_router);
    result.flow.stages.add("evaluate_route", result.route.route_time_s);
    result.loss = result.route.overflow.hof_pct + result.route.overflow.vof_pct;
    result.checksum = position_checksum(design);
  }
  result.wall_s = timer.elapsed_seconds();
  result.metrics_valid = true;
  return result;
}

}  // namespace puffer
