#include "orchestrate/coordinator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logger.h"
#include "core/config_io.h"
#include "orchestrate/pruner.h"
#include "orchestrate/session.h"

namespace puffer {

namespace {

constexpr const char* kTag = "coordinator";
constexpr int kPollMs = 200;

}  // namespace

CoordinatorConfig validate_coordinator_config(CoordinatorConfig config) {
  if (config.listen.empty()) {
    throw std::invalid_argument("CoordinatorConfig.listen must be set");
  }
  if (config.min_workers < 1) {
    throw std::invalid_argument(
        "CoordinatorConfig.min_workers must be positive");
  }
  if (!(config.attach_timeout_s > 0.0)) {
    throw std::invalid_argument(
        "CoordinatorConfig.attach_timeout_s must be positive");
  }
  return config;
}

CoordinatorExecutor::CoordinatorExecutor(CoordinatorConfig config)
    : config_(validate_coordinator_config(std::move(config))),
      frames_(
          config_.listen,
          [this](ConnId id, const WireFrame& frame) { on_frame(id, frame); },
          [this](ConnId id, const std::string& why) { on_close(id, why); }) {
  PUFFER_LOG_INFO(kTag, "listening on %s", config_.listen.c_str());
}

CoordinatorExecutor::~CoordinatorExecutor() { shutdown_workers(); }

int CoordinatorExecutor::slots() const { return std::max(1, peak_workers_); }

int CoordinatorExecutor::workers_attached() const {
  return static_cast<int>(std::count_if(
      workers_.begin(), workers_.end(),
      [](const auto& entry) { return entry.second.ready; }));
}

void CoordinatorExecutor::shutdown_workers() {
  for (const auto& [id, w] : workers_) {
    if (w.ready) send(id, MsgType::kShutdown, std::string());
    frames_.close(id);
  }
  workers_.clear();
}

void CoordinatorExecutor::send(ConnId id, MsgType type,
                               const std::string& body) {
  frames_.send(id, static_cast<std::uint32_t>(type), body);
}

void CoordinatorExecutor::on_frame(ConnId id, const WireFrame& frame) {
  const auto it = workers_.find(id);
  if (it == workers_.end()) {
    handshake(id, frame);
    return;
  }
  Worker& w = it->second;
  if (w.ready) {
    take_result(w, frame);
    return;
  }
  if (frame.type != static_cast<std::uint32_t>(MsgType::kReady)) {
    throw CheckpointError("expected ready");
  }
  w.ready = true;
  const int attached = workers_attached();
  peak_workers_ = std::max(peak_workers_, attached);
  PUFFER_LOG_INFO(kTag, "worker %s attached (%d attached)", w.name.c_str(),
                  attached);
}

void CoordinatorExecutor::on_close(ConnId id, const std::string& why) {
  const auto it = workers_.find(id);
  if (it == workers_.end()) {
    PUFFER_LOG_WARN(kTag, "handshake failed: %s", why.c_str());
    return;
  }
  const Worker& w = it->second;
  PUFFER_LOG_WARN(kTag, "worker %s lost (%s)%s", w.name.c_str(), why.c_str(),
                  w.task >= 0 ? ", reassigning its trial" : "");
  if (w.task >= 0) {
    pending_.push_back(w.task);
    ++trials_reassigned_;
  }
  if (w.ready) since_lost_ = Timer();
  workers_.erase(it);
}

void CoordinatorExecutor::handshake(ConnId id, const WireFrame& frame) {
  if (frame.type != static_cast<std::uint32_t>(MsgType::kHello)) {
    throw CheckpointError("expected hello");
  }
  const HelloMsg hello = decode_hello(frame.body);
  const auto refuse = [&](const std::string& why) {
    ErrorMsg err;
    err.message = why;
    send(id, MsgType::kError, encode_error(err));
    throw CheckpointError("refused worker " + hello.worker_name + ": " + why);
  };
  if (hello.protocol_version != kOrchProtocolVersion) {
    refuse("protocol version mismatch");
  }
  if (hello.design_key != ctx_.design_key) {
    // A worker holding a different benchmark must never evaluate
    // trials: its results would fold garbage into the TPE state.
    refuse("design mismatch: worker loaded a different benchmark");
  }
  const bool cached =
      std::find(hello.cached.begin(), hello.cached.end(),
                std::make_pair(ctx_.design_key, ctx_.prefix_key)) !=
      hello.cached.end();
  HelloAckMsg ack;
  ack.design_key = ctx_.design_key;
  ack.prefix_key = ctx_.prefix_key;
  ack.space_key = ctx_.space_key;
  ack.seed = ctx_.seed;
  ack.base_config_text = base_config_text_;
  ack.snapshot_follows = cached ? 0 : 1;
  send(id, MsgType::kHelloAck, encode_hello_ack(ack));
  if (!cached) send(id, MsgType::kSnapshot, snapshot_bytes_);
  workers_[id].name = hello.worker_name;
  PUFFER_LOG_INFO(kTag, "worker %s said hello (snapshot %s)",
                  hello.worker_name.c_str(), cached ? "cached" : "shipped");
}

void CoordinatorExecutor::take_result(Worker& w, const WireFrame& frame) {
  if (frame.type == static_cast<std::uint32_t>(MsgType::kError)) {
    throw CheckpointError("worker error: " + decode_error(frame.body).message);
  }
  if (frame.type != static_cast<std::uint32_t>(MsgType::kTrialResult)) {
    throw CheckpointError("unexpected message type " +
                          std::to_string(frame.type));
  }
  const TrialResultMsg msg = decode_trial_result(frame.body);
  const auto i = static_cast<std::size_t>(w.task);
  if (w.task < 0 || (*tasks_)[i].trial_id != msg.trial_id ||
      assignment_key((*tasks_)[i].assignment) != msg.akey) {
    throw CheckpointError("result does not match the assignment");
  }
  TrialResult& r = (*results_)[i];
  r.trial_id = msg.trial_id;
  r.loss = msg.loss;
  r.pruned = msg.pruned != 0;
  r.prune_round = msg.prune_round;
  r.checksum = msg.checksum;
  r.rounds = msg.rounds;
  r.wall_s = msg.wall_s;
  r.metrics_valid = false;  // FlowMetrics never cross the wire
  w.task = -1;
  --remaining_;
}

void CoordinatorExecutor::prepare(const TrialRunContext& ctx) {
  ctx_ = ctx;
  snapshot_bytes_ = encode_snapshot(*ctx.snapshot);
  base_config_text_ = config_to_text(ctx.base->puffer);

  Timer timer;
  while (workers_attached() < config_.min_workers) {
    if (timer.elapsed_seconds() > config_.attach_timeout_s) {
      PUFFER_LOG_WARN(kTag,
                      "only %d/%d workers attached in %.0f s; remaining "
                      "trials may run in-process",
                      workers_attached(), config_.min_workers,
                      config_.attach_timeout_s);
      return;
    }
    frames_.poll(kPollMs);
  }
}

void CoordinatorExecutor::run_batch(const std::vector<TrialTask>& tasks,
                                    const std::vector<int>& to_run,
                                    std::vector<TrialResult>* results) {
  tasks_ = &tasks;
  results_ = results;
  pending_.assign(to_run.begin(), to_run.end());
  remaining_ = to_run.size();
  since_lost_ = Timer();

  while (remaining_ > 0) {
    // Hand pending trials to idle attached workers.
    for (auto& [id, w] : workers_) {
      if (pending_.empty()) break;
      if (!w.ready || w.task >= 0) continue;
      const TrialTask& task =
          tasks[static_cast<std::size_t>(pending_.front())];
      TrialAssignMsg msg;
      msg.trial_id = task.trial_id;
      msg.assignment = task.assignment;
      msg.akey = assignment_key(task.assignment);
      if (task.pruner) msg.pruner_blob = encode_prune_thresholds(*task.pruner);
      send(id, MsgType::kTrialAssign, encode_trial_assign(msg));
      w.task = pending_.front();
      pending_.pop_front();
    }

    if (workers_attached() == 0 &&
        since_lost_.elapsed_seconds() > config_.attach_timeout_s) {
      // Every worker is gone and none re-attached in time: evaluate the
      // rest in-process so the exploration finishes.
      PUFFER_LOG_WARN(kTag,
                      "no workers for %.0f s; evaluating %zu remaining "
                      "trial(s) in-process",
                      config_.attach_timeout_s, remaining_);
      for (const int i : pending_) {
        (*results)[static_cast<std::size_t>(i)] = run_trial_session(
            *tasks[static_cast<std::size_t>(i)].design,
            tasks[static_cast<std::size_t>(i)]);
        ++trials_in_process_;
        --remaining_;
      }
      pending_.clear();
      continue;
    }

    // Wait for results, worker deaths, or new attaches.
    frames_.poll(kPollMs);
  }
  tasks_ = nullptr;
  results_ = nullptr;
}

OrchestrationResult run_distributed_orchestration(
    Design& design, std::vector<ParamSpec> specs, ExperimentConfig base,
    OrchestratorConfig orch, CoordinatorConfig coord) {
  TrialOrchestrator orchestrator(design, std::move(specs), std::move(base),
                                 std::move(orch));
  CoordinatorExecutor executor(std::move(coord));
  OrchestrationResult result = orchestrator.run(executor);
  if (executor.trials_reassigned() > 0 || executor.trials_in_process() > 0) {
    PUFFER_LOG_INFO(kTag, "%d trial(s) reassigned, %d ran in-process",
                    executor.trials_reassigned(),
                    executor.trials_in_process());
  }
  executor.shutdown_workers();
  return result;
}

}  // namespace puffer
