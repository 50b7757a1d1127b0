#include "orchestrate/coordinator.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "common/logger.h"
#include "common/timer.h"
#include "core/config_io.h"
#include "orchestrate/protocol.h"
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

struct CoordinatorExecutor::Worker {
  int fd = -1;
  std::string name;
  bool attached = false;  // handshake done: may take trials
  int task = -1;  // index into the current batch's tasks, -1 = idle
  FrameBuffer in;  // received bytes not yet decoded into frames
};

CoordinatorExecutor::CoordinatorExecutor(CoordinatorConfig config)
    : config_(validate_coordinator_config(std::move(config))) {
  ignore_sigpipe();
  listen_fd_ = listen_socket(config_.listen);
  PUFFER_LOG_INFO(kTag, "listening on %s", config_.listen.c_str());
}

CoordinatorExecutor::~CoordinatorExecutor() {
  shutdown_workers();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (is_unix_address(config_.listen)) ::unlink(config_.listen.c_str());
}

int CoordinatorExecutor::slots() const { return std::max(1, peak_workers_); }

int CoordinatorExecutor::workers_attached() const {
  return static_cast<int>(
      std::count_if(workers_.begin(), workers_.end(),
                    [](const Worker& w) { return w.attached; }));
}

void CoordinatorExecutor::shutdown_workers() {
  for (Worker& w : workers_) {
    if (w.attached) {
      try {
        send_msg(w.fd, MsgType::kShutdown, std::string());
      } catch (const CheckpointError&) {
        // Worker already gone.
      }
    }
    ::close(w.fd);
  }
  workers_.clear();
}

void CoordinatorExecutor::handshake(Worker& w, const WireFrame& frame) {
  if (frame.type != static_cast<std::uint32_t>(MsgType::kHello)) {
    throw CheckpointError("expected hello");
  }
  const HelloMsg hello = decode_hello(frame.body);
  const auto refuse = [&](const std::string& why) {
    ErrorMsg err;
    err.message = why;
    send_msg(w.fd, MsgType::kError, encode_error(err));
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
  send_msg(w.fd, MsgType::kHelloAck, encode_hello_ack(ack));
  if (!cached) {
    send_msg(w.fd, MsgType::kSnapshot, snapshot_bytes_);
  }
  w.name = hello.worker_name;
  w.attached = true;
  const int attached = workers_attached();
  peak_workers_ = std::max(peak_workers_, attached);
  PUFFER_LOG_INFO(kTag, "worker %s attached (%d connected, snapshot %s)",
                  w.name.c_str(), attached, cached ? "cached" : "shipped");
}

void CoordinatorExecutor::drop_worker(std::size_t w, const std::string& why) {
  const Worker& worker = workers_[w];
  if (worker.attached) {
    PUFFER_LOG_WARN(kTag, "worker %s lost (%s)%s", worker.name.c_str(),
                    why.c_str(),
                    worker.task >= 0 ? ", reassigning its trial" : "");
  } else {
    PUFFER_LOG_WARN(kTag, "handshake failed: %s", why.c_str());
  }
  ::close(worker.fd);
  workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(w));
}

int CoordinatorExecutor::pump(const FrameFn& on_frame,
                              std::vector<int>* orphans) {
  std::vector<pollfd> fds;
  fds.reserve(workers_.size() + 1);
  fds.push_back({listen_fd_, POLLIN, 0});
  for (const Worker& w : workers_) fds.push_back({w.fd, POLLIN, 0});
  if (::poll(fds.data(), fds.size(), kPollMs) <= 0) return 0;

  int dropped = 0;
  // Backwards, so a drop shifts only connections already handled.
  for (std::size_t i = workers_.size(); i-- > 0;) {
    if (fds[i + 1].revents == 0) continue;
    Worker& w = workers_[i];
    try {
      // A hangup with a complete result still buffered must count the
      // result, so the buffered frames are handled before the EOF.
      const bool open = read_ready(w.fd, &w.in);
      WireFrame frame;
      while (w.in.next(&frame)) {
        if (w.attached) {
          on_frame(w, frame);
        } else {
          handshake(w, frame);
        }
      }
      if (!open) throw CheckpointError("connection closed");
    } catch (const CheckpointError& e) {
      if (w.attached) {
        ++dropped;
        if (w.task >= 0) orphans->push_back(w.task);
      }
      drop_worker(i, e.what());
    }
  }
  if (fds[0].revents & POLLIN) {
    Worker w;
    w.fd = accept_socket(listen_fd_);
    workers_.push_back(std::move(w));
  }
  return dropped;
}

void CoordinatorExecutor::prepare(const TrialRunContext& ctx) {
  ctx_ = ctx;
  snapshot_bytes_ = encode_snapshot(*ctx.snapshot);
  base_config_text_ = config_to_text(ctx.base->puffer);

  // No trial is assigned yet, so an attached worker has nothing to say.
  const FrameFn unexpected = [](Worker&, const WireFrame& frame) {
    throw CheckpointError("unexpected message type " +
                          std::to_string(frame.type));
  };
  std::vector<int> orphans;
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
    pump(unexpected, &orphans);
  }
}

void CoordinatorExecutor::run_batch(const std::vector<TrialTask>& tasks,
                                    const std::vector<int>& to_run,
                                    std::vector<TrialResult>* results) {
  std::deque<int> pending(to_run.begin(), to_run.end());
  std::size_t remaining = to_run.size();
  Timer starve_timer;  // time since the last worker disappeared

  const auto assign_to = [&](Worker& w, int i) {
    const TrialTask& task = tasks[static_cast<std::size_t>(i)];
    TrialAssignMsg msg;
    msg.trial_id = task.trial_id;
    msg.assignment = task.assignment;
    msg.akey = assignment_key(task.assignment);
    if (task.pruner) msg.pruner_blob = encode_prune_thresholds(*task.pruner);
    send_msg(w.fd, MsgType::kTrialAssign, encode_trial_assign(msg));
    w.task = i;
  };
  const FrameFn take_result = [&](Worker& w, const WireFrame& frame) {
    if (frame.type == static_cast<std::uint32_t>(MsgType::kError)) {
      throw CheckpointError("worker error: " +
                            decode_error(frame.body).message);
    }
    if (frame.type != static_cast<std::uint32_t>(MsgType::kTrialResult)) {
      throw CheckpointError("unexpected message type " +
                            std::to_string(frame.type));
    }
    const TrialResultMsg msg = decode_trial_result(frame.body);
    const int i = w.task;
    if (i < 0 ||
        tasks[static_cast<std::size_t>(i)].trial_id != msg.trial_id ||
        assignment_key(tasks[static_cast<std::size_t>(i)].assignment) !=
            msg.akey) {
      throw CheckpointError("result does not match the assignment");
    }
    TrialResult& r = (*results)[static_cast<std::size_t>(i)];
    r.trial_id = msg.trial_id;
    r.loss = msg.loss;
    r.pruned = msg.pruned != 0;
    r.prune_round = msg.prune_round;
    r.checksum = msg.checksum;
    r.rounds = msg.rounds;
    r.wall_s = msg.wall_s;
    r.metrics_valid = false;  // FlowMetrics never cross the wire
    w.task = -1;
    --remaining;
  };

  while (remaining > 0) {
    // Hand pending trials to idle workers. A send failure means the
    // worker died between polls: requeue and drop.
    for (std::size_t w = 0; w < workers_.size() && !pending.empty();) {
      if (!workers_[w].attached || workers_[w].task >= 0) {
        ++w;
        continue;
      }
      const int i = pending.front();
      try {
        assign_to(workers_[w], i);
        pending.pop_front();
        ++w;
      } catch (const CheckpointError&) {
        drop_worker(w, "send failed");
        starve_timer = Timer();
      }
    }

    if (workers_attached() == 0 &&
        starve_timer.elapsed_seconds() > config_.attach_timeout_s) {
      // Every worker is gone and none re-attached in time: evaluate the
      // rest in-process so the exploration finishes.
      PUFFER_LOG_WARN(kTag,
                      "no workers for %.0f s; evaluating %zu remaining "
                      "trial(s) in-process",
                      config_.attach_timeout_s, remaining);
      while (!pending.empty()) {
        const int i = pending.front();
        pending.pop_front();
        (*results)[static_cast<std::size_t>(i)] = run_trial_session(
            *tasks[static_cast<std::size_t>(i)].design,
            tasks[static_cast<std::size_t>(i)]);
        ++trials_in_process_;
        --remaining;
      }
      continue;
    }

    // Wait for results, worker deaths, or new attaches.
    std::vector<int> orphans;
    if (pump(take_result, &orphans) > 0) starve_timer = Timer();
    for (const int i : orphans) {
      pending.push_back(i);
      ++trials_reassigned_;
    }
  }
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
