#include "orchestrate/worker.h"

#include <unistd.h>

#include "common/logger.h"
#include "common/parallel.h"
#include "core/config_io.h"
#include "orchestrate/protocol.h"
#include "orchestrate/pruner.h"
#include "orchestrate/session.h"

namespace puffer {

namespace {

constexpr const char* kTag = "worker";

void send_error(int fd, const std::string& message) {
  try {
    ErrorMsg err;
    err.message = message;
    send_msg(fd, MsgType::kError, encode_error(err));
  } catch (const CheckpointError&) {
    // The peer is already gone; the caller handles the disconnect.
  }
}

}  // namespace

bool serve_coordinator(int fd, const Design& design,
                       const ExperimentConfig& base,
                       const std::string& worker_name) {
  const std::uint64_t dkey = design_structure_key(design);

  // --- attach: Hello -> HelloAck -> Snapshot -----------------------------
  HelloMsg hello;
  hello.design_key = dkey;
  hello.worker_name = worker_name;
  send_msg(fd, MsgType::kHello, encode_hello(hello));

  WireFrame frame;
  if (!read_frame_fd(fd, &frame)) return false;
  if (frame.type == static_cast<std::uint32_t>(MsgType::kError)) {
    PUFFER_LOG_WARN(kTag, "coordinator refused attach: %s",
                    decode_error(frame.body).message.c_str());
    return false;
  }
  if (frame.type != static_cast<std::uint32_t>(MsgType::kHelloAck)) {
    send_error(fd, "expected hello_ack");
    return false;
  }
  const HelloAckMsg ack = decode_hello_ack(frame.body);
  if (ack.protocol_version != kOrchProtocolVersion) {
    send_error(fd, "protocol version mismatch");
    return false;
  }
  if (ack.design_key != dkey) {
    send_error(fd, "design mismatch: worker holds a different benchmark");
    return false;
  }

  if (!read_frame_fd(fd, &frame)) return false;
  if (frame.type != static_cast<std::uint32_t>(MsgType::kSnapshot)) {
    send_error(fd, "expected snapshot");
    return false;
  }
  // decode_snapshot verifies the frame's FNV; the key check on top
  // rejects a snapshot for a different design or prefix config -- a
  // worker must never fork trials from the wrong prefix.
  const FlowSnapshot snap = decode_snapshot(frame.body);
  if (snap.design_key != ack.design_key ||
      snap.prefix_key != ack.prefix_key) {
    send_error(fd, "snapshot key mismatch (design/prefix)");
    PUFFER_LOG_WARN(kTag,
                    "rejected snapshot: keys %016llx/%016llx != announced "
                    "%016llx/%016llx",
                    static_cast<unsigned long long>(snap.design_key),
                    static_cast<unsigned long long>(snap.prefix_key),
                    static_cast<unsigned long long>(ack.design_key),
                    static_cast<unsigned long long>(ack.prefix_key));
    return false;
  }

  // The coordinator's base strategy overrides our binary defaults, so
  // both sides apply candidate assignments onto identical bases.
  ExperimentConfig cfg = base;
  cfg.puffer = config_from_text(ack.base_config_text, base.puffer);
  // Snapshot in hand: only now may the coordinator assign trials.
  send_msg(fd, MsgType::kReady, std::string());

  PUFFER_LOG_INFO(kTag, "%s attached: design %016llx prefix %016llx",
                  worker_name.c_str(),
                  static_cast<unsigned long long>(ack.design_key),
                  static_cast<unsigned long long>(ack.prefix_key));

  // --- pull / evaluate / report loop -------------------------------------
  for (;;) {
    if (!read_frame_fd(fd, &frame)) return false;
    switch (static_cast<MsgType>(frame.type)) {
      case MsgType::kTrialAssign: {
        const TrialAssignMsg assign = decode_trial_assign(frame.body);
        const std::size_t want = puffer_param_specs().size();
        if (assign.assignment.size() != want) {
          send_error(fd, "assignment of trial " +
                             std::to_string(assign.trial_id) + " holds " +
                             std::to_string(assign.assignment.size()) +
                             " values, expected " + std::to_string(want));
          return false;
        }
        if (assignment_key(assign.assignment) != assign.akey) {
          send_error(fd, "assignment key mismatch on trial " +
                             std::to_string(assign.trial_id));
          return false;
        }
        PruneThresholds pruner({});
        const bool have_pruner = !assign.pruner_blob.empty();
        if (have_pruner) {
          pruner = decode_prune_thresholds(assign.pruner_blob);
        }
        TrialTask task;
        task.trial_id = assign.trial_id;
        task.assignment = assign.assignment;
        task.design = &design;
        task.base = &cfg;
        task.snapshot = &snap;
        task.pruner = have_pruner ? &pruner : nullptr;
        // One session per worker process: lease the whole local budget.
        task.lease_want = par::num_threads();
        const TrialResult r = run_trial_session(design, task);

        TrialResultMsg out;
        out.trial_id = r.trial_id;
        out.akey = assign.akey;
        out.loss = r.loss;
        out.pruned = r.pruned ? 1 : 0;
        out.prune_round = r.prune_round;
        out.checksum = r.checksum;
        out.rounds = r.rounds;
        out.wall_s = r.wall_s;
        send_msg(fd, MsgType::kTrialResult, encode_trial_result(out));
        break;
      }
      case MsgType::kShutdown:
        PUFFER_LOG_INFO(kTag, "%s: clean shutdown", worker_name.c_str());
        return true;
      case MsgType::kError:
        PUFFER_LOG_WARN(kTag, "coordinator error: %s",
                        decode_error(frame.body).message.c_str());
        return false;
      default:
        send_error(fd, "unexpected message type " +
                           std::to_string(frame.type));
        return false;
    }
  }
}

int run_worker(const Design& design, const ExperimentConfig& base,
               const WorkerConfig& config) {
  ignore_sigpipe();
  double retry_budget_s = config.connect_timeout_s;
  for (;;) {
    int fd = -1;
    try {
      fd = connect_socket_retry(config.connect, retry_budget_s);
    } catch (const CheckpointError& e) {
      PUFFER_LOG_WARN(kTag, "%s: %s", config.name.c_str(), e.what());
      return 1;
    }
    bool clean = false;
    try {
      clean = serve_coordinator(fd, design, base, config.name);
    } catch (const std::exception& e) {
      PUFFER_LOG_WARN(kTag, "%s: connection lost: %s", config.name.c_str(),
                      e.what());
    }
    ::close(fd);
    if (clean) return 0;
    if (config.reconnect_timeout_s <= 0.0) return 1;
    // Coordinator went away: keep trying to reattach.
    PUFFER_LOG_INFO(kTag, "%s: reconnecting to %s", config.name.c_str(),
                    config.connect.c_str());
    retry_budget_s = config.reconnect_timeout_s;
  }
}

}  // namespace puffer
