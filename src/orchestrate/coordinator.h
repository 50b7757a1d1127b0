// Coordinator side of distributed trial orchestration.
//
// CoordinatorExecutor is a TrialExecutor (orchestrate/orchestrator.h)
// that farms each statistical batch out to worker processes connected
// over the binary wire protocol (orchestrate/protocol.h) instead of
// in-process runner threads. The deterministic exploration loop --
// candidate suggestion, journal, candidate-order fold -- stays inside
// TrialOrchestrator, so a distributed run is bit-identical to the
// in-process scheduler for any worker count: the executor only decides
// *where* a trial evaluates, and workers run the identical session code
// on a structure-verified copy of the design.
//
// Fault model: a worker that dies or disconnects mid-trial shows up as a
// closed connection; its in-flight trial returns to the pending queue and
// is reassigned to a surviving (or newly attached) worker. Workers may
// attach at any time, including mid-batch. If every worker is gone and
// none attaches within `attach_timeout_s`, the executor runs the
// remaining trials in-process. The sockets run on io/net.h FrameServer,
// like pufferd's: no read or write waits on a peer, and a worker counts
// as attached only once it reports kReady with the prefix snapshot in
// hand, so a peer that stays silent, stalls mid-frame, or never reads its
// snapshot holds up nothing. Coordinator death is the journal's job,
// exactly as for the in-process scheduler: resume replays completed
// trials (scripts/kill_resume_smoke).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "io/net.h"
#include "orchestrate/orchestrator.h"
#include "orchestrate/protocol.h"

namespace puffer {

struct CoordinatorConfig {
  // Listen address: a Unix-domain socket path (contains '/') or
  // "host:port" / ":port" for TCP.
  std::string listen;
  // Block until this many workers have attached before the first batch.
  int min_workers = 1;
  // How long to wait for the first min_workers, and for a replacement
  // when every worker died mid-run, before evaluating the remaining
  // trials in this process.
  double attach_timeout_s = 120.0;
};

// Throws std::invalid_argument on an empty listen address or
// non-positive min_workers / attach_timeout_s.
CoordinatorConfig validate_coordinator_config(CoordinatorConfig config);

class CoordinatorExecutor : public TrialExecutor {
 public:
  // Binds + listens immediately, so workers can attach while the
  // coordinator still computes the shared prefix.
  explicit CoordinatorExecutor(CoordinatorConfig config);
  ~CoordinatorExecutor() override;
  CoordinatorExecutor(const CoordinatorExecutor&) = delete;
  CoordinatorExecutor& operator=(const CoordinatorExecutor&) = delete;

  // Waits until min_workers workers have attached: handshake done,
  // snapshot shipped, kReady received.
  void prepare(const TrialRunContext& ctx) override;
  void run_batch(const std::vector<TrialTask>& tasks,
                 const std::vector<int>& to_run,
                 std::vector<TrialResult>* results) override;
  // Peak number of simultaneously attached workers (>= 1): the
  // utilization denominator.
  int slots() const override;

  // Sends kShutdown to every attached worker and closes the workers'
  // connections; called by the destructor, exposed for a graceful early
  // stop.
  void shutdown_workers();

  int workers_attached() const;  // currently attached (kReady received)
  // Trials that died with a worker and were reassigned.
  int trials_reassigned() const { return trials_reassigned_; }
  // Trials evaluated in this process because no worker was left.
  int trials_in_process() const { return trials_in_process_; }

 private:
  using ConnId = FrameServer::ConnId;
  struct Worker {
    std::string name;
    bool ready = false;  // kReady received: may take trials
    int task = -1;  // index into the current batch's tasks, -1 = idle
  };

  // FrameServer handlers. on_frame throws CheckpointError to drop the
  // connection, which then reaches on_close.
  void on_frame(ConnId id, const WireFrame& frame);
  void on_close(ConnId id, const std::string& why);
  void handshake(ConnId id, const WireFrame& frame);
  void take_result(Worker& w, const WireFrame& frame);
  void send(ConnId id, MsgType type, const std::string& body);

  CoordinatorConfig config_;
  FrameServer frames_;
  // What every attach is answered with, built once by prepare().
  std::uint64_t design_key_ = 0;  // the snapshot's design
  std::string hello_ack_;         // encoded HelloAck
  std::string snapshot_bytes_;    // encode_snapshot(*ctx.snapshot)
  // Connections that sent a valid Hello, attached or not yet ready.
  std::map<ConnId, Worker> workers_;
  // The batch run_batch() is working on (null between batches).
  const std::vector<TrialTask>* tasks_ = nullptr;
  std::vector<TrialResult>* results_ = nullptr;
  std::deque<int> pending_;  // trial indices not assigned to a worker
  std::size_t remaining_ = 0;  // trials of the batch without a result
  Timer since_lost_;  // since the last attached worker was lost
  int peak_workers_ = 0;
  int trials_reassigned_ = 0;
  int trials_in_process_ = 0;
};

// Convenience wrapper: run a full distributed exploration. Identical
// output to TrialOrchestrator::run() with the same OrchestratorConfig.
OrchestrationResult run_distributed_orchestration(
    Design& design, std::vector<ParamSpec> specs, ExperimentConfig base,
    OrchestratorConfig orch, CoordinatorConfig coord);

}  // namespace puffer
