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
// Fault model: a worker that dies or disconnects mid-trial is detected
// by EOF/write failure; its in-flight trial returns to the pending queue
// and is reassigned to a surviving (or newly attached) worker. Workers
// may attach at any time, including mid-batch. If every worker is gone
// and none attaches within `attach_timeout_s`, the executor runs the
// remaining trials in-process. Sockets are read without blocking, like
// pufferd's connections: an accepted connection joins the poll set and
// its handshake runs once a whole Hello has arrived, so a peer that
// connects and stays silent, or stalls mid-frame, holds up nothing.
// Writes still block. Coordinator death is the journal's job, exactly as
// for the in-process scheduler: resume replays completed trials
// (scripts/kill_resume_smoke).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "orchestrate/orchestrator.h"

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

  // Waits for min_workers attaches and completes their handshakes
  // (snapshot shipped unless cached).
  void prepare(const TrialRunContext& ctx) override;
  void run_batch(const std::vector<TrialTask>& tasks,
                 const std::vector<int>& to_run,
                 std::vector<TrialResult>* results) override;
  // Peak number of simultaneously attached workers (>= 1): the
  // utilization denominator.
  int slots() const override;

  // Sends kShutdown to every attached worker and closes the sockets;
  // called by the destructor, exposed for a graceful early stop.
  void shutdown_workers();

  int workers_attached() const;  // currently attached (handshake done)
  // Trials that died with a worker and were reassigned.
  int trials_reassigned() const { return trials_reassigned_; }
  // Trials evaluated in this process because no worker was left.
  int trials_in_process() const { return trials_in_process_; }

 private:
  struct Worker;
  // Handles one frame from an attached worker; throws CheckpointError to
  // drop it.
  using FrameFn = std::function<void(Worker&, const WireFrame&)>;

  // Waits up to one poll interval, then reads every ready connection
  // without blocking, runs the handshake of each whose Hello has
  // arrived, passes attached workers' frames to `on_frame`, and accepts
  // a new connection. Drops a connection that closes, fails, sends a bad
  // frame or has a frame rejected; a dropped worker's trial index goes to
  // `orphans`. Returns the number of attached workers dropped.
  int pump(const FrameFn& on_frame, std::vector<int>* orphans);
  void handshake(Worker& w, const WireFrame& frame);
  void drop_worker(std::size_t w, const std::string& why);

  CoordinatorConfig config_;
  int listen_fd_ = -1;
  TrialRunContext ctx_;
  std::string snapshot_bytes_;      // encode_snapshot(ctx.snapshot), cached
  std::string base_config_text_;
  // Accepted connections, attached or still waiting for their Hello.
  std::vector<Worker> workers_;
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
