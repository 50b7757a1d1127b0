// Managed placement sessions for the serve daemon.
//
// The ServeSessionManager owns the session table, the bounded admission
// queue and the runner threads. Threading contract: every public method
// is called from the daemon's poll thread only; runner threads touch
// nothing but their own session's cancel flag, the spool/request log
// (mutex-guarded) and the event queue. Runner results re-enter the poll
// thread through drain_events() -- the poll loop applies each event
// (apply()) and forwards the corresponding frames to subscribers, so
// session state and round history are only ever mutated single-threaded.
//
// Determinism: each session runs the standard PufferFlow on a private
// Design copy under a par::WorkerLease of num_threads()/max_running
// workers. The bit-identity contract of the
// kernels therefore extends to the daemon: a job submitted over the
// wire yields the same position_checksum as PufferFlow::run() on the
// same design + config in-process, regardless of what else the daemon
// is running. A flow whose legalized placement fails check_legality()
// ends its session kFailed, with the legality summary as the message,
// and spools no result.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.h"
#include "serve/request_log.h"
#include "serve/serve_protocol.h"

namespace puffer {

struct ServeConfig {
  // Spool directory: request log, raw job bodies, result blobs. Created
  // when missing; an existing log is replayed (session recovery).
  std::string spool_dir = "pufferd_spool";
  std::string daemon_name = "pufferd";
  int max_running = 1;       // concurrent running sessions
  int max_queued = 4;        // bounded admission queue (excludes running)
  int per_conn_inflight = 2; // non-terminal sessions per connection
  PufferConfig base_config;  // submit config_text overrides apply on top
};

// Validates ranges; throws std::invalid_argument on nonsense.
ServeConfig validate_serve_config(ServeConfig config);

// What a runner thread reports back to the poll thread.
struct SessionEvent {
  enum class Kind { kTelemetry, kFinished };
  Kind kind = Kind::kTelemetry;
  std::uint64_t session_id = 0;
  TelemetryRound round;     // kTelemetry
  SessionSummary summary;   // kFinished
};

// Poll-thread view of one session.
struct ServeSession {
  std::uint64_t id = 0;
  std::string job_name;
  SessionState state = SessionState::kQueued;
  std::vector<TelemetryRound> history;
  SessionSummary summary;  // valid once state is terminal
};

class ServeSessionManager {
 public:
  // `wake` is invoked (from runner threads) whenever an event is queued;
  // the daemon uses it to interrupt poll(). Replays an existing request
  // log: finished sessions are restored, unfinished ones re-admitted.
  ServeSessionManager(ServeConfig config, std::function<void()> wake);
  ~ServeSessionManager();
  ServeSessionManager(const ServeSessionManager&) = delete;
  ServeSessionManager& operator=(const ServeSessionManager&) = delete;

  const ServeConfig& config() const { return config_; }

  struct AdmitResult {
    bool accepted = false;
    // accepted:
    std::uint64_t session_id = 0;
    SessionState state = SessionState::kQueued;
    std::int32_t queue_depth = 0;
    // rejected:
    RejectReason reason = RejectReason::kBadRequest;
    std::string message;
  };

  // Admission control. Rejects (never blocks, never drops) when the
  // daemon is draining, the queue is full, or the submit body is
  // malformed (undecodable message or design).
  // On acceptance the job is spooled + logged, then pump() starts it
  // when a runner slot frees up.
  AdmitResult submit(const std::string& raw_submit_body);

  // Cancel: queued sessions finalize immediately; running sessions get
  // their cancel flag set and finalize at the next padding-round
  // boundary (a flow past its padding rounds finishes as kDone -- the
  // result is valid either way). Returns false for an unknown id.
  bool cancel(std::uint64_t session_id);

  // Starts queued sessions while runner slots are free. Call after
  // submit / apply / set_draining.
  void pump();

  // Moves all pending runner events out (poll thread takes ownership).
  std::vector<SessionEvent> drain_events();

  // Applies one drained event to the session table (appends history or
  // finalizes + joins the runner). Returns the session, or nullptr for
  // a stale id.
  const ServeSession* apply(const SessionEvent& event);

  // nullptr when the id is unknown.
  const ServeSession* find(std::uint64_t session_id) const;

  // Snapshot-on-subscribe payload: current state + full round history
  // (+ summary when terminal).
  SnapshotMsg snapshot(std::uint64_t session_id) const;

  // Encoded ResultMsg body of a kDone session, read from its spooled
  // result file on every call (the daemon keeps no result in memory).
  // False when the session is unknown, not done, or the file unreadable.
  bool result_body(std::uint64_t session_id, std::string* out) const;

  // Daemon-wide counters (+ the named session when session_id != 0).
  StatusMsg status(std::uint64_t session_id) const;

  // Drain mode: stop admitting, finish what's running.
  void set_draining() { draining_ = true; }
  bool draining() const { return draining_; }
  // True when nothing is queued or running (drain complete).
  bool idle() const;

 private:
  struct Impl;  // per-session runner state (cancel flag, thread, body)

  std::uint64_t next_id_ = 1;
  void admit_recovered(const RecoveredSession& rec);
  void run_session(Impl* impl);  // runner-thread body
  void push_event(SessionEvent event);
  std::string spool_path(const std::string& file) const;

  ServeConfig config_;
  std::function<void()> wake_;
  std::unique_ptr<RequestLog> log_;
  std::mutex log_mu_;  // request log + spool writes (runner + poll thread)

  std::map<std::uint64_t, std::unique_ptr<Impl>> sessions_;
  std::deque<std::uint64_t> queue_;
  int running_ = 0;
  bool draining_ = false;
  int lease_want_ = 1;

  std::mutex ev_mu_;
  std::deque<SessionEvent> events_;
};

}  // namespace puffer
