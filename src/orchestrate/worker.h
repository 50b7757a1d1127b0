// Trial-evaluation worker: the remote end of the coordinator/worker
// protocol (orchestrate/protocol.h).
//
// A worker owns a local copy of the exploration design (loaded from the
// same benchmark spec as the coordinator's; structure verified by
// design_structure_key in the handshake), attaches to a coordinator,
// receives the shared flow-prefix FlowSnapshot on every attach, then
// pulls trial assignments: each is evaluated with the exact in-process
// session code (run_trial_session) and its deterministic result fields
// -- loss bits, prune state, position checksum, per-rung trail -- are
// reported back. A worker never holds exploration state, not even the
// snapshot across attaches: killing it mid-trial only costs the
// in-flight evaluation, which the coordinator reassigns.
#pragma once

#include <string>

#include "core/experiment.h"

namespace puffer {

struct WorkerConfig {
  std::string connect;             // coordinator address (UDS path or host:port)
  std::string name = "worker";     // identity in logs and the handshake
  double connect_timeout_s = 60.0; // retry window for the initial connect
  // After a clean coordinator EOF (not kShutdown), retry the connect for
  // this long -- covers a coordinator restart (kill + resume); the new
  // coordinator ships its snapshot again. 0 = exit on the first EOF.
  double reconnect_timeout_s = 0.0;
};

// Serves one coordinator connection on `fd` (already connected): sends
// Hello, takes the HelloAck and the snapshot, then evaluates assignments
// until kShutdown or EOF. Returns true on a clean kShutdown, false when
// the coordinator went away (EOF / error). Closes nothing -- the caller
// owns `fd`. Throws CheckpointError on protocol violations it cannot
// report (e.g. a corrupted frame).
bool serve_coordinator(int fd, const Design& design,
                       const ExperimentConfig& base,
                       const std::string& worker_name);

// Connect-with-retry + serve loop. Returns 0 after a clean shutdown,
// 1 on connect timeout or a protocol error.
int run_worker(const Design& design, const ExperimentConfig& base,
               const WorkerConfig& config);

}  // namespace puffer
