// Append-only request log for the serve daemon (pufferd).
//
// Same crash-safety idiom as the trial journal (orchestrate/
// trial_journal.h), on the same io/append_log.h storage and record
// format: one flat JSONL record per line, fsync per append, a tolerant
// loader that drops at most one torn final line, which reopening cuts
// off. Together with
// the spool directory -- which keeps every session's raw submit body and
// final result blob as atomically-written files -- the log makes the
// daemon restartable: replaying it reconstructs each session's last
// known state, finished sessions reload their results from the spool,
// and sessions that were queued or running at the crash are re-admitted
// (the deterministic flow re-runs them to bit-identical results).
//
// Record schema:
//   {"type":"header","version":1}
//   {"type":"submit","sid":N,"job":"job_N.bin","name":"..."}
//   {"type":"start","sid":N}
//   {"type":"cancel","sid":N}
//   {"type":"finish","sid":N,"state":S,"checksum":"..hex..",
//    "hpwl_bits":"..hex..","runtime_bits":"..hex..","rounds":R,
//    "result":"result_N.bin","msg":"..."}
//
// state is the numeric SessionState; checksum/hpwl/runtime are IEEE-754
// / integer bit patterns in hex so a recovered summary is bit-identical
// to the one streamed before the restart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/append_log.h"
#include "serve/serve_protocol.h"

namespace puffer {

struct RequestLogRecord {
  enum class Type {
    kHeader,
    kSubmit,
    kStart,
    kCancel,
    kFinish,
  };
  Type type = Type::kHeader;

  std::uint64_t session_id = 0;
  std::string job_file;     // submit: spool file holding the raw body
  std::string job_name;     // submit: client label
  std::uint8_t state = 0;   // finish: terminal SessionState
  std::uint64_t checksum = 0;
  double hpwl_legal = 0.0;
  double runtime_s = 0.0;
  int rounds = 0;
  std::string result_file;  // finish: spool file holding the ResultMsg body
  std::string message;      // finish: failure reason
};

class RequestLog {
 public:
  // Opens `path` for appending (created when missing; a torn tail is cut
  // off first, and a log without records gets a header record). Throws
  // CheckpointError when it cannot be opened.
  explicit RequestLog(const std::string& path);

  // Serializes, appends one line, flushes and fsyncs.
  void append(const RequestLogRecord& rec);

  const std::string& path() const { return log_.path(); }

  // One-record codec (exposed for tests).
  static std::string encode(const RequestLogRecord& rec);
  // Returns false for a malformed/torn line (never throws).
  static bool decode(const std::string& line, RequestLogRecord* out);

  // Tolerant loader: records up to the first malformed line; a missing
  // file yields an empty vector.
  static std::vector<RequestLogRecord> load(const std::string& path);

 private:
  AppendLog log_;
};

// A session's state as reconstructed from a log replay.
struct RecoveredSession {
  std::uint64_t session_id = 0;
  std::string job_file;
  std::string job_name;
  bool started = false;
  bool cancelled = false;
  bool finished = false;
  // Valid when finished:
  SessionSummary summary;
  std::string result_file;
};

// Folds a loaded log into per-session recovery state, in first-submit
// order. Records referencing a session id with no submit record are
// ignored (they can only come from a torn log).
std::vector<RecoveredSession> replay_request_log(
    const std::vector<RequestLogRecord>& records);

}  // namespace puffer
