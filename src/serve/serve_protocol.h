// Client/daemon wire protocol for placement-as-a-service (pufferd).
//
// Messages ride the same PUFM length-prefixed frames as the
// coordinator/worker protocol (io/checkpoint.h: write_frame_fd /
// FrameBuffer) over a Unix-domain or TCP socket, with bodies encoded by
// BinaryWriter/Reader -- every double crosses the wire as its IEEE-754
// bit pattern, so a placement fetched from the daemon is bit-identical
// to one produced in process.
//
// Lifecycle (see docs/architecture.md for the full table):
//
//   client                            pufferd
//   ------                            -------
//   ClientHello                 --->
//                               <---  ServerHello
//   Submit(design, config)      --->
//                               <---  SubmitAck(session_id, queued)
//                                     ... or Rejected(reason)  [backpressure]
//   Subscribe(session_id)       --->
//                               <---  Snapshot(state, round history)
//                               <---  Telemetry(round delta)    [per round]
//                               <---  ...
//                               <---  Done(final summary)
//   Fetch(session_id)           --->
//                               <---  Result(positions, checksum)
//
// Detach/Cancel/Query may be sent at any time; Telemetry frames already
// queued when a Detach arrives are delivered before the DetachAck, so a
// client can treat the ack as a stream barrier. Sessions are addressed
// by id and survive the submitting connection: a client may disconnect
// and re-attach from a new connection.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/checkpoint.h"

namespace puffer {

// Protocol (message-schema) version, checked in the hello exchange on
// top of the per-frame wire version.
constexpr std::uint32_t kServeProtocolVersion = 3;

enum class ServeMsgType : std::uint32_t {
  // client -> daemon
  kClientHello = 1,
  kSubmit = 2,
  kSubscribe = 3,
  kDetach = 4,
  kCancel = 5,
  kFetch = 6,
  kQuery = 7,
  // daemon -> client
  kServerHello = 32,
  kSubmitAck = 33,
  kRejected = 34,
  kSnapshot = 35,
  kTelemetry = 36,
  kDone = 37,
  kResult = 38,
  kStatus = 39,
  kDetachAck = 40,
  kError = 41,
};

// Session lifecycle: kQueued -> kRunning -> {kDone, kCancelled, kFailed}.
// (A cancel of a still-queued session goes straight to kCancelled.)
enum class SessionState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kCancelled = 3,
  kFailed = 4,
};

inline bool session_terminal(SessionState s) {
  return s == SessionState::kDone || s == SessionState::kCancelled ||
         s == SessionState::kFailed;
}

const char* session_state_name(SessionState s);

// Admission-control rejection reasons (explicit backpressure: a client
// submitting past capacity always gets one of these, never a hang or a
// silent drop).
enum class RejectReason : std::uint8_t {
  kQueueFull = 1,    // bounded admission queue at capacity
  kPerConnCap = 2,   // this connection's in-flight cap reached
  kDraining = 3,     // daemon is draining (SIGTERM); finish, don't accept
  kBadRequest = 4,   // malformed job (undecodable design, bad config)
};

const char* reject_reason_name(RejectReason r);

struct ClientHelloMsg {
  std::uint32_t protocol_version = kServeProtocolVersion;
  std::string client_name;
};

struct ServerHelloMsg {
  std::uint32_t protocol_version = kServeProtocolVersion;
  std::string daemon_name;
};

struct SubmitMsg {
  std::string job_name;     // client-side label (logs only)
  std::string design_blob;  // io/design_codec.h encode_design bytes
  // Strategy overrides applied onto the daemon's base config
  // (core/config_io.h text form; empty = daemon defaults).
  std::string config_text;
};

struct SubmitAckMsg {
  std::uint64_t session_id = 0;
  std::uint8_t state = 0;        // SessionState at admission
  std::int32_t queue_depth = 0;  // sessions ahead of this one
};

struct RejectedMsg {
  std::uint8_t reason = 0;  // RejectReason
  std::string message;
};

// Subscribe / Detach / Cancel / Fetch / Query all carry just the id.
// Query with id 0 asks for daemon-wide stats.
struct SessionRefMsg {
  std::uint64_t session_id = 0;
};

// One padding round's telemetry: cumulative values plus deltas against
// the previous round, and a downsampled congestion-heatmap tile.
struct TelemetryRound {
  std::int32_t round = -1;
  double est_overflow_pct = 0.0;  // estimated total overflow after round
  double hpwl = 0.0;              // GP HPWL after the round's estimate
  double overflow_delta = 0.0;    // vs previous round (round 0: vs 0)
  double hpwl_delta = 0.0;
  // Row-major max-pooled congestion tile; one byte per tile cell:
  // 128 = demand equals capacity, 64 per unit of signed congestion
  // (see serve/telemetry.h).
  std::int32_t tile_nx = 0;
  std::int32_t tile_ny = 0;
  std::string tile;
};

// Terminal summary of a session (valid once state is terminal).
struct SessionSummary {
  std::uint8_t state = 0;  // SessionState
  std::uint64_t checksum = 0;  // position_checksum of the final placement
  double hpwl_legal = 0.0;
  double runtime_s = 0.0;
  std::int32_t padding_rounds = 0;
  std::string message;  // failure reason for kFailed
};

// Snapshot-on-subscribe: the full cumulative round history so far, plus
// the terminal summary when the session already finished.
struct SnapshotMsg {
  std::uint64_t session_id = 0;
  std::uint8_t state = 0;  // SessionState at snapshot time
  std::vector<TelemetryRound> history;
  std::uint8_t has_summary = 0;
  SessionSummary summary;
};

struct TelemetryMsg {
  std::uint64_t session_id = 0;
  TelemetryRound round;
};

struct DoneMsg {
  std::uint64_t session_id = 0;
  SessionSummary summary;
};

struct ResultMsg {
  std::uint64_t session_id = 0;
  std::uint64_t checksum = 0;
  double hpwl_legal = 0.0;
  // Final lower-left positions, index-aligned with the submitted
  // design's cells (fixed cells included).
  std::vector<double> x, y;
};

struct StatusMsg {
  // Daemon-wide counters.
  std::int32_t queued = 0;
  std::int32_t running = 0;
  std::int32_t done = 0;
  std::int32_t cancelled = 0;
  std::int32_t failed = 0;
  std::int32_t max_running = 0;
  std::int32_t max_queued = 0;
  std::uint8_t draining = 0;
  // Session-specific part (present when the query named a session).
  std::uint8_t has_session = 0;
  std::uint64_t session_id = 0;
  std::uint8_t session_state = 0;  // SessionState
  std::int32_t session_rounds = 0;
};

struct ServeErrorMsg {
  std::string message;
};

// Body codecs, each pair generated from the message's one field walk in
// serve_protocol.cpp (io/checkpoint.h field interface). decode_* throw
// CheckpointError on malformed input (truncation, trailing bytes,
// out-of-range enums, a tile or x/y size mismatch).
std::string encode_client_hello(const ClientHelloMsg& m);
ClientHelloMsg decode_client_hello(const std::string& body);
std::string encode_server_hello(const ServerHelloMsg& m);
ServerHelloMsg decode_server_hello(const std::string& body);
std::string encode_submit(const SubmitMsg& m);
SubmitMsg decode_submit(const std::string& body);
std::string encode_submit_ack(const SubmitAckMsg& m);
SubmitAckMsg decode_submit_ack(const std::string& body);
std::string encode_rejected(const RejectedMsg& m);
RejectedMsg decode_rejected(const std::string& body);
std::string encode_session_ref(const SessionRefMsg& m);
SessionRefMsg decode_session_ref(const std::string& body);
std::string encode_snapshot_msg(const SnapshotMsg& m);
SnapshotMsg decode_snapshot_msg(const std::string& body);
std::string encode_telemetry(const TelemetryMsg& m);
TelemetryMsg decode_telemetry(const std::string& body);
std::string encode_done(const DoneMsg& m);
DoneMsg decode_done(const std::string& body);
std::string encode_result(const ResultMsg& m);
ResultMsg decode_result(const std::string& body);
std::string encode_status(const StatusMsg& m);
StatusMsg decode_status(const std::string& body);
std::string encode_serve_error(const ServeErrorMsg& m);
ServeErrorMsg decode_serve_error(const std::string& body);

// Typed frame send over the blocking stream layer (client side; the
// daemon queues frames on its non-blocking connections instead).
void send_serve_msg(int fd, ServeMsgType type, const std::string& body);

}  // namespace puffer
