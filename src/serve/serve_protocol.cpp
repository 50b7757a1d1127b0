#include "serve/serve_protocol.h"

namespace puffer {

// --- field walks: the one layout of each message body ---------------------

namespace {

// A SessionState byte.
template <class IO, class S>
void session_state(IO& io, S& state) {
  io.u8(state);
  io.check(state <= static_cast<std::uint8_t>(SessionState::kFailed),
           "invalid session state");
}

}  // namespace

template <class IO, FieldsOf<TelemetryRound> M>
void fields(IO& io, M& t) {
  io.i32(t.round);
  io.f64(t.est_overflow_pct);
  io.f64(t.hpwl);
  io.f64(t.overflow_delta);
  io.f64(t.hpwl_delta);
  io.i32(t.tile_nx);
  io.i32(t.tile_ny);
  io.str(t.tile);
  io.check(t.tile_nx >= 0 && t.tile_ny >= 0 &&
               t.tile.size() == static_cast<std::size_t>(t.tile_nx) *
                                    static_cast<std::size_t>(t.tile_ny),
           "telemetry tile size mismatch");
}

template <class IO, FieldsOf<SessionSummary> M>
void fields(IO& io, M& s) {
  session_state(io, s.state);
  io.u64(s.checksum);
  io.f64(s.hpwl_legal);
  io.f64(s.runtime_s);
  io.i32(s.padding_rounds);
  io.str(s.message);
}

template <class IO, FieldsOf<ClientHelloMsg> M>
void fields(IO& io, M& m) {
  io.u32(m.protocol_version);
  io.str(m.client_name);
}

template <class IO, FieldsOf<ServerHelloMsg> M>
void fields(IO& io, M& m) {
  io.u32(m.protocol_version);
  io.str(m.daemon_name);
}

template <class IO, FieldsOf<SubmitMsg> M>
void fields(IO& io, M& m) {
  io.str(m.job_name);
  io.str(m.design_blob);
  io.str(m.config_text);
}

template <class IO, FieldsOf<SubmitAckMsg> M>
void fields(IO& io, M& m) {
  io.u64(m.session_id);
  session_state(io, m.state);
  io.i32(m.queue_depth);
}

template <class IO, FieldsOf<RejectedMsg> M>
void fields(IO& io, M& m) {
  io.u8(m.reason);
  io.check(m.reason >= static_cast<std::uint8_t>(RejectReason::kQueueFull) &&
               m.reason <= static_cast<std::uint8_t>(RejectReason::kBadRequest),
           "invalid reject reason");
  io.str(m.message);
}

template <class IO, FieldsOf<SessionRefMsg> M>
void fields(IO& io, M& m) {
  io.u64(m.session_id);
}

template <class IO, FieldsOf<SnapshotMsg> M>
void fields(IO& io, M& m) {
  io.u64(m.session_id);
  session_state(io, m.state);
  io.list(m.history);
  io.u8(m.has_summary);
  if (m.has_summary) fields(io, m.summary);
}

template <class IO, FieldsOf<TelemetryMsg> M>
void fields(IO& io, M& m) {
  io.u64(m.session_id);
  fields(io, m.round);
}

template <class IO, FieldsOf<DoneMsg> M>
void fields(IO& io, M& m) {
  io.u64(m.session_id);
  fields(io, m.summary);
}

template <class IO, FieldsOf<ResultMsg> M>
void fields(IO& io, M& m) {
  io.u64(m.session_id);
  io.u64(m.checksum);
  io.f64(m.hpwl_legal);
  io.f64s(m.x);
  io.f64s(m.y);
  io.check(m.x.size() == m.y.size(), "result position vectors disagree");
}

template <class IO, FieldsOf<StatusMsg> M>
void fields(IO& io, M& m) {
  io.i32(m.queued);
  io.i32(m.running);
  io.i32(m.done);
  io.i32(m.cancelled);
  io.i32(m.failed);
  io.i32(m.max_running);
  io.i32(m.max_queued);
  io.u8(m.draining);
  io.u8(m.has_session);
  if (m.has_session) {
    io.u64(m.session_id);
    session_state(io, m.session_state);
    io.i32(m.session_rounds);
  }
}

template <class IO, FieldsOf<ServeErrorMsg> M>
void fields(IO& io, M& m) {
  io.str(m.message);
}

PUFFER_FIELD_CODEC(ClientHelloMsg, client_hello)
PUFFER_FIELD_CODEC(ServerHelloMsg, server_hello)
PUFFER_FIELD_CODEC(SubmitMsg, submit)
PUFFER_FIELD_CODEC(SubmitAckMsg, submit_ack)
PUFFER_FIELD_CODEC(RejectedMsg, rejected)
PUFFER_FIELD_CODEC(SessionRefMsg, session_ref)
PUFFER_FIELD_CODEC(SnapshotMsg, snapshot_msg)
PUFFER_FIELD_CODEC(TelemetryMsg, telemetry)
PUFFER_FIELD_CODEC(DoneMsg, done)
PUFFER_FIELD_CODEC(ResultMsg, result)
PUFFER_FIELD_CODEC(StatusMsg, status)
PUFFER_FIELD_CODEC(ServeErrorMsg, serve_error)

const char* session_state_name(SessionState s) {
  switch (s) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kFailed:
      return "failed";
  }
  return "?";
}

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kPerConnCap:
      return "per-connection-cap";
    case RejectReason::kDraining:
      return "draining";
    case RejectReason::kBadRequest:
      return "bad-request";
  }
  return "?";
}

void send_serve_msg(int fd, ServeMsgType type, const std::string& body) {
  write_frame_fd(fd, static_cast<std::uint32_t>(type), body);
}

}  // namespace puffer
