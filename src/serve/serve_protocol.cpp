#include "serve/serve_protocol.h"

namespace puffer {

namespace {

// Every decoder consumes the whole body; trailing bytes mean a codec
// mismatch and are rejected rather than silently ignored.
void finish_decode(const BinaryReader& r, const char* what) {
  if (!r.at_end()) {
    throw CheckpointError(std::string("serve: trailing bytes after ") + what);
  }
}

void check_count(std::uint64_t n, std::size_t remaining, std::size_t min_size,
                 const char* what) {
  if (min_size > 0 && n > remaining / min_size) {
    throw CheckpointError(std::string("serve: ") + what +
                          " count exceeds buffer");
  }
}

std::uint8_t get_session_state(BinaryReader& r) {
  const std::uint8_t s = r.get_u8();
  if (s > static_cast<std::uint8_t>(SessionState::kFailed)) {
    throw CheckpointError("serve: invalid session state");
  }
  return s;
}

void put_round(BinaryWriter& w, const TelemetryRound& t) {
  w.put_i32(t.round);
  w.put_f64(t.est_overflow_pct);
  w.put_f64(t.hpwl);
  w.put_f64(t.overflow_delta);
  w.put_f64(t.hpwl_delta);
  w.put_i32(t.tile_nx);
  w.put_i32(t.tile_ny);
  w.put_string(t.tile);
}

TelemetryRound get_round(BinaryReader& r) {
  TelemetryRound t;
  t.round = r.get_i32();
  t.est_overflow_pct = r.get_f64();
  t.hpwl = r.get_f64();
  t.overflow_delta = r.get_f64();
  t.hpwl_delta = r.get_f64();
  t.tile_nx = r.get_i32();
  t.tile_ny = r.get_i32();
  t.tile = r.get_string();
  if (t.tile_nx < 0 || t.tile_ny < 0 ||
      t.tile.size() != static_cast<std::size_t>(t.tile_nx) *
                           static_cast<std::size_t>(t.tile_ny)) {
    throw CheckpointError("serve: telemetry tile size mismatch");
  }
  return t;
}

void put_summary(BinaryWriter& w, const SessionSummary& s) {
  w.put_u8(s.state);
  w.put_u64(s.checksum);
  w.put_f64(s.hpwl_legal);
  w.put_f64(s.runtime_s);
  w.put_i32(s.padding_rounds);
  w.put_string(s.message);
}

SessionSummary get_summary(BinaryReader& r) {
  SessionSummary s;
  s.state = get_session_state(r);
  s.checksum = r.get_u64();
  s.hpwl_legal = r.get_f64();
  s.runtime_s = r.get_f64();
  s.padding_rounds = r.get_i32();
  s.message = r.get_string();
  return s;
}

}  // namespace

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

std::string encode_client_hello(const ClientHelloMsg& m) {
  BinaryWriter w;
  w.put_u32(m.protocol_version);
  w.put_string(m.client_name);
  return w.take();
}

ClientHelloMsg decode_client_hello(const std::string& body) {
  BinaryReader r(body);
  ClientHelloMsg m;
  m.protocol_version = r.get_u32();
  m.client_name = r.get_string();
  finish_decode(r, "client hello");
  return m;
}

std::string encode_server_hello(const ServerHelloMsg& m) {
  BinaryWriter w;
  w.put_u32(m.protocol_version);
  w.put_string(m.daemon_name);
  return w.take();
}

ServerHelloMsg decode_server_hello(const std::string& body) {
  BinaryReader r(body);
  ServerHelloMsg m;
  m.protocol_version = r.get_u32();
  m.daemon_name = r.get_string();
  finish_decode(r, "server hello");
  return m;
}

std::string encode_submit(const SubmitMsg& m) {
  BinaryWriter w;
  w.put_string(m.job_name);
  w.put_string(m.design_blob);
  w.put_string(m.config_text);
  return w.take();
}

SubmitMsg decode_submit(const std::string& body) {
  BinaryReader r(body);
  SubmitMsg m;
  m.job_name = r.get_string();
  m.design_blob = r.get_string();
  m.config_text = r.get_string();
  finish_decode(r, "submit");
  return m;
}

std::string encode_submit_ack(const SubmitAckMsg& m) {
  BinaryWriter w;
  w.put_u64(m.session_id);
  w.put_u8(m.state);
  w.put_i32(m.queue_depth);
  return w.take();
}

SubmitAckMsg decode_submit_ack(const std::string& body) {
  BinaryReader r(body);
  SubmitAckMsg m;
  m.session_id = r.get_u64();
  m.state = get_session_state(r);
  m.queue_depth = r.get_i32();
  finish_decode(r, "submit ack");
  return m;
}

std::string encode_rejected(const RejectedMsg& m) {
  BinaryWriter w;
  w.put_u8(m.reason);
  w.put_string(m.message);
  return w.take();
}

RejectedMsg decode_rejected(const std::string& body) {
  BinaryReader r(body);
  RejectedMsg m;
  m.reason = r.get_u8();
  if (m.reason < static_cast<std::uint8_t>(RejectReason::kQueueFull) ||
      m.reason > static_cast<std::uint8_t>(RejectReason::kBadRequest)) {
    throw CheckpointError("serve: invalid reject reason");
  }
  m.message = r.get_string();
  finish_decode(r, "rejected");
  return m;
}

std::string encode_session_ref(const SessionRefMsg& m) {
  BinaryWriter w;
  w.put_u64(m.session_id);
  return w.take();
}

SessionRefMsg decode_session_ref(const std::string& body) {
  BinaryReader r(body);
  SessionRefMsg m;
  m.session_id = r.get_u64();
  finish_decode(r, "session ref");
  return m;
}

std::string encode_snapshot_msg(const SnapshotMsg& m) {
  BinaryWriter w;
  w.put_u64(m.session_id);
  w.put_u8(m.state);
  w.put_u64(m.history.size());
  for (const TelemetryRound& t : m.history) {
    put_round(w, t);
  }
  w.put_u8(m.has_summary);
  if (m.has_summary) {
    put_summary(w, m.summary);
  }
  return w.take();
}

SnapshotMsg decode_snapshot_msg(const std::string& body) {
  BinaryReader r(body);
  SnapshotMsg m;
  m.session_id = r.get_u64();
  m.state = get_session_state(r);
  const std::uint64_t nrounds = r.get_u64();
  check_count(nrounds, r.remaining(), 4 + 4 * 8 + 4 + 4 + 8, "snapshot round");
  m.history.resize(static_cast<std::size_t>(nrounds));
  for (TelemetryRound& t : m.history) {
    t = get_round(r);
  }
  m.has_summary = r.get_u8();
  if (m.has_summary) {
    m.summary = get_summary(r);
  }
  finish_decode(r, "snapshot");
  return m;
}

std::string encode_telemetry(const TelemetryMsg& m) {
  BinaryWriter w;
  w.put_u64(m.session_id);
  put_round(w, m.round);
  return w.take();
}

TelemetryMsg decode_telemetry(const std::string& body) {
  BinaryReader r(body);
  TelemetryMsg m;
  m.session_id = r.get_u64();
  m.round = get_round(r);
  finish_decode(r, "telemetry");
  return m;
}

std::string encode_done(const DoneMsg& m) {
  BinaryWriter w;
  w.put_u64(m.session_id);
  put_summary(w, m.summary);
  return w.take();
}

DoneMsg decode_done(const std::string& body) {
  BinaryReader r(body);
  DoneMsg m;
  m.session_id = r.get_u64();
  m.summary = get_summary(r);
  finish_decode(r, "done");
  return m;
}

std::string encode_result(const ResultMsg& m) {
  BinaryWriter w;
  w.put_u64(m.session_id);
  w.put_u64(m.checksum);
  w.put_f64(m.hpwl_legal);
  w.put_f64_vec(m.x);
  w.put_f64_vec(m.y);
  return w.take();
}

ResultMsg decode_result(const std::string& body) {
  BinaryReader r(body);
  ResultMsg m;
  m.session_id = r.get_u64();
  m.checksum = r.get_u64();
  m.hpwl_legal = r.get_f64();
  m.x = r.get_f64_vec();
  m.y = r.get_f64_vec();
  if (m.x.size() != m.y.size()) {
    throw CheckpointError("serve: result position vectors disagree");
  }
  finish_decode(r, "result");
  return m;
}

std::string encode_status(const StatusMsg& m) {
  BinaryWriter w;
  w.put_i32(m.queued);
  w.put_i32(m.running);
  w.put_i32(m.done);
  w.put_i32(m.cancelled);
  w.put_i32(m.failed);
  w.put_i32(m.max_running);
  w.put_i32(m.max_queued);
  w.put_u8(m.draining);
  w.put_u8(m.has_session);
  if (m.has_session) {
    w.put_u64(m.session_id);
    w.put_u8(m.session_state);
    w.put_i32(m.session_rounds);
  }
  return w.take();
}

StatusMsg decode_status(const std::string& body) {
  BinaryReader r(body);
  StatusMsg m;
  m.queued = r.get_i32();
  m.running = r.get_i32();
  m.done = r.get_i32();
  m.cancelled = r.get_i32();
  m.failed = r.get_i32();
  m.max_running = r.get_i32();
  m.max_queued = r.get_i32();
  m.draining = r.get_u8();
  m.has_session = r.get_u8();
  if (m.has_session) {
    m.session_id = r.get_u64();
    m.session_state = get_session_state(r);
    m.session_rounds = r.get_i32();
  }
  finish_decode(r, "status");
  return m;
}

std::string encode_serve_error(const ServeErrorMsg& m) {
  BinaryWriter w;
  w.put_string(m.message);
  return w.take();
}

ServeErrorMsg decode_serve_error(const std::string& body) {
  BinaryReader r(body);
  ServeErrorMsg m;
  m.message = r.get_string();
  finish_decode(r, "error");
  return m;
}

void send_serve_msg(int fd, ServeMsgType type, const std::string& body) {
  write_frame_fd(fd, static_cast<std::uint32_t>(type), body);
}

}  // namespace puffer
