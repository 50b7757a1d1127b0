#include "serve/server.h"

#include <algorithm>

#include "common/logger.h"
#include "common/timer.h"

namespace puffer {

namespace {

constexpr const char* kTag = "pufferd";
// Poll timeout: FrameServer::wake delivers wakeups, so this bounds only
// shutdown latency on missed edges, and is how long a drain waits on
// peers that take no byte.
constexpr int kPollMs = 200;

}  // namespace

PufferServer::PufferServer(const std::string& address, ServeConfig config)
    : frames_(
          address,
          [this](ConnId id, const WireFrame& f) { handle_frame(id, f); },
          [this](ConnId id, const std::string&) { forget(id); }) {
  manager_ = std::make_unique<ServeSessionManager>(
      std::move(config), [this] { frames_.wake(); });
  PUFFER_LOG_INFO(kTag, "listening on %s (max_running=%d max_queued=%d)",
                  address.c_str(), manager_->config().max_running,
                  manager_->config().max_queued);
}

void PufferServer::request_drain() {
  drain_requested_.store(true);
  frames_.wake();
}

int PufferServer::conn_inflight(const Connection& conn) const {
  int n = 0;
  for (const std::uint64_t sid : conn.submitted) {
    const ServeSession* s = manager_->find(sid);
    if (s && !session_terminal(s->state)) ++n;
  }
  return n;
}

void PufferServer::run() {
  Timer stalled;  // since a peer last took a byte the drain waits on
  while (true) {
    if (drain_requested_.load() && !draining_) {
      draining_ = true;
      manager_->set_draining();
      PUFFER_LOG_INFO(kTag, "draining: finishing %d running session(s)",
                      manager_->status(0).running);
    }
    dispatch_events();
    manager_->pump();
    // Sessions done, frames queued: leave once the peers have taken them,
    // or once they took nothing for a whole poll interval (a peer that
    // stopped reading loses its frames with the connection).
    const bool finished = draining_ && manager_->idle();
    if (finished && (frames_.unsent() == 0 ||
                     stalled.elapsed_seconds() * 1000.0 >= kPollMs)) {
      break;
    }
    if (frames_.poll(kPollMs) > 0 || !finished) stalled = Timer();
  }
  PUFFER_LOG_INFO(kTag, "drain complete, exiting");
}

void PufferServer::forget(ConnId id) {
  for (auto& [sid, watchers] : subs_) {
    (void)sid;
    watchers.erase(std::remove(watchers.begin(), watchers.end(), id),
                   watchers.end());
  }
  conns_.erase(id);
}

void PufferServer::queue_frame(ConnId id, ServeMsgType type,
                               const std::string& body) {
  frames_.send(id, static_cast<std::uint32_t>(type), body);
}

void PufferServer::queue_error(ConnId id, const std::string& message) {
  ServeErrorMsg err;
  err.message = message;
  queue_frame(id, ServeMsgType::kError, encode_serve_error(err));
}

void PufferServer::handle_submit(ConnId id, const WireFrame& frame) {
  Connection& conn = conns_[id];
  if (conn_inflight(conn) >= manager_->config().per_conn_inflight) {
    RejectedMsg rej;
    rej.reason = static_cast<std::uint8_t>(RejectReason::kPerConnCap);
    rej.message = "connection already has " +
                  std::to_string(manager_->config().per_conn_inflight) +
                  " session(s) in flight";
    queue_frame(id, ServeMsgType::kRejected, encode_rejected(rej));
    return;
  }
  const ServeSessionManager::AdmitResult res = manager_->submit(frame.body);
  if (!res.accepted) {
    RejectedMsg rej;
    rej.reason = static_cast<std::uint8_t>(res.reason);
    rej.message = res.message;
    queue_frame(id, ServeMsgType::kRejected, encode_rejected(rej));
    return;
  }
  conn.submitted.push_back(res.session_id);
  SubmitAckMsg ack;
  ack.session_id = res.session_id;
  ack.state = static_cast<std::uint8_t>(res.state);
  ack.queue_depth = res.queue_depth;
  queue_frame(id, ServeMsgType::kSubmitAck, encode_submit_ack(ack));
  manager_->pump();
}

void PufferServer::handle_frame(ConnId id, const WireFrame& frame) {
  const auto type = static_cast<ServeMsgType>(frame.type);
  try {
    if (!conns_[id].hello_done) {
      std::string refusal;
      if (type != ServeMsgType::kClientHello) {
        refusal = "expected ClientHello first";
      } else {
        const ClientHelloMsg hello = decode_client_hello(frame.body);
        if (hello.protocol_version != kServeProtocolVersion) {
          refusal = "unsupported protocol version " +
                    std::to_string(hello.protocol_version);
        }
      }
      if (!refusal.empty()) {
        queue_error(id, refusal);
        frames_.close(id);
        forget(id);
        return;
      }
      conns_[id].hello_done = true;
      ServerHelloMsg reply;
      reply.daemon_name = manager_->config().daemon_name;
      queue_frame(id, ServeMsgType::kServerHello,
                  encode_server_hello(reply));
      return;
    }
    switch (type) {
      case ServeMsgType::kSubmit:
        handle_submit(id, frame);
        return;
      case ServeMsgType::kSubscribe: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        if (!manager_->find(ref.session_id)) {
          queue_error(id, "unknown session " +
                              std::to_string(ref.session_id));
          return;
        }
        std::vector<ConnId>& watchers = subs_[ref.session_id];
        if (std::find(watchers.begin(), watchers.end(), id) ==
            watchers.end()) {
          watchers.push_back(id);
        }
        queue_frame(id, ServeMsgType::kSnapshot,
                    encode_snapshot_msg(manager_->snapshot(ref.session_id)));
        return;
      }
      case ServeMsgType::kDetach: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        std::vector<ConnId>& watchers = subs_[ref.session_id];
        watchers.erase(std::remove(watchers.begin(), watchers.end(), id),
                       watchers.end());
        // Queued after any in-flight telemetry: the ack is a barrier.
        queue_frame(id, ServeMsgType::kDetachAck,
                    encode_session_ref(ref));
        return;
      }
      case ServeMsgType::kCancel: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        if (!manager_->cancel(ref.session_id)) {
          queue_error(id, "unknown session " +
                              std::to_string(ref.session_id));
          return;
        }
        const ServeSession* s = manager_->find(ref.session_id);
        if (s && s->state == SessionState::kCancelled) {
          // Cancelled straight from the queue: finalize subscribers now
          // (a running session's cancel settles via its finish event).
          DoneMsg done;
          done.session_id = s->id;
          done.summary = s->summary;
          const std::string body = encode_done(done);
          for (const ConnId watcher : subs_[s->id]) {
            queue_frame(watcher, ServeMsgType::kDone, body);
          }
          subs_.erase(s->id);
        }
        queue_frame(id, ServeMsgType::kStatus,
                    encode_status(manager_->status(ref.session_id)));
        return;
      }
      case ServeMsgType::kFetch: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        std::string body;
        if (!manager_->result_body(ref.session_id, &body)) {
          const ServeSession* s = manager_->find(ref.session_id);
          queue_error(id, "no result for session " +
                              std::to_string(ref.session_id) + " (" +
                              (s ? session_state_name(s->state) : "unknown") +
                              ")");
          return;
        }
        queue_frame(id, ServeMsgType::kResult, body);
        return;
      }
      case ServeMsgType::kQuery: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        queue_frame(id, ServeMsgType::kStatus,
                    encode_status(manager_->status(ref.session_id)));
        return;
      }
      default:
        queue_error(id, "unexpected message type " +
                            std::to_string(frame.type));
        return;
    }
  } catch (const CheckpointError& e) {
    // Well-framed but undecodable body: report and keep the connection.
    queue_error(id, e.what());
  }
}

void PufferServer::dispatch_events() {
  for (const SessionEvent& ev : manager_->drain_events()) {
    const ServeSession* s = manager_->apply(ev);
    if (!s) continue;
    const auto watchers = subs_.find(ev.session_id);
    if (ev.kind == SessionEvent::Kind::kTelemetry) {
      if (watchers == subs_.end() || watchers->second.empty()) continue;
      TelemetryMsg msg;
      msg.session_id = ev.session_id;
      msg.round = ev.round;
      const std::string body = encode_telemetry(msg);
      for (const ConnId watcher : watchers->second) {
        queue_frame(watcher, ServeMsgType::kTelemetry, body);
      }
    } else {
      if (watchers != subs_.end()) {
        DoneMsg done;
        done.session_id = ev.session_id;
        done.summary = ev.summary;
        const std::string body = encode_done(done);
        for (const ConnId watcher : watchers->second) {
          queue_frame(watcher, ServeMsgType::kDone, body);
        }
        subs_.erase(watchers);
      }
    }
  }
}

}  // namespace puffer
