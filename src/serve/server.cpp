#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logger.h"
#include "io/net.h"

namespace puffer {

namespace {

constexpr const char* kTag = "pufferd";
// Poll timeout: the self-pipe delivers wakeups, so this only bounds
// shutdown latency on missed edges.
constexpr int kPollMs = 200;

}  // namespace

PufferServer::PufferServer(const std::string& address, ServeConfig config)
    : address_(address) {
  ignore_sigpipe();
  listen_fd_ = listen_socket(address);
  set_nonblocking(listen_fd_);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    throw CheckpointError(std::string("pufferd: pipe: ") +
                          std::strerror(errno));
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  const int wr = wake_wr_;
  manager_ = std::make_unique<ServeSessionManager>(
      std::move(config), [wr] {
        const char byte = 'e';
        // A full pipe already guarantees a pending wakeup.
        (void)!::write(wr, &byte, 1);
      });
  PUFFER_LOG_INFO(kTag, "listening on %s (max_running=%d max_queued=%d)",
                  address_.c_str(), manager_->config().max_running,
                  manager_->config().max_queued);
}

PufferServer::~PufferServer() {
  // Join runners before touching fds the wake callback writes to.
  manager_.reset();
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  if (is_unix_address(address_)) ::unlink(address_.c_str());
}

void PufferServer::request_drain() {
  drain_requested_.store(true);
  const char byte = 'd';
  (void)!::write(wake_wr_, &byte, 1);
}

int PufferServer::conn_inflight(const Connection& conn) const {
  int n = 0;
  for (const std::uint64_t sid : conn.submitted) {
    const ServeSession* s = manager_->find(sid);
    if (s && !session_terminal(s->state)) ++n;
  }
  return n;
}

bool PufferServer::out_buffers_empty() const {
  for (const auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->out_pos < conn->out.size()) return false;
  }
  return true;
}

void PufferServer::run() {
  std::vector<pollfd> fds;
  while (true) {
    if (drain_requested_.load() && !draining_) {
      draining_ = true;
      manager_->set_draining();
      PUFFER_LOG_INFO(kTag, "draining: finishing %d running session(s)",
                      manager_->status(0).running);
    }
    dispatch_events();
    manager_->pump();
    if (draining_ && manager_->idle()) {
      // Sessions done, frames queued; flush what the peers will take
      // and leave. (A peer that never reads does not hold up shutdown:
      // its remaining bytes die with the connection.)
      for (auto& [fd, conn] : conns_) {
        (void)fd;
        flush_conn(*conn);
      }
      if (out_buffers_empty()) break;
    }

    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_rd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      short ev = conn->closing ? 0 : POLLIN;
      if (conn->out_pos < conn->out.size()) ev |= POLLOUT;
      fds.push_back({fd, ev, 0});
    }

    const int rc = ::poll(fds.data(), fds.size(), kPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw CheckpointError(std::string("pufferd: poll: ") +
                            std::strerror(errno));
    }

    if (fds[1].revents & POLLIN) {
      char buf[256];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) accept_new();

    // Collect ready fds first: handlers may close connections, which
    // would invalidate iteration over conns_.
    std::vector<std::pair<int, short>> ready;
    for (std::size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents != 0) ready.emplace_back(fds[i].fd, fds[i].revents);
    }
    for (const auto& [fd, revents] : ready) {
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        close_conn(fd);
        continue;
      }
      if (revents & POLLOUT) {
        flush_conn(*it->second);
        if (it->second->closing &&
            it->second->out_pos >= it->second->out.size()) {
          close_conn(fd);
          continue;
        }
      }
      if (revents & POLLIN) read_conn(fd);
    }
  }
  PUFFER_LOG_INFO(kTag, "drain complete, exiting");
}

void PufferServer::accept_new() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      PUFFER_LOG_INFO(kTag, "accept failed: %s", std::strerror(errno));
      return;
    }
    set_nonblocking(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conns_[fd] = std::move(conn);
  }
}

void PufferServer::read_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (!read_ready(fd, &conn.in)) {  // peer closed or read failed
    close_conn(fd);
    return;
  }
  WireFrame frame;
  try {
    while (conn.in.next(&frame)) {
      handle_frame(fd, frame);
      if (conns_.find(fd) == conns_.end()) return;  // handler closed it
    }
  } catch (const CheckpointError& e) {
    // Corrupt framing: the stream is unusable beyond this point.
    PUFFER_LOG_INFO(kTag, "closing fd %d: %s", fd, e.what());
    close_conn(fd);
  }
}

void PufferServer::flush_conn(Connection& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_pos,
                              conn.out.size() - conn.out_pos);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE & friends: the peer is gone; drop the buffer, the poll loop
    // reaps the connection on the next POLLERR/HUP.
    conn.out_pos = conn.out.size();
    break;
  }
  if (conn.out_pos >= conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  } else if (conn.out_pos > (1u << 20)) {
    conn.out.erase(0, conn.out_pos);
    conn.out_pos = 0;
  }
}

void PufferServer::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  for (auto& [sid, watchers] : subs_) {
    (void)sid;
    watchers.erase(std::remove(watchers.begin(), watchers.end(), fd),
                   watchers.end());
  }
  ::close(fd);
  conns_.erase(it);
}

void PufferServer::queue_frame(int fd, ServeMsgType type,
                               const std::string& body) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  it->second->out += encode_frame(static_cast<std::uint32_t>(type), body);
  flush_conn(*it->second);  // opportunistic: most frames fit in one write
}

void PufferServer::queue_error(int fd, const std::string& message) {
  ServeErrorMsg err;
  err.message = message;
  queue_frame(fd, ServeMsgType::kError, encode_serve_error(err));
}

void PufferServer::handle_submit(int fd, const WireFrame& frame) {
  Connection& conn = *conns_.at(fd);
  if (conn_inflight(conn) >= manager_->config().per_conn_inflight) {
    RejectedMsg rej;
    rej.reason = static_cast<std::uint8_t>(RejectReason::kPerConnCap);
    rej.message = "connection already has " +
                  std::to_string(manager_->config().per_conn_inflight) +
                  " session(s) in flight";
    queue_frame(fd, ServeMsgType::kRejected, encode_rejected(rej));
    return;
  }
  const ServeSessionManager::AdmitResult res = manager_->submit(frame.body);
  if (!res.accepted) {
    RejectedMsg rej;
    rej.reason = static_cast<std::uint8_t>(res.reason);
    rej.message = res.message;
    queue_frame(fd, ServeMsgType::kRejected, encode_rejected(rej));
    return;
  }
  conn.submitted.push_back(res.session_id);
  SubmitAckMsg ack;
  ack.session_id = res.session_id;
  ack.state = static_cast<std::uint8_t>(res.state);
  ack.queue_depth = res.queue_depth;
  queue_frame(fd, ServeMsgType::kSubmitAck, encode_submit_ack(ack));
  manager_->pump();
}

void PufferServer::handle_frame(int fd, const WireFrame& frame) {
  const auto type = static_cast<ServeMsgType>(frame.type);
  try {
    if (!conns_.at(fd)->hello_done) {
      if (type != ServeMsgType::kClientHello) {
        queue_error(fd, "expected ClientHello first");
        conns_.at(fd)->closing = true;
        return;
      }
      const ClientHelloMsg hello = decode_client_hello(frame.body);
      if (hello.protocol_version != kServeProtocolVersion) {
        queue_error(fd, "unsupported protocol version " +
                            std::to_string(hello.protocol_version));
        conns_.at(fd)->closing = true;
        return;
      }
      conns_.at(fd)->hello_done = true;
      ServerHelloMsg reply;
      reply.daemon_name = manager_->config().daemon_name;
      queue_frame(fd, ServeMsgType::kServerHello,
                  encode_server_hello(reply));
      return;
    }
    switch (type) {
      case ServeMsgType::kSubmit:
        handle_submit(fd, frame);
        return;
      case ServeMsgType::kSubscribe: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        if (!manager_->find(ref.session_id)) {
          queue_error(fd, "unknown session " +
                              std::to_string(ref.session_id));
          return;
        }
        std::vector<int>& watchers = subs_[ref.session_id];
        if (std::find(watchers.begin(), watchers.end(), fd) ==
            watchers.end()) {
          watchers.push_back(fd);
        }
        queue_frame(fd, ServeMsgType::kSnapshot,
                    encode_snapshot_msg(manager_->snapshot(ref.session_id)));
        return;
      }
      case ServeMsgType::kDetach: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        std::vector<int>& watchers = subs_[ref.session_id];
        watchers.erase(std::remove(watchers.begin(), watchers.end(), fd),
                       watchers.end());
        // Queued after any in-flight telemetry: the ack is a barrier.
        queue_frame(fd, ServeMsgType::kDetachAck,
                    encode_session_ref(ref));
        return;
      }
      case ServeMsgType::kCancel: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        if (!manager_->cancel(ref.session_id)) {
          queue_error(fd, "unknown session " +
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
          for (const int wfd : subs_[s->id]) {
            queue_frame(wfd, ServeMsgType::kDone, body);
          }
          subs_.erase(s->id);
        }
        queue_frame(fd, ServeMsgType::kStatus,
                    encode_status(manager_->status(ref.session_id)));
        return;
      }
      case ServeMsgType::kFetch: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        std::string body;
        if (!manager_->result_body(ref.session_id, &body)) {
          const ServeSession* s = manager_->find(ref.session_id);
          queue_error(fd, "no result for session " +
                              std::to_string(ref.session_id) + " (" +
                              (s ? session_state_name(s->state) : "unknown") +
                              ")");
          return;
        }
        queue_frame(fd, ServeMsgType::kResult, body);
        return;
      }
      case ServeMsgType::kQuery: {
        const SessionRefMsg ref = decode_session_ref(frame.body);
        queue_frame(fd, ServeMsgType::kStatus,
                    encode_status(manager_->status(ref.session_id)));
        return;
      }
      default:
        queue_error(fd, "unexpected message type " +
                            std::to_string(frame.type));
        return;
    }
  } catch (const CheckpointError& e) {
    // Well-framed but undecodable body: report and keep the connection.
    queue_error(fd, e.what());
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
      for (const int fd : watchers->second) {
        queue_frame(fd, ServeMsgType::kTelemetry, body);
      }
    } else {
      if (watchers != subs_.end()) {
        DoneMsg done;
        done.session_id = ev.session_id;
        done.summary = ev.summary;
        const std::string body = encode_done(done);
        for (const int fd : watchers->second) {
          queue_frame(fd, ServeMsgType::kDone, body);
        }
        subs_.erase(watchers);
      }
    }
  }
}

}  // namespace puffer
