// pufferd's connection layer: a single-threaded frame router in front of
// the ServeSessionManager, on the io/net.h FrameServer event loop.
//
// One thread (the caller of run()) owns every socket: the FrameServer
// accepts connections, decodes PUFM frames and hands them to
// handle_frame(), which dispatches requests to the session manager and
// queues replies. Runner threads never touch a socket -- they queue
// SessionEvents and wake the loop (FrameServer::wake), so there is
// exactly one writer per connection and no frame can interleave.
//
// Malformed traffic policy: a corrupt *frame* (bad magic/version/
// checksum) poisons the byte stream, so the connection is closed; a
// well-framed but undecodable *body* gets a kError reply and the
// connection lives on. Admission rejections are kRejected replies --
// explicit backpressure, never a hang or a silent drop. Frames a client
// sent before it hung up are still handled.
//
// Graceful drain (request_drain(), wired to SIGTERM/SIGINT by the
// daemon): new submits are rejected with kDraining, running sessions
// finish, their frames are written, then run() returns. A client that
// stopped reading does not hold the drain up: once a whole poll interval
// passes in which no peer took a queued byte, the rest is dropped.
// request_drain() is async-signal-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/net.h"
#include "serve/session_manager.h"

namespace puffer {

class PufferServer {
 public:
  // Binds and listens on `address` ("host:port" or a UDS path -- see
  // io/net.h) and replays any existing request log in
  // config.spool_dir. Throws CheckpointError when the bind fails.
  PufferServer(const std::string& address, ServeConfig config);
  PufferServer(const PufferServer&) = delete;
  PufferServer& operator=(const PufferServer&) = delete;

  // Serves until a drain completes. Call from one thread only.
  void run();

  // Starts a graceful drain; safe from signal handlers and other
  // threads. Idempotent.
  void request_drain();

  ServeSessionManager& manager() { return *manager_; }

 private:
  using ConnId = FrameServer::ConnId;
  struct Connection {
    bool hello_done = false;
    std::vector<std::uint64_t> submitted;  // sessions from this conn
  };

  void queue_frame(ConnId id, ServeMsgType type, const std::string& body);
  void queue_error(ConnId id, const std::string& message);
  void handle_frame(ConnId id, const WireFrame& frame);
  void handle_submit(ConnId id, const WireFrame& frame);
  void forget(ConnId id);
  void dispatch_events();
  int conn_inflight(const Connection& conn) const;

  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  // Declared before manager_, so the runners the manager joins on
  // destruction never wake a closed pipe.
  FrameServer frames_;
  std::unique_ptr<ServeSessionManager> manager_;
  std::map<ConnId, Connection> conns_;
  // session id -> subscriber connections
  std::map<std::uint64_t, std::vector<ConnId>> subs_;
};

}  // namespace puffer
