// Shared UDS/TCP sockets for every networked subsystem (orchestrate/
// coordinator + worker, serve/ daemon + clients): address helpers,
// blocking client connects, and FrameServer, the one non-blocking event
// loop both servers run on.
//
// Addresses: a string containing '/' is a Unix-domain socket path;
// otherwise it is "host:port" (":port" / "port" mean localhost). All
// helpers throw CheckpointError on failure so socket errors flow through
// the same exception channel as the wire codec they carry.
//
// FrameServer's listener sets SO_REUSEADDR (TCP) and unlinks a stale
// socket file (UDS), so a quick restart -- the daemon smoke tests kill
// and relaunch within one TIME_WAIT window -- never flakes on EADDRINUSE.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "io/checkpoint.h"

namespace puffer {

// Blocking connect.
int connect_socket(const std::string& address);

// Retries connect_socket until it succeeds or `timeout_s` elapses
// (covers the client-starts-before-server race and server restarts);
// throws CheckpointError on timeout.
int connect_socket_retry(const std::string& address, double timeout_s);

// Ignores SIGPIPE process-wide so a dead peer surfaces as a write error
// (CheckpointError) instead of killing the process. Idempotent.
void ignore_sigpipe();

// A poll()-driven server for PUFM frames (io/checkpoint.h) on one
// listening socket. One poll() step accepts new connections, reads every
// readable one into its FrameBuffer, hands each whole frame to the frame
// handler in arrival order, and writes each connection's queued frames
// as far as its peer takes them. No call blocks on a peer: send() queues
// and returns, so a peer that stops reading only grows its own queue, and
// one that stops mid-frame only holds its own bytes.
//
// A connection ends in one of two ways. The server drops it when the peer
// hangs up (after the frames it sent before are handled), a read fails, a
// frame is corrupt, or the frame handler throws CheckpointError, and
// reports that once through the close handler. Or the owner calls
// close(), which reports nothing. Either way no further frame is read or
// queued, and the frames already queued are still written before the
// socket closes.
//
// Single-threaded: every member except wake() belongs to the thread that
// calls poll(), and the handlers run inside poll().
class FrameServer {
 public:
  using ConnId = std::uint64_t;  // never reused within one server
  using FrameFn = std::function<void(ConnId, const WireFrame&)>;
  using CloseFn = std::function<void(ConnId, const std::string& why)>;

  // Binds and listens on `address`; throws CheckpointError on failure.
  FrameServer(const std::string& address, FrameFn on_frame,
              CloseFn on_close);
  // Closes every socket and removes a Unix-domain socket file.
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Waits up to `timeout_ms` for socket activity or wake(), then runs
  // one step. Returns the number of queued bytes peers took in the step.
  std::size_t poll(int timeout_ms);

  // Queues one frame to `conn` and writes what its peer takes now.
  // Ignored once the connection has ended.
  void send(ConnId conn, std::uint32_t type, const std::string& body);

  // Ends `conn`: nothing more is read from it, and its socket closes once
  // its queued frames are written.
  void close(ConnId conn);

  // Queued bytes no peer has taken yet.
  std::size_t unsent() const;

  // Makes the current or next poll() return at once. Async-signal-safe;
  // callable from any thread.
  void wake();

 private:
  struct Conn {
    int fd = -1;
    bool open = true;  // false: write what is queued, then close
    FrameBuffer in;
    std::string out;          // encoded frames awaiting the socket
    std::size_t out_pos = 0;  // written prefix of `out`
  };

  void read_conn(ConnId id);
  std::size_t flush(Conn& conn);

  FrameFn on_frame_;
  CloseFn on_close_;
  std::string unix_path_;  // removed on destruction; empty for TCP
  int listen_fd_ = -1;
  int wake_rd_ = -1, wake_wr_ = -1;  // self-pipe
  ConnId next_id_ = 1;
  std::map<ConnId, Conn> conns_;
};

}  // namespace puffer
