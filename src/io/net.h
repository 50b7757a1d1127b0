// Shared UDS/TCP socket helpers for every networked subsystem
// (orchestrate/ coordinator + worker, serve/ daemon + clients).
//
// Addresses: a string containing '/' is a Unix-domain socket path;
// otherwise it is "host:port" (":port" / "port" mean localhost). All
// helpers throw CheckpointError on failure so socket errors flow through
// the same exception channel as the wire codec they carry.
//
// Listeners set SO_REUSEADDR (TCP) and unlink stale socket files (UDS)
// so a quick restart -- the daemon smoke tests kill and relaunch within
// one TIME_WAIT window -- never flakes on EADDRINUSE.
#pragma once

#include <string>

namespace puffer {

class FrameBuffer;

bool is_unix_address(const std::string& address);

// Bound + listening fd for `address`. SO_REUSEADDR on TCP listeners;
// stale UDS files are unlinked before bind.
int listen_socket(const std::string& address);

// Blocking accept (EINTR-safe).
int accept_socket(int listen_fd);

// Blocking connect.
int connect_socket(const std::string& address);

// Retries connect_socket until it succeeds or `timeout_s` elapses
// (covers the client-starts-before-server race and server restarts);
// throws CheckpointError on timeout.
int connect_socket_retry(const std::string& address, double timeout_s);

// Puts `fd` into non-blocking mode (poll()-driven servers); throws
// CheckpointError on failure.
void set_nonblocking(int fd);

// Appends every byte socket `fd` has ready to `in` without blocking, even
// when `fd` is in blocking mode. Returns false once the peer has closed
// the connection or the read failed (the bytes before that are
// appended), true when no more bytes are ready.
bool read_ready(int fd, FrameBuffer* in);

// Ignores SIGPIPE process-wide so a dead peer surfaces as a write error
// (CheckpointError) instead of killing the process. Idempotent.
void ignore_sigpipe();

}  // namespace puffer
