#include "io/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <vector>

namespace puffer {

namespace {

bool is_unix_address(const std::string& address) {
  return address.find('/') != std::string::npos;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw CheckpointError(what + ": " + std::strerror(errno));
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw CheckpointError("socket: unix path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

// Splits "host:port" (":port"/"port" -> localhost).
void split_host_port(const std::string& address, std::string* host,
                     std::string* port) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    *host = "127.0.0.1";
    *port = address;
  } else {
    *host = colon == 0 ? "127.0.0.1" : address.substr(0, colon);
    *port = address.substr(colon + 1);
  }
  if (port->empty()) {
    throw CheckpointError("socket: no port in address " + address);
  }
}

int tcp_socket_for(const std::string& address, bool listen_side,
                   sockaddr_storage* out, socklen_t* out_len) {
  std::string host, port;
  split_host_port(address, &host, &port);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (listen_side) hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0 || !res) {
    throw CheckpointError("socket: cannot resolve " + address + ": " +
                          ::gai_strerror(rc));
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    throw_errno("socket: socket() for " + address);
  }
  std::memcpy(out, res->ai_addr, res->ai_addrlen);
  *out_len = res->ai_addrlen;
  ::freeaddrinfo(res);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (listen_side) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  return fd;
}

// Bound + listening fd for `address`.
int listen_socket(const std::string& address) {
  int fd = -1;
  if (is_unix_address(address)) {
    ::unlink(address.c_str());  // a stale socket file blocks bind
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket: socket() for " + address);
    const sockaddr_un addr = unix_addr(address);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      throw_errno("socket: bind " + address);
    }
  } else {
    sockaddr_storage addr{};
    socklen_t len = 0;
    fd = tcp_socket_for(address, true, &addr, &len);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
      ::close(fd);
      throw_errno("socket: bind " + address);
    }
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("socket: listen " + address);
  }
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("socket: set O_NONBLOCK");
  }
}

// Appends every byte `fd` has ready to `in` without blocking. Returns
// false once the peer has closed the connection or the read failed (the
// bytes before that are appended), true when no more bytes are ready.
bool read_ready(int fd, FrameBuffer* in) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      in->append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno != EINTR) return false;
  }
}

}  // namespace

int connect_socket(const std::string& address) {
  int fd = -1;
  if (is_unix_address(address)) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket: socket() for " + address);
    const sockaddr_un addr = unix_addr(address);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      throw_errno("socket: connect " + address);
    }
  } else {
    sockaddr_storage addr{};
    socklen_t len = 0;
    fd = tcp_socket_for(address, false, &addr, &len);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
      ::close(fd);
      throw_errno("socket: connect " + address);
    }
  }
  return fd;
}

int connect_socket_retry(const std::string& address, double timeout_s) {
  const double delay_s = 0.1;
  double waited = 0.0;
  for (;;) {
    try {
      return connect_socket(address);
    } catch (const CheckpointError&) {
      if (waited >= timeout_s) throw;
    }
    timespec ts{};
    ts.tv_sec = 0;
    ts.tv_nsec = static_cast<long>(delay_s * 1e9);
    ::nanosleep(&ts, nullptr);
    waited += delay_s;
  }
}

void ignore_sigpipe() { ::signal(SIGPIPE, SIG_IGN); }

FrameServer::FrameServer(const std::string& address, FrameFn on_frame,
                         CloseFn on_close)
    : on_frame_(std::move(on_frame)), on_close_(std::move(on_close)) {
  listen_fd_ = listen_socket(address);
  if (is_unix_address(address)) unix_path_ = address;
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    ::close(listen_fd_);
    throw_errno("socket: pipe");
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(listen_fd_);
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
}

FrameServer::~FrameServer() {
  for (const auto& [id, conn] : conns_) ::close(conn.fd);
  ::close(listen_fd_);
  ::close(wake_rd_);
  ::close(wake_wr_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void FrameServer::wake() {
  const char byte = 'w';
  // A full pipe already guarantees a pending wakeup.
  (void)!::write(wake_wr_, &byte, 1);
}

std::size_t FrameServer::poll(int timeout_ms) {
  // Ended connections whose queued frames are written (or undeliverable)
  // close here, outside every handler.
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (!it->second.open && it->second.out_pos == it->second.out.size()) {
      ::close(it->second.fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }

  std::vector<pollfd> fds;
  std::vector<ConnId> ids;
  fds.push_back({listen_fd_, POLLIN, 0});
  fds.push_back({wake_rd_, POLLIN, 0});
  for (const auto& [id, conn] : conns_) {
    short events = conn.open ? POLLIN : 0;
    if (conn.out_pos < conn.out.size()) events |= POLLOUT;
    fds.push_back({conn.fd, events, 0});
    ids.push_back(id);
  }
  if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
    if (errno == EINTR) return 0;
    throw_errno("socket: poll");
  }
  if (fds[1].revents & POLLIN) {
    char buf[256];
    while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
    }
  }

  std::size_t taken = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const short revents = fds[i + 2].revents;
    if (revents & (POLLIN | POLLHUP | POLLERR)) read_conn(ids[i]);
    const auto it = conns_.find(ids[i]);
    if (it != conns_.end() && (revents & (POLLOUT | POLLHUP | POLLERR))) {
      taken += flush(it->second);
    }
  }
  if (fds[0].revents & POLLIN) {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: none left; anything else retries next step
      }
      try {
        set_nonblocking(fd);
      } catch (const CheckpointError&) {
        ::close(fd);
        continue;
      }
      const ConnId id = next_id_++;
      conns_[id].fd = fd;
      read_conn(id);  // frames sent along with the connect
    }
  }
  return taken;
}

void FrameServer::read_conn(ConnId id) {
  Conn& conn = conns_.at(id);  // handlers never erase: poll() does
  if (!conn.open) return;
  bool alive = read_ready(conn.fd, &conn.in);
  std::string why = "connection closed";
  try {
    WireFrame frame;
    while (conn.open && conn.in.next(&frame)) on_frame_(id, frame);
  } catch (const CheckpointError& e) {
    alive = false;
    why = e.what();
  }
  if (!conn.open || alive) return;  // close() reports nothing
  conn.open = false;
  on_close_(id, why);
}

void FrameServer::send(ConnId conn, std::uint32_t type,
                       const std::string& body) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || !it->second.open) return;
  it->second.out += encode_frame(type, body);
  flush(it->second);
}

void FrameServer::close(ConnId conn) {
  const auto it = conns_.find(conn);
  if (it != conns_.end()) it->second.open = false;
}

std::size_t FrameServer::unsent() const {
  std::size_t n = 0;
  for (const auto& [id, conn] : conns_) n += conn.out.size() - conn.out_pos;
  return n;
}

std::size_t FrameServer::flush(Conn& conn) {
  std::size_t taken = 0;
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_pos,
               conn.out.size() - conn.out_pos, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      taken += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // The peer is gone and the frames are undeliverable; the read side
    // reports the hangup.
    conn.out_pos = conn.out.size();
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  } else if (conn.out_pos > (1u << 20)) {
    conn.out.erase(0, conn.out_pos);
    conn.out_pos = 0;
  }
  return taken;
}

}  // namespace puffer
