#include "io/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "io/checkpoint.h"

namespace puffer {

bool is_unix_address(const std::string& address) {
  return address.find('/') != std::string::npos;
}

namespace {

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

}  // namespace

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

int accept_socket(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    throw_errno("socket: accept");
  }
}

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

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("socket: set O_NONBLOCK");
  }
}

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

void ignore_sigpipe() { ::signal(SIGPIPE, SIG_IGN); }

}  // namespace puffer
