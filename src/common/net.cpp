#include "common/net.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace mpte::net {

Status socket_error(const std::string& what) {
  return Status(StatusCode::kUnavailable,
                what + ": " + std::strerror(errno));
}

Status send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return socket_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status send_all(int fd, std::string_view text) {
  return send_all(fd, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()));
}

Result<std::size_t> recv_some(int fd, std::span<std::uint8_t> buf) {
  while (true) {
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return socket_error("recv");
    }
    return static_cast<std::size_t>(n);
  }
}

Status finish_connect(int fd) {
  pollfd pfd{fd, POLLOUT, 0};
  int polled;
  do {
    polled = ::poll(&pfd, 1, -1);
  } while (polled < 0 && errno == EINTR);
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (polled < 0 ||
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
    return socket_error("connect");
  }
  if (so_error != 0) {
    errno = so_error;
    return socket_error("connect");
  }
  return Status::Ok();
}

}  // namespace mpte::net
