// Tests for common/net: the blocking socket helpers under serve's wire
// bytes. Peer death must surface as a Status, and an interrupted
// connect() must be completed, not retried.
#include "common/net.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <vector>

namespace mpte {
namespace {

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int b() const { return fds[1]; }
  void close_a() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(Net, SendAllReportsPeerDeathAsStatusNotSigpipe) {
  SocketPair pair;
  pair.close_a();
  // Big enough to outrun any kernel buffer once the reader is gone; the
  // MSG_NOSIGNAL send must fail with a Status, not kill the process.
  std::vector<std::uint8_t> payload(1 << 20, 0xAB);
  const Status status =
      net::send_all(pair.b(), std::span<const std::uint8_t>(payload));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST(Net, FinishConnectSucceedsOnListeningSocket) {
  // Loopback listener on an ephemeral port.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // Already connected: finish_connect is a no-op success (SO_ERROR == 0).
  EXPECT_TRUE(net::finish_connect(client).ok());
  ::close(client);
  ::close(listener);
}

TEST(Net, FinishConnectSurfacesConnectionRefused) {
  // Bind-then-close pins down a port with no listener behind it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  ::close(probe);

  // A non-blocking connect puts the attempt in flight (EINPROGRESS) — the
  // same "outcome must be read from SO_ERROR" state an EINTR-interrupted
  // blocking connect leaves behind. finish_connect must surface the
  // refusal as a Status.
  const int client = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(client, 0);
  const int rc =
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    // Extremely unlikely port reuse; nothing to assert against.
    ::close(client);
    GTEST_SKIP() << "port was re-bound between close and connect";
  }
  ASSERT_TRUE(errno == EINPROGRESS || errno == ECONNREFUSED);
  const Status status = net::finish_connect(client);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("connect"), std::string::npos);
  ::close(client);
}

}  // namespace
}  // namespace mpte
