// TCP front end for EmbeddingService (loopback, newline protocol).
//
// One accept thread plus one thread per connection. A connection reads
// complete lines of at most kMaxLineBytes, groups consecutive request
// lines from one read into one submit_batch window, and writes one
// response line per request in order. The connection's own thread
// evaluates the window's reads, so a read crosses no thread; only a
// window's upsert/remove lines wait for the service's update batcher.
// Control lines (stats / info / metrics / quit / shutdown) are answered
// inline; `shutdown` additionally stops the whole server, which unblocks
// wait().
//
// LineClient is the matching blocking client used by the CLI bench-client
// and the tests.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "serve/service.hpp"

namespace mpte::serve {

/// Longest request line a connection accepts, newline excluded. A longer
/// line gets one `err invalid-argument` reply and the connection closes.
/// An `upsert` line of d coordinates needs about 25·d bytes.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

struct ServerOptions {
  /// 0 = pick an ephemeral port (start() returns the actual one).
  std::uint16_t port = 0;
  int backlog = 64;
};

class SocketServer {
 public:
  /// Borrows the service; it must outlive the server.
  SocketServer(EmbeddingService& service, ServerOptions options = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds 127.0.0.1:<port>, starts the accept thread; returns the bound
  /// port, or kUnavailable when the socket cannot be set up.
  Result<std::uint16_t> start();

  /// Blocks until stop() is called or a client sends `shutdown`.
  void wait();

  /// Closes the listener and all connections, joins threads. Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }

 private:
  void accept_loop(int listen_fd);
  void handle_connection(int fd);
  /// Handles one control line; returns false when the connection should
  /// close. `out` accumulates response lines to send; `request_shutdown`
  /// is set when the whole server should stop (signalled by the caller
  /// only after the reply has been flushed).
  bool handle_line(const std::string& line, std::string* out,
                   bool* request_shutdown);

  EmbeddingService& service_;
  ServerOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  std::mutex mutex_;  // guards connection bookkeeping + shutdown flag
  std::condition_variable shutdown_cv_;
  std::vector<std::thread> connections_;
  /// Connection threads that have finished and wait to be joined.
  std::vector<std::thread::id> exited_;
  std::vector<int> connection_fds_;
  bool shutdown_requested_ = false;
  std::atomic<bool> stopping_{false};
};

/// Minimal blocking line-oriented TCP client.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  Status connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Sends `line` (newline appended).
  Status send_line(const std::string& line);

  /// Reads the next newline-terminated line (newline stripped).
  Result<std::string> read_line();

  /// send_line + read_line.
  Result<std::string> roundtrip(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace mpte::serve
