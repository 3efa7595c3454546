#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/net.hpp"
#include "serve/wire.hpp"

namespace mpte::serve {

// Blocking I/O (EINTR-safe send/recv, interrupted-connect completion)
// lives in common/net; this file keeps only the line protocol.
using net::socket_error;

SocketServer::SocketServer(EmbeddingService& service, ServerOptions options)
    : service_(service), options_(options) {}

SocketServer::~SocketServer() { stop(); }

Result<std::uint16_t> SocketServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return socket_error("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = socket_error("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const Status status = socket_error("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status status = socket_error("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(bound.sin_port);
  // The accept thread gets its own copy of the descriptor: stop() resets
  // listen_fd_ while the thread may still be reading it.
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
  return port_;
}

void SocketServer::accept_loop(int listen_fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop(), or fatal error
    }
    std::vector<std::thread> exited;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      // Connections that have ended leave with this accept, so the server
      // holds threads (and their stacks) only for live connections.
      for (const std::thread::id id : exited_) {
        const auto it = std::find_if(
            connections_.begin(), connections_.end(),
            [id](const std::thread& c) { return c.get_id() == id; });
        exited.push_back(std::move(*it));
        connections_.erase(it);
      }
      exited_.clear();
      connection_fds_.push_back(fd);
      connections_.emplace_back([this, fd] { handle_connection(fd); });
    }
    for (std::thread& connection : exited) connection.join();
  }
}

void SocketServer::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  // Consecutive request lines from one read are submitted as ONE
  // submit_batch window, whose reads this thread evaluates before the call
  // returns — a client that pipelines K requests per write pays one
  // admission and one stats fold per K. Parse failures hold a pre-rendered
  // error line at the same position so responses stay in request order.
  std::vector<Request> pending;
  std::vector<std::pair<std::size_t, std::string>> pending_errors;
  const auto flush = [&](std::string* out) {
    if (pending.empty() && pending_errors.empty()) return;
    auto replies = service_.submit_batch(pending);
    std::size_t next_error = 0;
    std::size_t next_reply = 0;
    const std::size_t total = pending.size() + pending_errors.size();
    for (std::size_t slot = 0; slot < total; ++slot) {
      if (next_error < pending_errors.size() &&
          pending_errors[next_error].first == slot) {
        *out += pending_errors[next_error++].second + "\n";
      } else {
        *out += format_response(replies[next_reply++].get()) + "\n";
      }
    }
    pending.clear();
    pending_errors.clear();
  };
  bool want_shutdown = false;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    const auto n = net::recv_some(
        fd, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(chunk),
                                    sizeof(chunk)));
    if (!n.ok() || *n == 0) break;
    // The bytes kept from earlier reads hold no newline; scan only the
    // new ones.
    const std::size_t scan_from = buffer.size();
    buffer.append(chunk, *n);
    std::string responses;
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', scan_from);
         nl != std::string::npos && open && nl - start <= kMaxLineBytes;
         start = nl + 1, nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (parse_control(line) != ControlCommand::kNone) {
        flush(&responses);  // control replies must stay in order
        open = handle_line(line, &responses, &want_shutdown);
        continue;
      }
      auto parsed = parse_request(line);
      if (parsed.ok()) {
        pending.push_back(*parsed);
      } else {
        pending_errors.emplace_back(pending.size() + pending_errors.size(),
                                    format_response(parsed.status()));
      }
    }
    buffer.erase(0, start);
    flush(&responses);
    // Left over: a partial line, or the complete line over the bound that
    // stopped the scan. Past the bound it gets one error reply and the
    // connection closes.
    if (open && buffer.size() > kMaxLineBytes) {
      responses += format_response(Status(
                       StatusCode::kInvalidArgument,
                       "line longer than " + std::to_string(kMaxLineBytes) +
                           " bytes")) +
                   "\n";
      open = false;
    }
    if (!responses.empty() && !net::send_all(fd, responses).ok()) break;
    if (want_shutdown) break;
  }
  {
    // Forgotten before close, so stop() never shuts down a descriptor
    // number the process has handed to another socket since. The accept
    // thread joins this thread when it takes the next connection.
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase(connection_fds_, fd);
    exited_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
  if (want_shutdown) {
    // Signalled only after the "ok shutdown" reply was flushed, so the
    // requesting client always sees its acknowledgement.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
  }
}

bool SocketServer::handle_line(const std::string& line, std::string* out,
                               bool* request_shutdown) {
  switch (parse_control(line)) {
    case ControlCommand::kStats:
      *out += format_stats(service_.stats()) + "\n";
      return true;
    case ControlCommand::kMetrics:
      // Multi-line Prometheus exposition; metrics_text() ends with the
      // "# EOF\n" marker line, which doubles as the end-of-response
      // sentinel for line-oriented clients.
      *out += service_.metrics_text();
      return true;
    case ControlCommand::kInfo:
      *out += format_info(service_.num_points(), service_.num_trees(),
                          service_.epoch(), service_.dim()) +
              "\n";
      return true;
    case ControlCommand::kQuit:
      return false;
    case ControlCommand::kShutdown:
      *out += "ok shutdown\n";
      *request_shutdown = true;
      return false;
    case ControlCommand::kNone:
      break;
  }
  return true;
}

void SocketServer::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_ || stopping_.load(std::memory_order_acquire);
  });
}

void SocketServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  if (listen_fd_ >= 0) {
    // shutdown() unblocks accept(); close() releases the port.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    connection_fds_.clear();
    connections.swap(connections_);
    exited_.clear();
  }
  for (std::thread& connection : connections) connection.join();
}

LineClient::~LineClient() { close(); }

Status LineClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return socket_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    return Status(StatusCode::kInvalidArgument, "bad host '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINTR) {
      const Status status = socket_error("connect");
      close();
      return status;
    }
    // A signal interrupted connect() but the attempt proceeds
    // asynchronously; net::finish_connect waits it out.
    const Status finished = net::finish_connect(fd_);
    if (!finished.ok()) {
      close();
      return finished;
    }
  }
  return Status::Ok();
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status LineClient::send_line(const std::string& line) {
  if (fd_ < 0) return Status(StatusCode::kUnavailable, "not connected");
  return net::send_all(fd_, line + "\n");
}

Result<std::string> LineClient::read_line() {
  if (fd_ < 0) return Status(StatusCode::kUnavailable, "not connected");
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const auto n = net::recv_some(
        fd_, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(chunk),
                                     sizeof(chunk)));
    if (!n.ok()) return n.status();
    if (*n == 0) {
      return Status(StatusCode::kUnavailable, "connection closed by peer");
    }
    buffer_.append(chunk, *n);
  }
}

Result<std::string> LineClient::roundtrip(const std::string& line) {
  const Status sent = send_line(line);
  if (!sent.ok()) return sent;
  return read_line();
}

}  // namespace mpte::serve
