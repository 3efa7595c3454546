#include "ipc/process_pool.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace mpte::ipc {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Result<ProcessPool> ProcessPool::spawn(std::size_t ranks,
                                       const ShmChannel::Config& channel,
                                       const WorkerMain& worker_main) {
  ProcessPool pool;
  pool.workers_.resize(ranks);
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      const Status status(StatusCode::kUnavailable,
                          std::string("socketpair: ") +
                              std::strerror(errno));
      pool.kill_all();
      return status;
    }
    // The channel must exist *before* fork so both processes inherit the
    // same mapping.
    auto created = ShmChannel::create(channel);
    if (!created.ok()) {
      ::close(sv[0]);
      ::close(sv[1]);
      pool.kill_all();
      return created.status();
    }
    pool.workers_[rank].channel = std::move(*created);
    const pid_t pid = ::fork();
    if (pid < 0) {
      const Status status(StatusCode::kUnavailable,
                          std::string("fork: ") + std::strerror(errno));
      ::close(sv[0]);
      ::close(sv[1]);
      pool.kill_all();
      return status;
    }
    if (pid == 0) {
      // Child: keep only this rank's worker end. The coordinator ends of
      // every socketpair forked so far must go, or a sibling's EOF-based
      // death detection would hang on our copy of its fd.
      ::close(sv[0]);
      for (std::size_t earlier = 0; earlier < rank; ++earlier) {
        ::close(pool.workers_[earlier].fd);
      }
      ShmChannel& mine = pool.workers_[rank].channel;
      mine.bind(Side::kWorker, sv[1]);
      worker_main(static_cast<mpc::MachineId>(rank), mine);
      _exit(0);  // worker_main should _exit itself; this is the backstop
    }
    ::close(sv[1]);
    pool.workers_[rank].pid = pid;
    pool.workers_[rank].fd = sv[0];
    pool.workers_[rank].channel.bind(Side::kCoordinator, sv[0]);
  }
  return pool;
}

ProcessPool::ProcessPool(ProcessPool&& other) noexcept
    : workers_(std::move(other.workers_)) {
  other.workers_.clear();
}

ProcessPool::~ProcessPool() { kill_all(); }

bool ProcessPool::try_reap(mpc::MachineId rank) {
  Worker& worker = workers_[rank];
  if (worker.reaped) return true;
  if (worker.pid < 0) return false;
  int status = 0;
  const pid_t done = ::waitpid(worker.pid, &status, WNOHANG);
  if (done == worker.pid) {
    worker.reaped = true;
    worker.exit_status = status;
    return true;
  }
  return false;
}

void ProcessPool::kill_all() {
  for (Worker& worker : workers_) {
    close_fd(worker.fd);
    if (worker.pid < 0) continue;  // never forked: no peer to wake
    worker.channel.close();
    if (worker.reaped) continue;
    ::kill(worker.pid, SIGKILL);
    int status = 0;
    pid_t done;
    do {
      done = ::waitpid(worker.pid, &status, 0);
    } while (done < 0 && errno == EINTR);
    worker.reaped = true;
    worker.exit_status = status;
  }
}

Status ProcessPool::join_all(int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  bool all_reaped = false;
  while (!all_reaped && Clock::now() < deadline) {
    all_reaped = true;
    for (std::size_t rank = 0; rank < workers_.size(); ++rank) {
      if (!try_reap(static_cast<mpc::MachineId>(rank))) all_reaped = false;
    }
    if (!all_reaped) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::size_t killed = 0;
  std::size_t failed = 0;
  for (Worker& worker : workers_) {
    if (!worker.reaped && worker.pid >= 0) ++killed;
  }
  kill_all();  // stragglers die here; also closes every fd
  for (const Worker& worker : workers_) {
    if (worker.pid >= 0 &&
        !(WIFEXITED(worker.exit_status) &&
          WEXITSTATUS(worker.exit_status) == 0)) {
      ++failed;
    }
  }
  if (killed > 0 || failed > 0) {
    return Status(StatusCode::kInternal,
                  "join_all: " + std::to_string(killed) + " workers killed, " +
                      std::to_string(failed) + " exited non-zero");
  }
  return Status::Ok();
}

}  // namespace mpte::ipc
