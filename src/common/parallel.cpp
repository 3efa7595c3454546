#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace mpte::par {

namespace {

thread_local bool t_in_worker = false;

std::atomic<std::size_t> g_default_override{0};

std::size_t env_threads() {
  static const std::size_t cached = [] {
    const char* value = std::getenv("MPTE_THREADS");
    if (value == nullptr) return std::size_t{0};
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(value, &end, 10);
    if (end == value || *end != '\0') return std::size_t{0};
    return static_cast<std::size_t>(parsed);
  }();
  return cached;
}

}  // namespace

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t default_threads() {
  const std::size_t override = g_default_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  const std::size_t env = env_threads();
  return env > 0 ? env : hardware_threads();
}

void set_default_threads(std::size_t threads) {
  g_default_override.store(threads, std::memory_order_relaxed);
}

std::size_t resolve_threads(std::size_t threads) {
  return threads > 0 ? threads : default_threads();
}

bool in_worker() { return t_in_worker; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ensure_workers(std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (workers_.size() < n) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return shutdown_ || (fn_ != nullptr && next_ < total_);
    });
    if (shutdown_) return;
    execute_tasks(lock);
  }
}

void ThreadPool::execute_tasks(std::unique_lock<std::mutex>& lock) {
  while (fn_ != nullptr && next_ < total_) {
    const std::size_t task = next_++;
    const auto* fn = fn_;
    lock.unlock();
    std::exception_ptr thrown;
    try {
      (*fn)(task);
    } catch (...) {
      thrown = std::current_exception();
    }
    lock.lock();
    if (thrown && (error_ == nullptr || task < error_task_)) {
      error_ = thrown;
      error_task_ = task;
    }
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run(std::size_t tasks,
                     const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (t_in_worker) {
    // Nested dispatch from inside a worker: the outer batch owns the pool;
    // run inline (serial, ascending index — the serial semantics).
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    total_ = tasks;
    next_ = 0;
    pending_ = tasks;
    error_ = nullptr;
    error_task_ = 0;
  }
  work_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // The calling thread participates in the batch. While it executes
    // chunk bodies it must count as "inside the pool" so a nested
    // parallel_for from a body runs inline instead of re-entering run()
    // (which would self-deadlock on run_mutex_).
    t_in_worker = true;
    execute_tasks(lock);
    t_in_worker = false;
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t begin, std::size_t end, const RangeBody& body,
                  std::size_t threads) {
  parallel_for_chunked(
      begin, end, resolve_threads(threads),
      [&body](std::size_t /*chunk*/, std::size_t b, std::size_t e) {
        body(b, e);
      },
      threads);
}

void parallel_for_chunked(std::size_t begin, std::size_t end,
                          std::size_t num_chunks, const ChunkBody& body,
                          std::size_t threads) {
  if (end <= begin) return;
  const std::size_t length = end - begin;
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(num_chunks, length));
  // Chunk c covers [begin + c*length/chunks, begin + (c+1)*length/chunks):
  // a pure function of (range, chunk count), independent of thread count.
  const auto chunk_begin = [begin, length, chunks](std::size_t c) {
    return begin + (length * c) / chunks;
  };
  const std::size_t degree =
      std::min(resolve_threads(threads), chunks);
  if (degree <= 1 || chunks == 1 || in_worker()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      body(c, chunk_begin(c), chunk_begin(c + 1));
    }
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(degree - 1);  // the caller is the degree-th thread
  pool.run(chunks, [&](std::size_t c) {
    body(c, chunk_begin(c), chunk_begin(c + 1));
  });
}

}  // namespace mpte::par
