// Shared-memory parallel runtime (mpte::par).
//
// The paper's algorithms are parallel by construction: every machine's
// per-round work in Algorithm 2 / the MPC FJLT is independent, and the
// point-level kernels (FWHT, JL projections, ball assignment, distortion
// sampling) are embarrassingly parallel over points. This layer turns that
// structural parallelism into wall-clock speedup on one host:
//
//  * One lazily-created global ThreadPool with reusable workers (threads
//    are spawned once, not per call) that grows on demand up to the
//    largest degree ever requested.
//  * parallel_for / parallel_for_chunked split an index range into
//    *statically determined* contiguous chunks. Which worker executes a
//    chunk is scheduling noise; *what* each chunk computes is a pure
//    function of (range, chunk count), so any kernel whose chunks write
//    disjoint outputs — or whose per-chunk accumulators are merged in
//    chunk order — is deterministic at every thread count.
//  * Degree 1 (or a 0/1-length range, or a call from inside a worker —
//    nesting runs serial) executes the body inline on the calling thread,
//    bit-identical to the pre-parallel serial code path.
//  * The default degree is the MPTE_THREADS environment variable when set
//    to a positive integer, else std::thread::hardware_concurrency();
//    set_default_threads() overrides both at runtime (benches/tests).
//  * Exceptions thrown by chunk bodies are captured and the one from the
//    lowest-numbered chunk is rethrown on the calling thread after all
//    chunks finish, mirroring the serial failure order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mpte::par {

/// std::thread::hardware_concurrency(), floored at 1.
std::size_t hardware_threads();

/// Degree used when a call site passes threads = 0: the runtime override
/// from set_default_threads() if any, else MPTE_THREADS (positive integer)
/// if set, else hardware_threads().
std::size_t default_threads();

/// Overrides default_threads() process-wide; 0 restores the env/hardware
/// default. Intended for benches and tests that sweep thread counts.
void set_default_threads(std::size_t threads);

/// Resolves a requested thread count: `threads` if positive, else
/// default_threads().
std::size_t resolve_threads(std::size_t threads);

/// True on pool worker threads. Nested parallel_for calls detect this and
/// run serially (the outer loop already owns the available parallelism).
bool in_worker();

/// Body over a half-open index subrange [begin, end).
using RangeBody = std::function<void(std::size_t begin, std::size_t end)>;

/// Body with chunk identity, for per-chunk accumulator patterns.
using ChunkBody =
    std::function<void(std::size_t chunk, std::size_t begin, std::size_t end)>;

/// Runs `body` over [begin, end) split into min(threads, length) contiguous
/// chunks executed concurrently. threads = 0 means default_threads().
/// Blocks until every chunk finished; rethrows the lowest-chunk exception.
void parallel_for(std::size_t begin, std::size_t end, const RangeBody& body,
                  std::size_t threads = 0);

/// Like parallel_for but with an explicit chunk count (capped at the range
/// length) and a body that receives the chunk index — the building block
/// for deterministic reductions: size the accumulator array by chunk count,
/// let chunk c write slot c, merge slots in chunk order afterwards.
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          std::size_t num_chunks, const ChunkBody& body,
                          std::size_t threads = 0);

/// The process-wide worker pool behind parallel_for. Exposed for tests and
/// for callers that want task-index (rather than range) dispatch.
class ThreadPool {
 public:
  /// The lazily-constructed global pool (workers are spawned on demand by
  /// ensure_workers/run, so merely linking this layer costs nothing).
  static ThreadPool& global();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Grows the pool to at least `n` workers (never shrinks).
  void ensure_workers(std::size_t n);

  /// Executes fn(i) for every i in [0, tasks) across the workers and the
  /// calling thread, blocking until all complete. Tasks are claimed
  /// dynamically but are identified by index, so outputs keyed by task
  /// index are deterministic. Rethrows the lowest-index exception. Called
  /// from inside a worker, runs every task inline (serial).
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

  ThreadPool() = default;

 private:
  void worker_loop();
  /// Claims and runs tasks of the current batch until none remain.
  /// Expects `lock` held on mutex_; releases it around each body call.
  void execute_tasks(std::unique_lock<std::mutex>& lock);

  std::mutex run_mutex_;  // serializes concurrent top-level run() calls
  std::mutex mutex_;      // guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t total_ = 0;    // tasks in the current batch
  std::size_t next_ = 0;     // next unclaimed task index
  std::size_t pending_ = 0;  // tasks not yet finished
  std::size_t error_task_ = 0;
  std::exception_ptr error_;
  bool shutdown_ = false;
};

}  // namespace mpte::par
