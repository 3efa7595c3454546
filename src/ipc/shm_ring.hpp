// Shared-memory ring transport for the multi-process MPC backend.
//
// One ShmChannel per worker, carved out of a single pre-fork ShmRegion:
//
//   ChannelMeta | RingHeader (c->w) | RingHeader (w->c)
//   | ring data  (c->w) | ring data  (w->c)
//   | blob arena (c->w) | blob arena (w->c)
//
// Each direction is one fixed-capacity SPSC byte ring: a producer-owned
// free-running tail index, a consumer-owned head index, and a 32-bit
// futex word per index that the advancing side bumps and wakes. Waiters
// spin briefly (kSpinIterations) before parking on the futex in bounded
// slices; between slices they poll the rank's retained socketpair fd, so
// a SIGKILLed peer — which can never set the `closed` flag — still
// surfaces as POLLHUP within one slice. That probe is the socketpair's
// only use: every frame, whatever its size, crosses the ring as the
// standard checksummed frames.hpp envelope, streamed in chunks while
// the consumer drains, and the receiver learns its length from the
// envelope header. Large blobs ride the per-direction arena by
// (offset, length) reference — see frames.hpp BlobArena. ProcessPool
// holds one ShmChannel per worker and ProcBackend talks to workers
// through it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/shm.hpp"
#include "ipc/frames.hpp"

namespace mpte::ipc {

/// Monotonic transport counters, exported as mpte_ipc_* metrics. They
/// live in the shared ChannelMeta/RingHeader so whichever side performs
/// the action records it; the coordinator drains deltas per round.
struct RingCounters {
  /// Frame writes that wrapped past the end of the ring buffer.
  std::uint64_t wraps = 0;
  /// Blocking episodes where a producer found the ring full.
  std::uint64_t full_waits = 0;
  /// Bytes moved through rings and arenas (both directions).
  std::uint64_t shm_bytes = 0;

  RingCounters& operator+=(const RingCounters& o) {
    wraps += o.wraps;
    full_waits += o.full_waits;
    shm_bytes += o.shm_bytes;
    return *this;
  }
};

/// Shared-memory control block of one SPSC byte ring. Producer and
/// consumer fields sit on separate cache lines; indices are free-running
/// (never wrapped), so `tail - head` is the exact byte occupancy.
struct alignas(64) RingHeader {
  /// Producer cursor: total bytes ever written.
  std::atomic<std::uint64_t> tail{0};
  /// Futex word bumped on every tail advance (consumer parks on it).
  std::atomic<std::uint32_t> tail_seq{0};
  /// Set (seq_cst) by the producer around its futex park so the consumer
  /// can skip the wake syscall when nobody is listening.
  std::atomic<std::uint32_t> writer_waiting{0};
  std::atomic<std::uint64_t> wraps{0};
  std::atomic<std::uint64_t> bytes{0};
  /// Consumer cursor: total bytes ever read.
  alignas(64) std::atomic<std::uint64_t> head{0};
  /// Futex word bumped on every head advance (producer parks on it).
  std::atomic<std::uint32_t> head_seq{0};
  /// Consumer's park flag, mirror of writer_waiting.
  std::atomic<std::uint32_t> reader_waiting{0};
  std::atomic<std::uint64_t> full_waits{0};
  /// Either side sets this to end the conversation; both futexes are
  /// woken. Readers may drain what remains; writers fail immediately.
  alignas(64) std::atomic<std::uint32_t> closed{0};
};

/// A view over one SPSC ring (header + data) inside a shared region.
/// Exactly one producer process calls write() and exactly one consumer
/// process calls read(); the header's atomics carry the synchronization.
class ShmRing {
 public:
  ShmRing() = default;
  ShmRing(RingHeader* header, std::uint8_t* data, std::size_t capacity)
      : header_(header), data_(data), capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }

  /// Copies all of `bytes` into the ring, consuming free space as it
  /// appears (chunked, so writes larger than the current free space — up
  /// to any size — stream through while the consumer drains). Blocks
  /// with spin-then-futex waits. `peer_fd` (>= 0) is polled for
  /// POLLHUP/POLLERR between futex slices; `timeout_ms` < 0 blocks
  /// indefinitely. kUnavailable once the ring is closed or the peer
  /// died; kDeadlineExceeded past the budget.
  Status write(std::span<const std::uint8_t> bytes, int peer_fd,
               int timeout_ms);

  /// Fills all of `out` from the ring, draining data as it appears.
  /// Same blocking/failure contract as write(); a closed ring may still
  /// be drained until empty.
  Status read(std::span<std::uint8_t> out, int peer_fd, int timeout_ms);

  /// Bytes currently readable.
  std::size_t readable() const {
    return static_cast<std::size_t>(
        header_->tail.load(std::memory_order_acquire) -
        header_->head.load(std::memory_order_acquire));
  }

  /// Marks the ring closed and wakes both sides.
  void close();
  bool closed() const {
    return header_->closed.load(std::memory_order_acquire) != 0;
  }

  RingHeader* header() const { return header_; }

 private:
  RingHeader* header_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// Which end of a channel this process is. The coordinator produces on
/// the c->w ring and consumes w->c; a worker is the mirror image.
enum class Side : std::uint8_t { kCoordinator = 0, kWorker = 1 };

/// One coordinator<->worker duplex channel: two rings + two blob arenas
/// in one ShmRegion, created before fork so both processes inherit the
/// mapping. bind() fixes which end this process is and attaches the
/// rank's socketpair fd, the liveness probe of every wait.
class ShmChannel {
 public:
  struct Config {
    /// Data capacity of each ring, rounded up to a power of two.
    std::size_t ring_bytes = 1u << 20;
    /// Capacity of each blob arena.
    std::size_t arena_bytes = 4u << 20;
  };

  static Result<ShmChannel> create(const Config& config);

  ShmChannel() = default;
  ShmChannel(ShmChannel&&) = default;
  ShmChannel& operator=(ShmChannel&&) = default;

  void bind(Side side, int fd);

  /// Writes one encoded frame to the send ring. A frame larger than the
  /// ring streams through it as the peer drains. Codes as ShmRing::write.
  Status send_frame(const mpc::Buffer& encoded, int timeout_ms = -1);

  /// Reads one frame off the receive ring and decodes it, resolving arena
  /// blob references against the peer's send arena. `timeout_ms` bounds
  /// the whole frame; < 0 blocks indefinitely. kDeadlineExceeded past the
  /// budget, kUnavailable once the ring closed or the peer died,
  /// kInvalidArgument for bytes that are not a well-formed frame
  /// (including a header claiming more bytes than this host's memory),
  /// kResourceExhausted when the frame's buffer cannot be allocated.
  Result<Frame> recv_frame(int timeout_ms);

  /// The arena frames we *send* may reference. Resets it — callers
  /// encode at most one frame per arena reset, which the alternating
  /// request/response protocol guarantees (see file comment).
  BlobArena* encode_arena();

  /// Closes both rings and wakes any waiter (ours or the peer's).
  void close();

  /// Counter deltas since the last drain. Sums both rings plus the
  /// channel-level arena counter; call from one side only (the
  /// coordinator) for coherent totals.
  RingCounters drain_counters();

  /// Test hooks: the raw rings in each direction for this side.
  ShmRing& send_ring();
  ShmRing& recv_ring();

 private:
  struct Meta;

  ShmRegion region_;
  Meta* meta_ = nullptr;
  ShmRing to_worker_;
  ShmRing to_coordinator_;
  std::uint8_t* arena_to_worker_ = nullptr;
  std::uint8_t* arena_to_coordinator_ = nullptr;
  std::size_t arena_capacity_ = 0;
  BlobArena send_arena_{};
  Side side_ = Side::kCoordinator;
  int fd_ = -1;
  RingCounters drained_{};
};

}  // namespace mpte::ipc
