#include "ipc/shm_ring.hpp"

#include <poll.h>
#include <sys/sysinfo.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>

#include "common/checksum.hpp"

namespace mpte::ipc {

namespace {

using Clock = std::chrono::steady_clock;

/// Spin iterations before parking on the futex. At ~1ns per relax this
/// covers the common case — the peer is mid-round and will advance the
/// cursor within a few microseconds — without burning a core for long.
constexpr int kSpinIterations = 4096;

/// Upper bound of one futex park. Between slices the waiter re-checks
/// the cursor, the closed flag, the deadline, and the peer fd — so a
/// SIGKILLed peer (which can never wake us) is detected within a slice.
constexpr int kFutexSliceMs = 50;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// True once the peer's end of the socketpair is gone (POLLHUP/POLLERR
/// with no events requested — a pure liveness probe, never a read).
bool peer_dead(int fd) {
  if (fd < 0) return false;
  struct pollfd p;
  p.fd = fd;
  p.events = 0;
  p.revents = 0;
  if (::poll(&p, 1, 0) <= 0) return false;
  return (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
}

/// One budget for a whole operation; timeout_ms < 0 never expires.
class Deadline {
 public:
  explicit Deadline(int timeout_ms)
      : infinite_(timeout_ms < 0),
        at_(Clock::now() + std::chrono::milliseconds(infinite_ ? 0
                                                               : timeout_ms)) {}

  /// Milliseconds left (-1 when infinite, 0 once passed).
  int remaining_ms() const {
    if (infinite_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        at_ - Clock::now());
    return static_cast<int>(std::max<std::int64_t>(0, left.count()));
  }

  /// Milliseconds for the next futex slice: min(slice, time left), 0
  /// once the deadline has passed.
  int next_slice_ms() const {
    if (infinite_) return kFutexSliceMs;
    return std::min(remaining_ms(), kFutexSliceMs);
  }

 private:
  bool infinite_;
  Clock::time_point at_;
};

/// One wait of either side of a ring for the other: `cursor` is the
/// peer's index, last seen at `seen`; `seq` is the futex word the peer
/// bumps when it advances `cursor`, and `waiting` is this side's park
/// flag. Spins, then parks for at most one slice. Ok once the cursor
/// moved, the ring closed, or the slice ended (the caller re-reads the
/// cursors); kUnavailable once the peer's end of `peer_fd` is gone;
/// kDeadlineExceeded past the deadline.
Status await_peer(const RingHeader& header,
                  const std::atomic<std::uint64_t>& cursor,
                  std::uint64_t seen, std::atomic<std::uint32_t>& seq,
                  std::atomic<std::uint32_t>& waiting, int peer_fd,
                  const Deadline& deadline) {
  const auto moved = [&](std::memory_order order) {
    return cursor.load(order) != seen ||
           header.closed.load(std::memory_order_acquire) != 0;
  };
  for (int i = 0; i < kSpinIterations; ++i) {
    if (moved(std::memory_order_acquire)) return Status::Ok();
    cpu_relax();
  }
  if (peer_dead(peer_fd)) {
    return Status(StatusCode::kUnavailable, "shm ring: peer closed");
  }
  const int slice = deadline.next_slice_ms();
  if (slice == 0) {
    return Status(StatusCode::kDeadlineExceeded, "shm ring: timed out");
  }
  // Dekker-style park: flag (seq_cst) then re-check, against the peer's
  // cursor-store/flag-load on the other side — one of the two always
  // observes the other, so no wake is ever missed.
  const std::uint32_t expected = seq.load(std::memory_order_acquire);
  waiting.store(1, std::memory_order_seq_cst);
  if (!moved(std::memory_order_seq_cst)) futex_wait(seq, expected, slice);
  waiting.store(0, std::memory_order_relaxed);
  return Status::Ok();
}

/// The most bytes one frame may occupy: this host's memory and swap. The
/// sender held the whole envelope in memory to write it, so a header
/// claiming more is corrupt, and refusing it keeps a hostile length away
/// from operator new (which a sanitizer build aborts on, not throws).
std::uint64_t max_frame_bytes() {
  static const std::uint64_t bytes = [] {
    struct sysinfo info {};
    if (::sysinfo(&info) != 0 || info.totalram == 0) {
      return std::uint64_t{SIZE_MAX};
    }
    const std::uint64_t total =
        (static_cast<std::uint64_t>(info.totalram) + info.totalswap) *
        std::max<std::uint64_t>(info.mem_unit, 1);
    return std::min<std::uint64_t>(total, SIZE_MAX);
  }();
  return bytes;
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

constexpr std::size_t kMinRingBytes = 1u << 10;
constexpr std::uint64_t kChannelMagic = 0x4d505445'52494e47ull;  // "MPTERING"

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

}  // namespace

Status ShmRing::write(std::span<const std::uint8_t> bytes, int peer_fd,
                      int timeout_ms) {
  const Deadline deadline(timeout_ms);
  const std::size_t mask = capacity_ - 1;
  std::size_t offset = 0;
  bool blocking_counted = false;
  while (offset < bytes.size()) {
    if (closed()) {
      return Status(StatusCode::kUnavailable, "shm ring: closed");
    }
    const std::uint64_t head = header_->head.load(std::memory_order_acquire);
    const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
    const std::size_t free = capacity_ - static_cast<std::size_t>(tail - head);
    if (free == 0) {
      if (!blocking_counted) {
        header_->full_waits.fetch_add(1, std::memory_order_relaxed);
        blocking_counted = true;
      }
      const Status waited =
          await_peer(*header_, header_->head, head, header_->head_seq,
                     header_->writer_waiting, peer_fd, deadline);
      if (!waited.ok()) return waited;
      continue;
    }
    blocking_counted = false;
    const std::size_t at = static_cast<std::size_t>(tail & mask);
    const std::size_t chunk =
        std::min({bytes.size() - offset, free, capacity_ - at});
    std::memcpy(data_ + at, bytes.data() + offset, chunk);
    if (at + chunk == capacity_) {
      header_->wraps.fetch_add(1, std::memory_order_relaxed);
    }
    header_->bytes.fetch_add(chunk, std::memory_order_relaxed);
    header_->tail.store(tail + chunk, std::memory_order_release);
    header_->tail_seq.fetch_add(1, std::memory_order_seq_cst);
    if (header_->reader_waiting.load(std::memory_order_seq_cst) != 0) {
      futex_wake_all(header_->tail_seq);
    }
    offset += chunk;
  }
  return Status::Ok();
}

Status ShmRing::read(std::span<std::uint8_t> out, int peer_fd,
                     int timeout_ms) {
  const Deadline deadline(timeout_ms);
  const std::size_t mask = capacity_ - 1;
  std::size_t offset = 0;
  while (offset < out.size()) {
    const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
    const std::size_t avail = static_cast<std::size_t>(tail - head);
    if (avail == 0) {
      // A closed ring may still be drained; only fail once it is empty.
      if (closed()) {
        return Status(StatusCode::kUnavailable, "shm ring: closed");
      }
      const Status waited =
          await_peer(*header_, header_->tail, tail, header_->tail_seq,
                     header_->reader_waiting, peer_fd, deadline);
      if (!waited.ok()) return waited;
      continue;
    }
    const std::size_t at = static_cast<std::size_t>(head & mask);
    const std::size_t chunk =
        std::min({out.size() - offset, avail, capacity_ - at});
    std::memcpy(out.data() + offset, data_ + at, chunk);
    header_->head.store(head + chunk, std::memory_order_release);
    header_->head_seq.fetch_add(1, std::memory_order_seq_cst);
    if (header_->writer_waiting.load(std::memory_order_seq_cst) != 0) {
      futex_wake_all(header_->head_seq);
    }
    offset += chunk;
  }
  return Status::Ok();
}

void ShmRing::close() {
  header_->closed.store(1, std::memory_order_seq_cst);
  // Bump both futex words so parked waiters fail their expected-value
  // check immediately instead of sleeping out the slice.
  header_->tail_seq.fetch_add(1, std::memory_order_seq_cst);
  header_->head_seq.fetch_add(1, std::memory_order_seq_cst);
  futex_wake_all(header_->tail_seq);
  futex_wake_all(header_->head_seq);
}

struct ShmChannel::Meta {
  std::uint64_t magic = kChannelMagic;
  std::uint64_t ring_capacity = 0;
  std::uint64_t arena_capacity = 0;
  /// Blob bytes passed through the arenas (both directions).
  std::atomic<std::uint64_t> arena_bytes{0};
};

Result<ShmChannel> ShmChannel::create(const Config& config) {
  const std::size_t ring_capacity =
      round_up_pow2(std::max(config.ring_bytes, kMinRingBytes));
  const std::size_t arena_capacity = config.arena_bytes;

  const std::size_t meta_at = 0;
  const std::size_t header_to_worker_at =
      align_up(meta_at + sizeof(Meta), alignof(RingHeader));
  const std::size_t header_to_coord_at =
      align_up(header_to_worker_at + sizeof(RingHeader), alignof(RingHeader));
  const std::size_t data_to_worker_at =
      align_up(header_to_coord_at + sizeof(RingHeader), 64);
  const std::size_t data_to_coord_at = data_to_worker_at + ring_capacity;
  const std::size_t arena_to_worker_at =
      align_up(data_to_coord_at + ring_capacity, 64);
  const std::size_t arena_to_coord_at = arena_to_worker_at + arena_capacity;
  const std::size_t total = arena_to_coord_at + arena_capacity;

  auto region = ShmRegion::create(total, "mpte-ipc-channel");
  if (!region.ok()) return region.status();

  ShmChannel channel;
  channel.region_ = std::move(*region);
  std::uint8_t* base = channel.region_.data();
  channel.meta_ = new (base + meta_at) Meta();
  channel.meta_->ring_capacity = ring_capacity;
  channel.meta_->arena_capacity = arena_capacity;
  auto* header_to_worker = new (base + header_to_worker_at) RingHeader();
  auto* header_to_coord = new (base + header_to_coord_at) RingHeader();
  channel.to_worker_ =
      ShmRing(header_to_worker, base + data_to_worker_at, ring_capacity);
  channel.to_coordinator_ =
      ShmRing(header_to_coord, base + data_to_coord_at, ring_capacity);
  channel.arena_to_worker_ = base + arena_to_worker_at;
  channel.arena_to_coordinator_ = base + arena_to_coord_at;
  channel.arena_capacity_ = arena_capacity;
  return channel;
}

void ShmChannel::bind(Side side, int fd) {
  side_ = side;
  fd_ = fd;
  send_arena_.base =
      side == Side::kCoordinator ? arena_to_worker_ : arena_to_coordinator_;
  send_arena_.capacity = arena_capacity_;
  send_arena_.used = 0;
}

ShmRing& ShmChannel::send_ring() {
  return side_ == Side::kCoordinator ? to_worker_ : to_coordinator_;
}

ShmRing& ShmChannel::recv_ring() {
  return side_ == Side::kCoordinator ? to_coordinator_ : to_worker_;
}

BlobArena* ShmChannel::encode_arena() {
  send_arena_.reset();
  return &send_arena_;
}

Status ShmChannel::send_frame(const mpc::Buffer& encoded, int timeout_ms) {
  // Whatever the last encode staged in the arena rides along with this
  // frame; account it once and forget it (the next encode resets).
  if (send_arena_.used > 0) {
    meta_->arena_bytes.fetch_add(send_arena_.used,
                                 std::memory_order_relaxed);
    send_arena_.used = 0;
  }
  return send_ring().write(encoded.span(), fd_, timeout_ms);
}

Result<Frame> ShmChannel::recv_frame(int timeout_ms) {
  ShmRing& ring = recv_ring();
  const Deadline deadline(timeout_ms);
  std::array<std::uint8_t, kEnvelopeHeaderBytes> header;
  const Status got_header = ring.read(header, fd_, deadline.remaining_ms());
  if (!got_header.ok()) return got_header;
  const auto payload_size =
      envelope_payload_size(header, "ipc frame header");
  if (!payload_size.ok()) return payload_size.status();
  // Checked before any arithmetic: the sum below cannot overflow, and a
  // claim no sender could have held is refused before the allocation.
  const std::uint64_t framing = kEnvelopeHeaderBytes + kEnvelopeTrailerBytes;
  if (*payload_size > max_frame_bytes() - framing) {
    return Status(StatusCode::kInvalidArgument,
                  "ipc frame: header claims " + std::to_string(*payload_size) +
                      " payload bytes, more than this host's memory");
  }
  const std::size_t size = static_cast<std::size_t>(*payload_size + framing);
  // Default-initialised: a page is touched only when ring bytes land on it.
  std::unique_ptr<std::uint8_t[]> envelope;
  try {
    envelope = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  } catch (const std::bad_alloc&) {
    return Status(StatusCode::kResourceExhausted,
                  "ipc frame: cannot allocate " + std::to_string(size) +
                      " bytes");
  }
  std::memcpy(envelope.get(), header.data(), header.size());
  const Status got_rest =
      ring.read({envelope.get() + header.size(), size - header.size()}, fd_,
                deadline.remaining_ms());
  if (!got_rest.ok()) return got_rest;
  const std::span<const std::uint8_t> arena(
      side_ == Side::kCoordinator ? arena_to_coordinator_ : arena_to_worker_,
      arena_capacity_);
  return decode_envelope({envelope.get(), size}, arena);
}

void ShmChannel::close() {
  to_worker_.close();
  to_coordinator_.close();
}

RingCounters ShmChannel::drain_counters() {
  const auto ring_total = [](const ShmRing& ring) {
    const RingHeader* h = ring.header();
    RingCounters c;
    c.wraps = h->wraps.load(std::memory_order_relaxed);
    c.full_waits = h->full_waits.load(std::memory_order_relaxed);
    c.shm_bytes = h->bytes.load(std::memory_order_relaxed);
    return c;
  };
  RingCounters total = ring_total(to_worker_);
  total += ring_total(to_coordinator_);
  total.shm_bytes += meta_->arena_bytes.load(std::memory_order_relaxed);

  RingCounters delta;
  delta.wraps = total.wraps - drained_.wraps;
  delta.full_waits = total.full_waits - drained_.full_waits;
  delta.shm_bytes = total.shm_bytes - drained_.shm_bytes;
  drained_ = total;
  return delta;
}

}  // namespace mpte::ipc
