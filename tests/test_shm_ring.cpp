// Tests for the shared-memory SPSC ring primitive (src/ipc/shm_ring.*).
//
// The ring is exercised in-process: two ShmRing views (one producer, one
// consumer) over the same RingHeader + data region inside a ShmRegion,
// driven from separate threads where blocking matters. The non-PRIVATE
// futex protocol works identically between threads of one process and
// across fork, so these tests cover the exact code the multi-process
// backend runs — including the 2-thread hammer that TSan watches in CI.
#include "ipc/shm_ring.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/shm.hpp"
#include "ipc/frames.hpp"

namespace mpte::ipc {
namespace {

/// One ring (header + data) in real shared memory, with a producer view
/// and a consumer view the way the two processes of a channel see it.
struct RingFixture {
  ShmRegion region;
  ShmRing producer;
  ShmRing consumer;
  RingHeader* header = nullptr;
  std::uint8_t* data = nullptr;
  std::size_t capacity = 0;

  static RingFixture make(std::size_t capacity) {
    RingFixture f;
    auto region = ShmRegion::create(sizeof(RingHeader) + capacity,
                                    "mpte-test-ring");
    EXPECT_TRUE(region.ok()) << region.status().to_string();
    f.region = std::move(*region);
    f.header = new (f.region.data()) RingHeader();
    f.data = f.region.data() + sizeof(RingHeader);
    f.capacity = capacity;
    f.producer = ShmRing(f.header, f.data, capacity);
    f.consumer = ShmRing(f.header, f.data, capacity);
    return f;
  }
};

std::vector<std::uint8_t> pattern(std::size_t size, std::uint8_t seed) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed + i * 131u);
  }
  return bytes;
}

TEST(ShmRing, WrapAroundAtOddFrameSizes) {
  auto f = RingFixture::make(1u << 10);
  // Odd, mutually-misaligned sizes force the write cursor across the
  // capacity boundary many times; every read must still see the bytes in
  // order and intact.
  const std::size_t sizes[] = {37, 101, 499, 13, 721, 255, 1};
  std::uint8_t seed = 1;
  for (int iter = 0; iter < 64; ++iter) {
    for (const std::size_t size : sizes) {
      const auto sent = pattern(size, seed);
      ASSERT_TRUE(
          f.producer.write({sent.data(), sent.size()}, -1, 2000).ok());
      std::vector<std::uint8_t> got(size);
      ASSERT_TRUE(f.consumer.read({got.data(), got.size()}, -1, 2000).ok());
      ASSERT_EQ(sent, got) << "size " << size << " iter " << iter;
      ++seed;
    }
  }
  EXPECT_GT(f.header->wraps.load(), 0u);
  EXPECT_EQ(f.header->bytes.load(),
            64u * (37 + 101 + 499 + 13 + 721 + 255 + 1));
  EXPECT_EQ(f.consumer.readable(), 0u);
}

TEST(ShmRing, FullRingBlocksProducerUntilConsumerDrains) {
  auto f = RingFixture::make(1u << 10);
  // 4x the capacity: the producer must block (counted in full_waits) and
  // stream the rest through as the consumer frees space.
  const auto sent = pattern(4u << 10, 7);
  Status write_status;
  std::thread producer([&] {
    write_status = f.producer.write({sent.data(), sent.size()}, -1, 10000);
  });
  // Let the producer actually hit the full ring before draining.
  while (f.header->full_waits.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<std::uint8_t> got(sent.size());
  ASSERT_TRUE(f.consumer.read({got.data(), got.size()}, -1, 10000).ok());
  producer.join();
  EXPECT_TRUE(write_status.ok()) << write_status.to_string();
  EXPECT_EQ(sent, got);
  EXPECT_GE(f.header->full_waits.load(), 1u);
}

TEST(ShmRing, CloseWakesBlockedReaderAsUnavailable) {
  auto f = RingFixture::make(1u << 10);
  Status read_status;
  std::uint8_t byte = 0;
  std::thread consumer([&] {
    read_status = f.consumer.read({&byte, 1}, -1, 10000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  f.producer.close();
  consumer.join();
  EXPECT_EQ(read_status.code(), StatusCode::kUnavailable)
      << read_status.to_string();
}

TEST(ShmRing, ClosedRingDrainsRemainingBytesThenFails) {
  auto f = RingFixture::make(1u << 10);
  const auto sent = pattern(64, 3);
  ASSERT_TRUE(f.producer.write({sent.data(), sent.size()}, -1, 2000).ok());
  f.producer.close();
  // Readers may drain what was written before the close...
  std::vector<std::uint8_t> got(sent.size());
  ASSERT_TRUE(f.consumer.read({got.data(), got.size()}, -1, 2000).ok());
  EXPECT_EQ(sent, got);
  // ...then see kUnavailable; writers fail immediately.
  std::uint8_t byte = 0;
  EXPECT_EQ(f.consumer.read({&byte, 1}, -1, 2000).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(f.producer.write({&byte, 1}, -1, 2000).code(),
            StatusCode::kUnavailable);
}

TEST(ShmRing, DeadPeerFdUnblocksWriterOnFullRing) {
  auto f = RingFixture::make(1u << 10);
  // Fill the ring so the writer must park, watching a socketpair whose
  // peer end is gone — the SIGKILLed-worker shape, where nobody ever
  // sets the closed flag.
  const auto fill = pattern(f.capacity, 9);
  ASSERT_TRUE(f.producer.write({fill.data(), fill.size()}, -1, 2000).ok());
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);  // peer "dies"
  std::uint8_t byte = 0;
  const Status status = f.producer.write({&byte, 1}, sv[0], 10000);
  ::close(sv[0]);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.to_string();
}

TEST(ShmRing, ReadTimesOutAsDeadlineExceeded) {
  auto f = RingFixture::make(1u << 10);
  std::uint8_t byte = 0;
  const Status status = f.consumer.read({&byte, 1}, -1, 30);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.to_string();
}

TEST(ShmRing, CorruptedEnvelopeOnRingIsRejectedByDecode) {
  auto f = RingFixture::make(1u << 12);
  // The channel's frame-on-ring protocol: the checksummed envelope as it
  // is, its header first.
  ErrorFrame error;
  error.rank = 3;
  error.round = 41;
  error.message = "step failed";
  const mpc::Buffer encoded = encode_error(error);
  ASSERT_TRUE(f.producer.write({encoded.data(), encoded.size()}, -1, 2000)
                  .ok());
  // Flip one payload byte *in the shared ring data* — torn/corrupted
  // shared pages must not survive the digest check.
  f.data[kEnvelopeHeaderBytes] ^= 0x40;
  std::vector<std::uint8_t> envelope(encoded.size());
  ASSERT_TRUE(
      f.consumer.read({envelope.data(), envelope.size()}, -1, 2000).ok());
  const auto decoded = decode_envelope({envelope.data(), envelope.size()});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  // The same bytes un-corrupted decode fine (the failure above was the
  // flipped bit, not the harness).
  envelope[kEnvelopeHeaderBytes] ^= 0x40;
  const auto fixed = decode_envelope({envelope.data(), envelope.size()});
  ASSERT_TRUE(fixed.ok()) << fixed.status().to_string();
  EXPECT_EQ(fixed->kind, FrameKind::kError);
  EXPECT_EQ(fixed->round, 41u);
  EXPECT_EQ(fixed->error.message, "step failed");
}

TEST(ShmRing, TwoThreadHammer) {
  // A small ring + many variable-size messages keeps both sides cycling
  // through every path: wrap, full-wait, empty-wait, futex park/wake.
  // TSan runs this in CI; any missing happens-before edge in the cursor
  // protocol shows up here.
  auto f = RingFixture::make(1u << 12);
  constexpr std::size_t kMessages = 2000;
  std::uint32_t rng = 0x9e3779b9u;
  std::vector<std::size_t> sizes(kMessages);
  for (auto& size : sizes) {
    rng = rng * 1664525u + 1013904223u;
    size = 1 + (rng >> 20) % 700;  // 1..700 bytes, crosses wrap constantly
  }
  Status producer_status, consumer_status;
  std::thread producer([&] {
    for (std::size_t i = 0; i < kMessages; ++i) {
      const auto msg = pattern(sizes[i], static_cast<std::uint8_t>(i));
      producer_status = f.producer.write({msg.data(), msg.size()}, -1, 30000);
      if (!producer_status.ok()) return;
    }
  });
  std::thread consumer([&] {
    for (std::size_t i = 0; i < kMessages; ++i) {
      std::vector<std::uint8_t> got(sizes[i]);
      consumer_status = f.consumer.read({got.data(), got.size()}, -1, 30000);
      if (!consumer_status.ok()) return;
      const auto want = pattern(sizes[i], static_cast<std::uint8_t>(i));
      if (got != want) {
        consumer_status = Status(StatusCode::kInternal,
                                 "payload mismatch at message " +
                                     std::to_string(i));
        return;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_TRUE(producer_status.ok()) << producer_status.to_string();
  EXPECT_TRUE(consumer_status.ok()) << consumer_status.to_string();
  std::size_t total = 0;
  for (const auto size : sizes) total += size;
  EXPECT_EQ(f.header->bytes.load(), total);
  EXPECT_EQ(f.consumer.readable(), 0u);
}

/// A kStep frame whose envelope is exactly `envelope_bytes` long: the
/// step name absorbs the difference.
mpc::Buffer step_of_size(std::size_t envelope_bytes, std::uint64_t round) {
  StepFrame step;
  step.rank = 2;
  step.round = round;
  const std::size_t bare = encode_step(step).size();
  EXPECT_GE(envelope_bytes, bare);
  step.step_name.assign(envelope_bytes - bare, 'a' + round % 26);
  mpc::Buffer encoded = encode_step(step);
  EXPECT_EQ(encoded.size(), envelope_bytes);
  return encoded;
}

/// A channel over a 1 KiB ring, bound as the coordinator, with the rank's
/// socketpair as in a real spawn.
struct ChannelFixture {
  ShmChannel channel;
  int sv[2] = {-1, -1};

  ChannelFixture() {
    ShmChannel::Config config;
    config.ring_bytes = 1u << 10;
    config.arena_bytes = 1u << 12;
    auto created = ShmChannel::create(config);
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    channel = std::move(*created);
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    channel.bind(Side::kCoordinator, sv[0]);
  }
  ~ChannelFixture() {
    channel.close();
    ::close(sv[0]);
    ::close(sv[1]);
  }
};

TEST(ShmChannel, FramesLargerThanTheRingStreamThroughItInOrder) {
  // A frame that fills the 1 KiB ring exactly, one 8x the ring, and
  // another that fills it, in that order. The coordinator sends them
  // with send_frame and reads them back with recv_frame; a second thread,
  // the worker, echoes every byte from one ring to the other, so both
  // directions stream the oversized frame in chunks.
  ChannelFixture f;
  ShmChannel& channel = f.channel;
  const std::size_t ring = channel.send_ring().capacity();
  ASSERT_EQ(ring, 1u << 10);
  const std::vector<mpc::Buffer> frames = {
      step_of_size(ring, 1), step_of_size(8 * ring, 2),
      step_of_size(ring, 3)};
  std::size_t total = 0;
  for (const mpc::Buffer& frame : frames) total += frame.size();

  Status echo_status;
  std::thread worker([&] {
    std::vector<std::uint8_t> bytes;
    for (const mpc::Buffer& frame : frames) {
      bytes.resize(frame.size());
      echo_status = channel.send_ring().read(bytes, -1, 10000);
      if (!echo_status.ok()) return;
      echo_status = channel.recv_ring().write(bytes, -1, 10000);
      if (!echo_status.ok()) return;
    }
  });
  for (const mpc::Buffer& frame : frames) {
    EXPECT_TRUE(channel.send_frame(frame, 10000).ok());
  }
  for (std::uint64_t round = 1; round <= frames.size(); ++round) {
    auto got = channel.recv_frame(10000);
    if (!got.ok()) {
      ADD_FAILURE() << got.status().to_string();
      break;
    }
    EXPECT_EQ(got->kind, FrameKind::kStep);
    EXPECT_EQ(got->round, round);
    EXPECT_EQ(got->wire_bytes, frames[round - 1].size());
  }
  worker.join();
  EXPECT_TRUE(echo_status.ok()) << echo_status.to_string();

  // Every byte crossed each ring once; nothing took another carrier.
  EXPECT_EQ(channel.send_ring().header()->bytes.load(), total);
  EXPECT_EQ(channel.recv_ring().header()->bytes.load(), total);
  const RingCounters counters = channel.drain_counters();
  EXPECT_EQ(counters.shm_bytes, 2 * total);
  EXPECT_GE(counters.full_waits, 1u);
  // A second drain reports only what happened since (nothing).
  const RingCounters again = channel.drain_counters();
  EXPECT_EQ(again.shm_bytes, 0u);
  EXPECT_EQ(again.full_waits, 0u);
}

/// The 16-byte envelope header of a frame claiming `payload_size` bytes.
std::vector<std::uint8_t> header_claiming(std::uint64_t payload_size) {
  std::vector<std::uint8_t> envelope = wrap_checksummed({});
  std::memcpy(envelope.data() + 2 * sizeof(std::uint32_t), &payload_size,
              sizeof(payload_size));
  envelope.resize(kEnvelopeHeaderBytes);
  return envelope;
}

/// This process's resident set (VmRSS), in KiB.
long rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

TEST(ShmChannel, HostileFrameHeadersReturnAStatus) {
  // A header whose envelope size wraps size_t, and one no host's memory
  // could hold, are refused before anything is allocated.
  for (const std::uint64_t claim :
       {~std::uint64_t{0} - 7, std::uint64_t{1} << 62}) {
    ChannelFixture f;
    const auto header = header_claiming(claim);
    ASSERT_TRUE(f.channel.recv_ring().write(header, -1, 2000).ok());
    const auto got = f.channel.recv_frame(2000);
    ASSERT_FALSE(got.ok()) << "claim " << claim;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
        << got.status().to_string();
  }

  // A 4 GiB claim with no bytes behind it runs out of time. Its buffer is
  // left uninitialised, so while the reader waits for bytes that never
  // come, no page of it is resident.
  ChannelFixture f;
  const auto header = header_claiming(std::uint64_t{1} << 32);
  ASSERT_TRUE(f.channel.recv_ring().write(header, -1, 2000).ok());
  const long rss_before = rss_kb();
  long rss_waiting = 0;
  std::thread sampler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    rss_waiting = rss_kb();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto got = f.channel.recv_frame(200);
  const auto waited = std::chrono::steady_clock::now() - start;
  sampler.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status().to_string();
  EXPECT_GE(waited, std::chrono::milliseconds(190));
  ASSERT_GT(rss_before, 0);
#if !defined(__SANITIZE_ADDRESS__)
  // Under ASan the shadow of a fresh 4 GiB chunk is partly resident
  // whatever the program touches, so there the resident set shows nothing.
  EXPECT_LT(rss_waiting - rss_before, 64 * 1024);
#endif
}

}  // namespace
}  // namespace mpte::ipc
