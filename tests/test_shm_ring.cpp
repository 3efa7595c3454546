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
#include <new>
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
  // Hand-roll the channel's frame-on-ring protocol: u64 length marker,
  // then the checksummed envelope bytes.
  ErrorFrame error;
  error.rank = 3;
  error.round = 41;
  error.message = "step failed";
  const mpc::Buffer encoded = encode_error(error);
  const std::uint64_t marker = encoded.size();
  ASSERT_TRUE(f.producer
                  .write({reinterpret_cast<const std::uint8_t*>(&marker),
                          sizeof(marker)},
                         -1, 2000)
                  .ok());
  ASSERT_TRUE(f.producer.write({encoded.data(), encoded.size()}, -1, 2000)
                  .ok());
  // Flip one payload byte *in the shared ring data* — torn/corrupted
  // shared pages must not survive the digest check.
  f.data[sizeof(marker) + kEnvelopeHeaderBytes] ^= 0x40;
  std::uint64_t got_marker = 0;
  ASSERT_TRUE(f.consumer
                  .read({reinterpret_cast<std::uint8_t*>(&got_marker),
                         sizeof(got_marker)},
                        -1, 2000)
                  .ok());
  ASSERT_EQ(got_marker, marker);
  std::vector<std::uint8_t> envelope(got_marker);
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

TEST(ShmChannel, RoundTripsFramesAndFallsBackWhenOversized) {
  // Channel-level check over a real pre-"fork" channel driven from two
  // threads: one bound as coordinator, one as worker, exactly like the
  // two processes would be. A tiny ring forces the oversized result
  // frame onto the socketpair fallback path (marker 0), interleaved with
  // ring-sized frames — order must hold and counters must add up.
  ShmChannel::Config config;
  config.ring_bytes = 1u << 10;
  config.arena_bytes = 1u << 12;
  auto created = ShmChannel::create(config);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  // In a real spawn the worker's end is the same region seen after fork;
  // here the "worker" is this thread speaking the raw marker+envelope
  // protocol directly over the channel's rings (cross-process
  // equivalence is test_ipc's job).
  ShmChannel channel = std::move(*created);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  channel.bind(Side::kCoordinator, sv[0]);

  // Worker-side raw view: the ring the coordinator produces on.
  ShmRing& to_worker = channel.send_ring();

  // Frame 1: small step frame — fits the ring.
  StepFrame step;
  step.rank = 2;
  step.round = 5;
  step.step_name = "test/step";
  ASSERT_TRUE(channel.send_frame(encode_step(step)).ok());
  // Frame 2: oversized (payload > ring capacity) — must fall back.
  ResultFrame result;
  result.rank = 2;
  result.round = 5;
  result.fragments.resize(1);
  StoreDelta delta;
  delta.key = "big";
  delta.present = true;
  delta.blob = mpc::Buffer::copy_of(pattern(8192, 5));
  result.store_delta.push_back(std::move(delta));
  ASSERT_TRUE(channel.send_frame(encode_result(result)).ok());

  // Scripted worker: drain both frames in order through the raw
  // protocol (marker, then ring bytes or socketpair).
  auto read_exact = [&](std::span<std::uint8_t> out) {
    ASSERT_TRUE(to_worker.read(out, -1, 5000).ok());
  };
  std::uint64_t marker = 0;
  read_exact({reinterpret_cast<std::uint8_t*>(&marker), sizeof(marker)});
  ASSERT_GT(marker, 0u);
  std::vector<std::uint8_t> envelope(marker);
  read_exact({envelope.data(), envelope.size()});
  auto first = decode_envelope({envelope.data(), envelope.size()});
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(first->kind, FrameKind::kStep);
  EXPECT_EQ(first->step.step_name, "test/step");

  read_exact({reinterpret_cast<std::uint8_t*>(&marker), sizeof(marker)});
  EXPECT_EQ(marker, 0u) << "oversized frame should announce fallback";
  auto second = read_frame(sv[1], 5000);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second->kind, FrameKind::kResult);
  ASSERT_EQ(second->result.store_delta.size(), 1u);
  EXPECT_EQ(second->result.store_delta[0].blob.size(), 8192u);

  const RingCounters counters = channel.drain_counters();
  EXPECT_EQ(counters.fallback_frames, 1u);
  EXPECT_GT(counters.shm_bytes, 0u);
  // A second drain reports only what happened since (nothing).
  const RingCounters again = channel.drain_counters();
  EXPECT_EQ(again.fallback_frames, 0u);
  EXPECT_EQ(again.shm_bytes, 0u);
  channel.close();
  ::close(sv[0]);
  ::close(sv[1]);
}

}  // namespace
}  // namespace mpte::ipc
