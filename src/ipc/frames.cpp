#include "ipc/frames.hpp"

#include <cstring>
#include <utility>

#include "common/checksum.hpp"
#include "common/serialize.hpp"

namespace mpte::ipc {

namespace {

mpc::Buffer envelope(const Serializer& payload) {
  return mpc::Buffer(wrap_checksummed(payload.bytes()));
}

// Blob tags (see docs/ipc-transport.md "Blob encoding").
constexpr std::uint8_t kBlobInline = 0;  // u64 length + raw bytes follow
constexpr std::uint8_t kBlobArena = 1;   // u64 offset + u64 length in arena

void write_buffer(Serializer& s, const mpc::Buffer& buffer,
                  BlobArena* arena) {
  if (arena != nullptr && buffer.size() >= kArenaBlobMin &&
      arena->used + buffer.size() <= arena->capacity) {
    s.write(kBlobArena);
    s.write(static_cast<std::uint64_t>(arena->used));
    s.write(static_cast<std::uint64_t>(buffer.size()));
    std::memcpy(arena->base + arena->used, buffer.data(), buffer.size());
    arena->used += buffer.size();
    return;
  }
  s.write(kBlobInline);
  s.write_span(buffer.span());
}

/// The arena a frame's blob references point into, and how many of its
/// bytes the frame may still copy out. The encoder writes references at
/// increasing offsets and never past capacity, so a valid frame copies at
/// most the arena's size in total; references that repeat or overlap
/// beyond that are refused before they copy.
struct ArenaReader {
  std::span<const std::uint8_t> arena;
  std::size_t budget;
};

mpc::Buffer read_buffer(Deserializer& d, ArenaReader& in) {
  const auto tag = d.read<std::uint8_t>();
  if (tag == kBlobInline) return mpc::Buffer(d.read_vector<std::uint8_t>());
  if (tag != kBlobArena) {
    throw MpteError("ipc frame: unknown blob tag " + std::to_string(tag));
  }
  const auto offset = d.read<std::uint64_t>();
  const auto length = d.read<std::uint64_t>();
  if (offset > in.arena.size() || length > in.arena.size() - offset) {
    throw MpteError("ipc frame: arena blob reference out of bounds");
  }
  if (length > in.budget) {
    throw MpteError("ipc frame: arena references copy more than the arena");
  }
  in.budget -= length;
  // The one worker-side touch: arena bytes are copied out here and
  // nowhere else, so the frame survives the arena's next reset.
  return mpc::Buffer::copy_of(in.arena.subspan(offset, length));
}

// The smallest encoding of one record behind each count. decode reads
// every count through read_count with these, so a count the bytes left
// cannot hold is refused before anything is allocated for it.
constexpr std::size_t kMinBlobBytes = 1 + sizeof(std::uint64_t);
constexpr std::size_t kMinDeltaBytes = sizeof(std::uint64_t) + 1;
constexpr std::size_t kMinChannelBytes = 2 * sizeof(std::uint64_t);
constexpr std::size_t kMinMessageBytes =
    sizeof(mpc::MachineId) + kMinBlobBytes;

void write_deltas(Serializer& s, const std::vector<StoreDelta>& deltas,
                  BlobArena* arena) {
  s.write(static_cast<std::uint64_t>(deltas.size()));
  for (const auto& delta : deltas) {
    s.write_string(delta.key);
    s.write(static_cast<std::uint8_t>(delta.present ? 1 : 0));
    if (delta.present) write_buffer(s, delta.blob, arena);
  }
}

std::vector<StoreDelta> read_deltas(Deserializer& d, ArenaReader& arena) {
  std::vector<StoreDelta> deltas(d.read_count(kMinDeltaBytes));
  for (StoreDelta& delta : deltas) {
    delta.key = d.read_string();
    delta.present = d.read<std::uint8_t>() != 0;
    if (delta.present) delta.blob = read_buffer(d, arena);
  }
  return deltas;
}

Frame decode(std::span<const std::uint8_t> payload,
             std::span<const std::uint8_t> arena_bytes) {
  Deserializer d(payload);
  ArenaReader arena{arena_bytes, arena_bytes.size()};
  Frame frame;
  frame.kind = static_cast<FrameKind>(d.read<std::uint32_t>());
  switch (frame.kind) {
    case FrameKind::kError:
      frame.error.rank = d.read<mpc::MachineId>();
      frame.error.round = d.read<std::uint64_t>();
      frame.error.message = d.read_string();
      frame.round = frame.error.round;
      return frame;
    case FrameKind::kResult: {
      auto& result = frame.result;
      result.rank = d.read<mpc::MachineId>();
      result.round = d.read<std::uint64_t>();
      frame.round = result.round;
      result.store_delta = read_deltas(d, arena);
      result.fragments.resize(d.read_count(sizeof(std::uint64_t)));
      for (auto& cell : result.fragments) {
        cell.resize(d.read_count(kMinBlobBytes));
        for (mpc::Buffer& fragment : cell) fragment = read_buffer(d, arena);
      }
      const auto num_channels = d.read_count(kMinChannelBytes);
      for (std::uint64_t c = 0; c < num_channels; ++c) {
        std::string channel = d.read_string();
        result.channel_bytes[std::move(channel)] = d.read<std::uint64_t>();
      }
      return frame;
    }
    case FrameKind::kStep: {
      auto& step = frame.step;
      step.rank = d.read<mpc::MachineId>();
      step.round = d.read<std::uint64_t>();
      frame.round = step.round;
      step.step_name = d.read_string();
      step.step_params = read_buffer(d, arena);
      step.reset_store = d.read<std::uint8_t>() != 0;
      step.inject_kill = d.read<std::uint8_t>() != 0;
      step.store_patch = read_deltas(d, arena);
      step.inbox.resize(d.read_count(kMinMessageBytes));
      for (mpc::Message& message : step.inbox) {
        message.from = d.read<mpc::MachineId>();
        message.payload = read_buffer(d, arena);
      }
      return frame;
    }
    case FrameKind::kShutdown:
      return frame;
  }
  throw MpteError("ipc frame: unknown kind " +
                  std::to_string(static_cast<std::uint32_t>(frame.kind)));
}

}  // namespace

mpc::Buffer encode_result(const ResultFrame& frame, BlobArena* arena) {
  Serializer s;
  s.write(static_cast<std::uint32_t>(FrameKind::kResult));
  s.write(frame.rank);
  s.write(frame.round);
  write_deltas(s, frame.store_delta, arena);
  s.write(static_cast<std::uint64_t>(frame.fragments.size()));
  for (const auto& cell : frame.fragments) {
    s.write(static_cast<std::uint64_t>(cell.size()));
    for (const auto& fragment : cell) write_buffer(s, fragment, arena);
  }
  s.write(static_cast<std::uint64_t>(frame.channel_bytes.size()));
  for (const auto& [channel, bytes] : frame.channel_bytes) {
    s.write_string(channel);
    s.write(static_cast<std::uint64_t>(bytes));
  }
  return envelope(s);
}

mpc::Buffer encode_error(const ErrorFrame& frame) {
  Serializer s;
  s.write(static_cast<std::uint32_t>(FrameKind::kError));
  s.write(frame.rank);
  s.write(frame.round);
  s.write_string(frame.message);
  return envelope(s);
}

mpc::Buffer encode_step(const StepFrame& frame, BlobArena* arena) {
  // Payload-size hint: sized up front so the hot path (one kStep per rank
  // per round) reallocates at most once even for large patches.
  std::size_t hint = 64 + frame.step_name.size() + frame.step_params.size();
  for (const auto& delta : frame.store_patch) {
    hint += 32 + delta.key.size() + delta.blob.size();
  }
  for (const auto& message : frame.inbox) {
    hint += 16 + message.payload.size();
  }
  Serializer s(hint);
  s.write(static_cast<std::uint32_t>(FrameKind::kStep));
  s.write(frame.rank);
  s.write(frame.round);
  s.write_string(frame.step_name);
  write_buffer(s, frame.step_params, arena);
  s.write(static_cast<std::uint8_t>(frame.reset_store ? 1 : 0));
  s.write(static_cast<std::uint8_t>(frame.inject_kill ? 1 : 0));
  write_deltas(s, frame.store_patch, arena);
  s.write(static_cast<std::uint64_t>(frame.inbox.size()));
  for (const auto& message : frame.inbox) {
    s.write(message.from);
    write_buffer(s, message.payload, arena);
  }
  return envelope(s);
}

mpc::Buffer encode_shutdown() {
  Serializer s;
  s.write(static_cast<std::uint32_t>(FrameKind::kShutdown));
  return envelope(s);
}

Result<Frame> decode_envelope(std::span<const std::uint8_t> envelope,
                              std::span<const std::uint8_t> arena) {
  if (envelope.size() < kEnvelopeHeaderBytes + kEnvelopeTrailerBytes) {
    return Status(StatusCode::kInvalidArgument,
                  "ipc frame: envelope shorter than header + digest");
  }
  const auto payload_size = envelope_payload_size(
      envelope.first(kEnvelopeHeaderBytes), "ipc frame header");
  if (!payload_size.ok()) return payload_size.status();
  const std::size_t body_size =
      envelope.size() - kEnvelopeHeaderBytes - kEnvelopeTrailerBytes;
  if (*payload_size != body_size) {
    return Status(StatusCode::kInvalidArgument,
                  "ipc frame: envelope size does not match header");
  }
  const auto payload = envelope.subspan(kEnvelopeHeaderBytes, body_size);
  std::uint64_t stored;
  std::memcpy(&stored, payload.data() + payload.size(), sizeof(stored));
  if (stored != fnv1a64(payload)) {
    return Status(StatusCode::kInvalidArgument,
                  "ipc frame: checksum mismatch");
  }
  // Every failure, including a malformed payload, is kInvalidArgument.
  try {
    Frame frame = decode(payload, arena);
    frame.wire_bytes = envelope.size();
    return frame;
  } catch (const MpteError& e) {
    return Status(StatusCode::kInvalidArgument, e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kInvalidArgument,
                  std::string("ipc frame: ") + e.what());
  }
}

}  // namespace mpte::ipc
