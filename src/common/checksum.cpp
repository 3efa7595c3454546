#include "common/checksum.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/serialize.hpp"

namespace mpte {

namespace {

// "FVMP" on disk (written little-endian); distinct from every payload
// magic (hst_io "ETPM", embedding_io "BEPM", ckpt "MPCK"), so a raw
// payload is never mistaken for an envelope.
constexpr std::uint32_t kEnvelopeMagic = 0x504d5646;
constexpr std::uint32_t kEnvelopeVersion = 1;
// magic + version + payload_size up front, digest behind the payload.
constexpr std::size_t kHeaderBytes =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t);
constexpr std::size_t kTrailerBytes = sizeof(std::uint64_t);

static_assert(kHeaderBytes == kEnvelopeHeaderBytes);
static_assert(kTrailerBytes == kEnvelopeTrailerBytes);

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t state) {
  for (const std::uint8_t b : bytes) {
    state ^= b;
    state *= kFnv1aPrime;
  }
  return state;
}

std::vector<std::uint8_t> wrap_checksummed(
    std::span<const std::uint8_t> payload) {
  Serializer s(kHeaderBytes + payload.size() + kTrailerBytes);
  s.write(kEnvelopeMagic);
  s.write(kEnvelopeVersion);
  s.write(static_cast<std::uint64_t>(payload.size()));
  s.write_raw(payload);
  s.write(fnv1a64(payload));
  return s.take();
}

Result<std::uint64_t> envelope_payload_size(
    std::span<const std::uint8_t> header, const std::string& context) {
  if (header.size() < kHeaderBytes) {
    return Status(StatusCode::kInvalidArgument,
                  context + ": envelope header truncated");
  }
  Deserializer d(header.data(), header.size());
  if (d.read<std::uint32_t>() != kEnvelopeMagic) {
    return Status(StatusCode::kInvalidArgument,
                  context + ": not a checksummed envelope (bad magic)");
  }
  const auto version = d.read<std::uint32_t>();
  if (version != kEnvelopeVersion) {
    return Status(StatusCode::kInvalidArgument,
                  context + ": unsupported envelope version " +
                      std::to_string(version));
  }
  return d.read<std::uint64_t>();
}

Result<std::vector<std::uint8_t>> unwrap_checksummed(
    std::vector<std::uint8_t> file_bytes, const std::string& context) {
  const auto payload_size = envelope_payload_size(file_bytes, context);
  if (!payload_size.ok()) return payload_size.status();
  const std::size_t size = file_bytes.size();
  if (size < kHeaderBytes + kTrailerBytes ||
      *payload_size != size - kHeaderBytes - kTrailerBytes) {
    return Status(StatusCode::kInvalidArgument,
                  context + ": truncated (payload declares " +
                      std::to_string(*payload_size) + "B, file holds " +
                      std::to_string(size) + "B)");
  }
  const std::span<const std::uint8_t> payload(
      file_bytes.data() + kHeaderBytes, size - kHeaderBytes - kTrailerBytes);
  std::uint64_t stored;
  std::memcpy(&stored, payload.data() + payload.size(), sizeof(stored));
  const std::uint64_t computed = fnv1a64(payload);
  if (stored != computed) {
    return Status(StatusCode::kInvalidArgument,
                  context + ": checksum mismatch (stored " +
                      std::to_string(stored) + ", computed " +
                      std::to_string(computed) + ")");
  }
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

Status write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status(StatusCode::kUnavailable, "cannot open " + tmp);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      return Status(StatusCode::kUnavailable, "short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status(StatusCode::kUnavailable,
                  "cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

Result<std::vector<std::uint8_t>> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(StatusCode::kUnavailable, "cannot open " + path);
  }
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return bytes;
}

}  // namespace mpte
