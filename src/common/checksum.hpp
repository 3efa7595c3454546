// Integrity primitives shared by every on-disk artifact and ipc frame.
//
// Embedding files (core/embedding_io, the one on-disk tree format) and
// cluster snapshots (ckpt/snapshot) persist Serializer-encoded payloads,
// and the ipc transport (ipc/frames) sends them. This header gives them
// one checksum (FNV-1a 64) and one envelope — a small header plus
// trailing digest — so a truncated or bit-flipped file is rejected with a
// Status instead of being deserialized into garbage. Every reader
// requires the envelope. It wraps the payload without altering it:
// in-memory byte formats (and the golden fingerprints hashed over them)
// stay stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace mpte {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// FNV-1a over `bytes`, continuing from `state` (chain calls to digest
/// discontiguous regions).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t state = kFnv1aOffsetBasis);

/// Wraps a payload in the checksummed file envelope:
///   u32 magic, u32 version, u64 payload_size, payload, u64 fnv1a(payload).
std::vector<std::uint8_t> wrap_checksummed(
    std::span<const std::uint8_t> payload);

/// Envelope geometry, exposed for streaming readers (the ipc frame
/// transport) that must learn the payload size from the fixed-size prefix
/// before the rest of the envelope has arrived.
inline constexpr std::size_t kEnvelopeHeaderBytes =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t);
inline constexpr std::size_t kEnvelopeTrailerBytes = sizeof(std::uint64_t);

/// Validates a kEnvelopeHeaderBytes-long prefix (magic + version) and
/// returns the declared payload size; kInvalidArgument mentions `context`.
Result<std::uint64_t> envelope_payload_size(
    std::span<const std::uint8_t> header, const std::string& context);

/// Validates the envelope and returns the payload. A missing envelope
/// (bad magic), an unknown envelope version, truncation, size mismatch
/// and checksum mismatch all yield kInvalidArgument mentioning `context`
/// (typically the file path).
Result<std::vector<std::uint8_t>> unwrap_checksummed(
    std::vector<std::uint8_t> file_bytes, const std::string& context);

/// Writes `bytes` to `path` via a same-directory temp file + rename, so a
/// crash mid-write never leaves a partially written file at `path`.
Status write_file_atomic(const std::string& path,
                         std::span<const std::uint8_t> bytes);

/// Reads a whole file; kUnavailable if it cannot be opened.
Result<std::vector<std::uint8_t>> read_file_bytes(const std::string& path);

}  // namespace mpte
