// Byte-level serialization for MPC messages.
//
// The MPC model prices communication in machine words/bytes: a machine may
// send and receive at most its local memory per round. To make that
// accounting honest, every message crossing machines is serialized into a
// flat byte buffer and its exact size is charged against the sender's and
// receiver's quotas. The encoding is a simple little-endian, length-prefixed
// format — deterministic and portable across the trivially copyable types
// the library exchanges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.hpp"

namespace mpte {

/// Byte size of a length-prefixed span of `count` records of type T, as
/// written by Serializer::write_span — the right reserve hint for a
/// message that is one record batch.
template <typename T>
  requires std::is_trivially_copyable_v<T>
constexpr std::size_t wire_size(std::size_t count) {
  return sizeof(std::uint64_t) + count * sizeof(T);
}

/// Append-only encoder producing the wire bytes of a message.
class Serializer {
 public:
  Serializer() = default;

  /// Size hint: reserves `reserve_bytes` of capacity up front so a message
  /// of known size is encoded with a single allocation.
  explicit Serializer(std::size_t reserve_bytes) {
    buffer_.reserve(reserve_bytes);
  }

  /// Writes a trivially copyable scalar verbatim (little-endian host order;
  /// the simulator never crosses endianness domains).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
    buffer_.insert(buffer_.end(), bytes, bytes + sizeof(T));
  }

  /// Writes a length-prefixed span of trivially copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_span(std::span<const T> values) {
    write(static_cast<std::uint64_t>(values.size()));
    if (!values.empty()) {
      const auto* bytes =
          reinterpret_cast<const std::uint8_t*>(values.data());
      buffer_.insert(buffer_.end(), bytes,
                     bytes + values.size() * sizeof(T));
    }
  }

  /// Writes a length-prefixed vector of trivially copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& values) {
    write_span(std::span<const T>(values));
  }

  /// Appends raw bytes verbatim, with no length prefix (for embedding an
  /// already-framed payload, e.g. a file envelope's body).
  void write_raw(std::span<const std::uint8_t> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  /// Writes a length-prefixed string.
  void write_string(const std::string& s);

  std::size_t size() const { return buffer_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return buffer_; }

  /// Releases the encoded bytes without copying. The Serializer is left
  /// empty and reusable: size() == 0 and subsequent writes start a fresh
  /// buffer.
  std::vector<std::uint8_t> take() {
    std::vector<std::uint8_t> out = std::move(buffer_);
    buffer_.clear();  // moved-from state is unspecified; make it empty
    return out;
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Cursor-based decoder over a received byte buffer. Out-of-bounds reads
/// throw MpteError, and so does a length prefix longer than the bytes
/// left, before anything is allocated: decoders of outside bytes (tree and
/// embedding files, snapshots) turn the throw into a Status.
class Deserializer {
 public:
  explicit Deserializer(const std::vector<std::uint8_t>& buffer)
      : data_(buffer.data()), size_(buffer.size()) {}
  explicit Deserializer(std::span<const std::uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  Deserializer(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto count = read_count(sizeof(T));
    std::vector<T> values(count);
    if (count > 0) {
      std::memcpy(values.data(), data_ + cursor_, count * sizeof(T));
      cursor_ += count * sizeof(T);
    }
    return values;
  }

  std::string read_string();

  /// Reads a length prefix for records of at least `min_bytes` each and
  /// throws unless that many bytes are left. A hostile count never wraps
  /// count * min_bytes or reaches the allocator.
  std::uint64_t read_count(std::size_t min_bytes) {
    const auto count = read<std::uint64_t>();
    if (count > remaining() / min_bytes) {
      throw MpteError("Deserializer: length prefix exceeds message");
    }
    return count;
  }

  bool exhausted() const { return cursor_ == size_; }
  std::size_t remaining() const { return size_ - cursor_; }

 private:
  void require(std::size_t n) const {
    if (n > size_ - cursor_) {
      throw MpteError("Deserializer: read past end of message");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

}  // namespace mpte
