// The currency of the MPC layer: an immutable, refcounted byte slab.
//
// Every payload that crosses the simulated network — store blobs, queued
// outbox entries, delivered messages — is a Buffer. Copying a Buffer bumps
// a refcount on the underlying slab instead of duplicating bytes, so a
// broadcast that fans one blob out to M machines materializes the bytes
// exactly once (one slab, M references) where the old
// std::vector<std::uint8_t> plumbing deep-copied per hop. Immutability is
// what makes the sharing sound: once a slab is wrapped in a Buffer nobody
// can write through it, so concurrent machine steps may hold references to
// the same slab without synchronization beyond the (atomic) refcount.
//
// The class keeps a global count of slab materializations so tests and
// bench_mpc_comms can assert the zero-copy property (a broadcast allocates
// O(1) slabs, not O(M)).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"

namespace mpte::mpc {

/// Immutable shared byte slab. Cheap to copy (refcount), impossible to
/// mutate. An empty Buffer owns nothing and allocates nothing.
class Buffer {
 public:
  Buffer() = default;

  /// Takes ownership of `bytes` without copying them (the vector's heap
  /// allocation becomes the slab). Counts as one slab materialization
  /// unless the vector is empty.
  explicit Buffer(std::vector<std::uint8_t> bytes);

  /// Materializes a new slab holding a copy of `bytes`.
  static Buffer copy_of(std::span<const std::uint8_t> bytes);

  const std::uint8_t* data() const {
    return slab_ ? slab_->data() : nullptr;
  }
  std::size_t size() const { return slab_ ? slab_->size() : 0; }
  bool empty() const { return size() == 0; }

  std::span<const std::uint8_t> span() const { return {data(), size()}; }
  operator std::span<const std::uint8_t>() const { return span(); }

  /// Number of Buffers currently sharing this slab (0 for an empty
  /// Buffer). Diagnostic only — racy under concurrent copies.
  long use_count() const { return slab_.use_count(); }

  /// Byte equality (not slab identity).
  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size() == b.size() &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  }
  friend bool operator==(const Buffer& a,
                         const std::vector<std::uint8_t>& b) {
    return a.size() == b.size() &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  }

  /// Total slabs materialized process-wide since start (or the last
  /// reset). Refcount copies do not count — that is the point.
  static std::uint64_t slabs_created();
  static void reset_counters();

 private:
  explicit Buffer(std::shared_ptr<const std::vector<std::uint8_t>> slab)
      : slab_(std::move(slab)) {}

  std::shared_ptr<const std::vector<std::uint8_t>> slab_;
};

}  // namespace mpte::mpc
