#include "mpc/buffer.hpp"

#include <atomic>

namespace mpte::mpc {

namespace {
std::atomic<std::uint64_t> slabs_created_{0};
}  // namespace

Buffer::Buffer(std::vector<std::uint8_t> bytes) {
  if (bytes.empty()) return;
  slab_ = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  slabs_created_.fetch_add(1, std::memory_order_relaxed);
}

Buffer Buffer::copy_of(std::span<const std::uint8_t> bytes) {
  return Buffer(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

std::uint64_t Buffer::slabs_created() {
  return slabs_created_.load(std::memory_order_relaxed);
}

void Buffer::reset_counters() {
  slabs_created_.store(0, std::memory_order_relaxed);
}

}  // namespace mpte::mpc
