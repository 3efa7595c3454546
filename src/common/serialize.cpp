#include "common/serialize.hpp"

namespace mpte {

void Serializer::write_string(const std::string& s) {
  write(static_cast<std::uint64_t>(s.size()));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(s.data());
  buffer_.insert(buffer_.end(), bytes, bytes + s.size());
}

std::string Deserializer::read_string() {
  const auto count = read_count(1);
  std::string s(reinterpret_cast<const char*>(data_ + cursor_), count);
  cursor_ += count;
  return s;
}

}  // namespace mpte
