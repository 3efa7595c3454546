#include "common/timer.hpp"

namespace mpte {

Timer::Timer() : start_(std::chrono::steady_clock::now()) {}

double Timer::seconds() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return std::chrono::duration<double>(elapsed).count();
}

double Timer::milliseconds() const { return seconds() * 1e3; }

}  // namespace mpte
