// Wall-clock timers for the measured (not modeled) durations the engine,
// stores, service and benches report.
#pragma once

#include <chrono>
#include <cstdint>

namespace graphm::util {

/// Monotonic stopwatch with nanosecond resolution.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  [[nodiscard]] std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start_).count());
  }
  [[nodiscard]] double elapsed_us() const { return static_cast<double>(elapsed_ns()) / 1e3; }
  [[nodiscard]] double elapsed_ms() const { return static_cast<double>(elapsed_ns()) / 1e6; }
  [[nodiscard]] double elapsed_s() const { return static_cast<double>(elapsed_ns()) / 1e9; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Adds the elapsed time to an accumulator (in nanoseconds) on destruction.
class ScopedAccumulator {
 public:
  explicit ScopedAccumulator(std::uint64_t& sink) : sink_(sink) {}
  ScopedAccumulator(const ScopedAccumulator&) = delete;
  ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;
  ~ScopedAccumulator() { sink_ += timer_.elapsed_ns(); }

 private:
  std::uint64_t& sink_;
  Timer timer_;
};

}  // namespace graphm::util
