// Clocks and stopwatches.
//
// MiniKafka stamps records with wall-clock milliseconds (LogAppendTime);
// the harness measures elapsed intervals with the steady clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace dsps {

/// Broker/event timestamps. Kafka stamps in milliseconds; MiniKafka stamps
/// in MICROSECONDS since the Unix epoch because the reproduction runs are
/// time-scaled (20k records instead of 1M) and millisecond resolution would
/// swamp the fast native runs with quantization noise. The measurement
/// methodology (difference of broker append timestamps, §III-A3) is
/// unchanged; only the unit is finer.
using Timestamp = std::int64_t;

inline Timestamp wall_clock_now() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Converts a broker timestamp difference to seconds.
inline double timestamp_delta_seconds(Timestamp delta) noexcept {
  return static_cast<double>(delta) / 1e6;
}

/// Microseconds on the monotonic clock — interval measurements only.
inline std::int64_t steady_clock_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Age test for a batch that ships by count or by a time budget (Kafka's
/// linger, Flink's buffer timeout), checked as records join it. One steady
/// clock read costs tens of nanoseconds — as much as the rest of a buffered
/// send — so `expired` reads the clock only while the batch is small and then
/// once per `kStride` records:
///  * a batch of fewer than kStride records is checked on every record, so it
///    ships at the first record after its budget passes;
///  * a batch that grew past kStride records before its budget passed ships
///    at most kStride - 1 records late. That takes kStride records inside
///    one budget: 32k records/s for a 500 us budget.
class BatchDeadline {
 public:
  static constexpr std::size_t kStride = 16;

  /// True when a batch holding `records` records reads the clock.
  static constexpr bool due(std::size_t records) noexcept {
    return records <= kStride || records % kStride == 0;
  }

  /// Stamps the batch's first record.
  void start() noexcept { started_us_ = steady_clock_us(); }

  /// True once the batch, now holding `records` records, has been open for
  /// `budget_us` — tested only on records the stride rule makes due.
  bool expired(std::size_t records, std::int64_t budget_us) const noexcept {
    return due(records) && steady_clock_us() - started_us_ >= budget_us;
  }

 private:
  std::int64_t started_us_ = 0;
};

/// Measures elapsed time on the steady clock.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_us_(steady_clock_us()) {}

  void reset() noexcept { start_us_ = steady_clock_us(); }

  std::int64_t elapsed_us() const noexcept {
    return steady_clock_us() - start_us_;
  }
  double elapsed_ms() const noexcept {
    return static_cast<double>(elapsed_us()) / 1e3;
  }
  double elapsed_seconds() const noexcept {
    return static_cast<double>(elapsed_us()) / 1e6;
  }

 private:
  std::int64_t start_us_;
};

}  // namespace dsps
