// Rate-controlled open-loop load generator (the sustained-load harness's
// source, after Karimov et al. and Henning & Hasselbring, PAPERS.md).
//
// Unlike the closed-loop DataSender (preload, then drain), the generator
// offers records at a target rate while the engine under test is running,
// optionally with bursts, cycling over a pregenerated payload pool. The
// schedule is independent of the engine under test: overload shows up as
// consumer lag and event-time latency, never as a slowed generator, and no
// offered record is dropped.
//
// The payload pool is cycled deterministically (pool_index), so a bench
// can reconstruct exactly which line the i-th admitted record carried —
// that is what makes event-time latency correspondence (output record j ->
// input record f(j)) computable after the run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "kafka/broker.hpp"
#include "runtime/payload.hpp"

namespace dsps::harness {

/// Pregenerated AOL-line pool size; records cycle through it.
inline constexpr std::size_t kLoadGenPoolSize = 4'096;

struct LoadGenConfig {
  std::string topic;
  /// Offered events per second. Must be > 0.
  double target_rate = 10'000.0;
  /// Total records to offer.
  std::uint64_t records = 8'000;
  std::uint64_t seed = 42;
  /// Burst pattern: for `burst_width_ms` out of every `burst_period_ms`
  /// the offered rate is multiplied by `burst_factor`. period 0 = steady.
  double burst_factor = 1.0;
  std::int64_t burst_period_ms = 0;
  std::int64_t burst_width_ms = 0;
};

struct LoadGenReport {
  std::uint64_t offered = 0;   // records taken off the schedule
  std::uint64_t admitted = 0;  // records actually appended
  double duration_seconds = 0.0;
  /// admitted / duration: < target_rate when the appends fell behind the
  /// schedule.
  double achieved_rate = 0.0;
};

class LoadGenerator {
 public:
  LoadGenerator(kafka::Broker& broker, LoadGenConfig config);

  /// The pregenerated line pool (AolGenerator content: grep-needle
  /// selectivity and schema match the closed-loop benchmark's input).
  const std::vector<std::string>& pool() const noexcept { return pool_; }

  /// Pool index the `seq`-th offered record draws its payload from.
  static std::size_t pool_index(std::uint64_t seq) noexcept {
    return static_cast<std::size_t>(seq % kLoadGenPoolSize);
  }

  /// Paces config.records records into partition 0 of config.topic.
  /// `stop` (optional) is polled between batches for early abort.
  Result<LoadGenReport> run(const std::function<bool()>& stop = {});

  const LoadGenConfig& config() const noexcept { return config_; }

 private:
  double rate_multiplier(std::int64_t elapsed_us) const noexcept;

  kafka::Broker& broker_;
  LoadGenConfig config_;
  std::vector<std::string> pool_;
  std::vector<runtime::Payload> payload_pool_;  // refcounted, reused
};

}  // namespace dsps::harness
