// Rate-controlled open-loop load generator (the sustained-load harness's
// source, after Karimov et al. and Henning & Hasselbring, PAPERS.md).
//
// Unlike the closed-loop DataSender (preload, then drain), the generator
// offers records at a target rate while the engine under test is running,
// optionally with bursts and a skewed choice over a pregenerated payload
// pool. The schedule is independent of the engine under test: overload
// shows up as consumer lag and event-time latency, never as a slowed
// generator, and no offered record is dropped.
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

struct LoadGenConfig {
  std::string topic;
  /// Offered events per second. Must be > 0.
  double target_rate = 10'000.0;
  /// Total records to offer.
  std::uint64_t records = 8'000;
  std::uint64_t seed = 42;
  /// Records appended per broker request (amortizes the append RTT the way
  /// a real producer's batching would).
  std::size_t batch_size = 256;
  /// Pregenerated AOL-line pool size; records cycle through it.
  std::size_t pool_size = 4'096;
  /// Key skew exponent: 0 = sequential cycling (uniform); > 0 biases the
  /// pool choice toward low indices (hot keys), still deterministically.
  double key_skew = 0.0;
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
  /// Deterministic in (config.seed, seq).
  std::size_t pool_index(std::uint64_t seq) const noexcept;

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
