#include "harness/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/clock.hpp"
#include "runtime/metrics.hpp"
#include "workload/aol_generator.hpp"

namespace dsps::harness {

namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

LoadGenerator::LoadGenerator(kafka::Broker& broker, LoadGenConfig config)
    : broker_(broker), config_(std::move(config)) {
  // Pool content comes from the same generator as the closed-loop input so
  // the queries see the paper's selectivities (grep needle, click columns).
  workload::AolGenerator generator(workload::AolGeneratorConfig{
      .record_count = config_.pool_size, .seed = config_.seed});
  pool_.reserve(config_.pool_size);
  payload_pool_.reserve(config_.pool_size);
  std::string line;
  for (std::uint64_t i = 0; i < config_.pool_size; ++i) {
    generator.line_at(i, line);
    pool_.push_back(line);
    payload_pool_.emplace_back(pool_.back());  // one copy; reused per cycle
  }
}

std::size_t LoadGenerator::pool_index(std::uint64_t seq) const noexcept {
  if (config_.key_skew <= 0.0) {
    return static_cast<std::size_t>(seq % pool_.size());
  }
  // Power-law bias toward low pool indices: u^(1+skew) concentrates mass
  // near 0 while staying a pure function of (seed, seq).
  const double u =
      static_cast<double>(splitmix64(config_.seed ^ seq) >> 11) /
      static_cast<double>(1ULL << 53);
  const double biased = std::pow(u, 1.0 + config_.key_skew);
  auto index = static_cast<std::size_t>(
      biased * static_cast<double>(pool_.size()));
  return std::min(index, pool_.size() - 1);
}

double LoadGenerator::rate_multiplier(std::int64_t elapsed_us) const noexcept {
  if (config_.burst_period_ms <= 0 || config_.burst_width_ms <= 0 ||
      config_.burst_factor == 1.0) {
    return 1.0;
  }
  const std::int64_t phase_ms = (elapsed_us / 1000) % config_.burst_period_ms;
  return phase_ms < config_.burst_width_ms ? config_.burst_factor : 1.0;
}

Result<LoadGenReport> LoadGenerator::run(const std::function<bool()>& stop) {
  if (config_.target_rate <= 0.0) {
    return Status::invalid_argument("target_rate must be > 0");
  }
  auto retained_gauge =
      runtime::MetricsRegistry::global().gauge("kafka.log.retained_bytes");
  const kafka::TopicPartition tp{config_.topic, 0};

  LoadGenReport report;
  std::vector<kafka::ProducerRecord> batch;
  batch.reserve(config_.batch_size);
  const std::int64_t start_us = steady_clock_us();
  // Virtual schedule: each offered record advances the due time by the
  // reciprocal of the instantaneous rate, so bursts compress the schedule
  // instead of shifting it.
  double due_us = static_cast<double>(start_us);

  while (report.offered < config_.records) {
    if (stop && stop()) break;
    batch.clear();
    while (batch.size() < config_.batch_size &&
           report.offered < config_.records) {
      const std::uint64_t seq = report.offered++;
      batch.push_back(kafka::ProducerRecord{
          .key = {}, .value = payload_pool_[pool_index(seq)]});
      const std::int64_t elapsed = steady_clock_us() - start_us;
      due_us += 1e6 / (config_.target_rate * rate_multiplier(elapsed));
    }
    if (!batch.empty()) {
      auto appended = broker_.append_batch(tp, batch, false);
      if (!appended.is_ok()) return appended.status();
      report.admitted += batch.size();
    }
    retained_gauge.set(
        static_cast<double>(broker_.retained_bytes(config_.topic)));
    // Pace: sleep out any lead over the virtual schedule.
    const auto now = static_cast<double>(steady_clock_us());
    if (due_us > now + 100.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(due_us - now)));
    }
  }

  report.duration_seconds =
      static_cast<double>(steady_clock_us() - start_us) / 1e6;
  report.achieved_rate =
      report.duration_seconds > 0.0
          ? static_cast<double>(report.admitted) / report.duration_seconds
          : 0.0;
  return report;
}

}  // namespace dsps::harness
