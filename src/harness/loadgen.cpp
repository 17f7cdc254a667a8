#include "harness/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/clock.hpp"
#include "runtime/metrics.hpp"
#include "workload/aol_generator.hpp"

namespace dsps::harness {

namespace {

/// Records appended per broker request (amortizes the append RTT the way a
/// real producer's batching would).
constexpr std::size_t kBatchRecords = 256;

}  // namespace

LoadGenerator::LoadGenerator(kafka::Broker& broker, LoadGenConfig config)
    : broker_(broker), config_(std::move(config)) {
  // Pool content comes from the same generator as the closed-loop input so
  // the queries see the paper's selectivities (grep needle, click columns).
  workload::AolGenerator generator(workload::AolGeneratorConfig{
      .record_count = kLoadGenPoolSize, .seed = config_.seed});
  pool_.reserve(kLoadGenPoolSize);
  payload_pool_.reserve(kLoadGenPoolSize);
  std::string line;
  for (std::uint64_t i = 0; i < kLoadGenPoolSize; ++i) {
    generator.line_at(i, line);
    pool_.push_back(line);
    payload_pool_.emplace_back(pool_.back());  // one copy; reused per cycle
  }
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
  batch.reserve(kBatchRecords);
  const std::int64_t start_us = steady_clock_us();
  // Virtual schedule: each offered record advances the due time by the
  // reciprocal of the instantaneous rate, so bursts compress the schedule
  // instead of shifting it.
  double due_us = static_cast<double>(start_us);

  while (report.offered < config_.records) {
    if (stop && stop()) break;
    batch.clear();
    while (batch.size() < kBatchRecords &&
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
